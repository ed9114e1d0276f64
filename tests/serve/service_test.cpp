#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/hash.hpp"
#include "exec/parallel.hpp"
#include "obs/report.hpp"
#include "serve/report.hpp"
#include "tests/hyperq/synthetic_app.hpp"
#include "trace/trace.hpp"

namespace hq::serve {
namespace {

using fw::testing::SyntheticApp;

ServiceConfig base_config() {
  ServiceConfig config;
  config.window = 20 * kMillisecond;
  config.mean_interarrival = kMillisecond;
  config.num_streams = 8;
  SyntheticApp::Spec spec;
  spec.num_kernels = 3;
  spec.block_duration = 30 * kMicrosecond;
  config.classes.push_back(
      {fw::WorkloadItem{"synthetic",
                        [spec] { return std::make_unique<SyntheticApp>(spec); }},
       0});
  return config;
}

/// A config that actually overloads the device: arrivals far faster than
/// service on a narrow stream pool.
ServiceConfig overload_config() {
  ServiceConfig config = base_config();
  config.mean_interarrival = 100 * kMicrosecond;
  config.window = 10 * kMillisecond;
  config.num_streams = 2;
  config.max_inflight = 2;
  return config;
}

/// Overload config whose fault plan is parsed from `plan`.
ServiceConfig faulted_config(const char* plan) {
  ServiceConfig config = overload_config();
  config.fault_plan = fault::parse_fault_plan(plan).value();
  return config;
}

/// One copy-heavy class at a rate that contends for the HtoD engine.
ServiceConfig copy_heavy_config() {
  ServiceConfig config = base_config();
  config.classes.clear();
  SyntheticApp::Spec heavy;
  heavy.name = "copy-heavy";
  heavy.htod_bytes = 8 * kMiB;
  heavy.htod_pieces = 4;
  heavy.num_kernels = 1;
  heavy.block_duration = 10 * kMicrosecond;
  config.classes.push_back(
      {fw::WorkloadItem{
           "copy-heavy",
           [heavy] { return std::make_unique<SyntheticApp>(heavy); }},
       0});
  config.window = 20 * kMillisecond;
  config.mean_interarrival = 150 * kMicrosecond;
  config.num_streams = 16;
  return config;
}

/// The overload config plus a second, higher-priority "vip" class.
ServiceConfig two_class_config() {
  ServiceConfig config = overload_config();
  SyntheticApp::Spec spec;
  spec.num_kernels = 3;
  spec.block_duration = 30 * kMicrosecond;
  spec.name = "vip";
  config.classes.push_back(
      {fw::WorkloadItem{"vip",
                        [spec] { return std::make_unique<SyntheticApp>(spec); }},
       5});
  return config;
}

/// FNV-1a over every field of every JobRecord, in arrival order.
std::uint64_t jobs_digest(const std::vector<JobRecord>& jobs) {
  Fnv1a64 hash;
  for (const JobRecord& job : jobs) {
    hash.mix_i64(job.job_id);
    hash.mix_u64(job.klass);
    hash.mix_u64(static_cast<std::uint64_t>(job.state));
    hash.mix_i64(job.arrived_at);
    hash.mix_i64(job.dispatched_at);
    hash.mix_i64(job.completed_at);
    hash.mix_i64(job.deadline_at);
    hash.mix_u64(job.pseudo_burst ? 1 : 0);
    hash.mix_string(job.quarantine_reason);
  }
  return hash.value();
}

std::uint64_t transitions_digest(
    const std::vector<OverloadController::Transition>& transitions) {
  Fnv1a64 hash;
  hash.mix_u64(transitions.size());
  for (const OverloadController::Transition& t : transitions) {
    hash.mix_i64(t.at);
    hash.mix_u64(t.engaged ? 1 : 0);
    hash.mix_string(std::to_string(t.stretch));
  }
  return hash.value();
}

/// FNV-1a over the JSON of every serve_* metric (0 without metrics), so
/// instruments other layers add to the registry do not count.
std::uint64_t serve_metrics_digest(const ServeResult& result) {
  if (result.metrics == nullptr) return 0;
  std::ostringstream os;
  result.metrics->for_each([&os](const obs::MetricsRegistry::Entry& e) {
    if (e.name.rfind("serve_", 0) == 0) obs::write_metric_entry_json(os, e);
  });
  return Fnv1a64().mix_string(os.str()).value();
}

/// One pinned Service configuration. The values were recorded from the
/// original single-device engine; they must never be re-pinned to follow
/// an engine change, only to follow an intentional model change.
struct GoldenCase {
  const char* name;
  ServiceConfig (*make)();
  std::uint64_t report;       ///< serve::report_digest
  std::uint64_t trace;        ///< trace::digest of the run's recorder
  std::uint64_t jobs;         ///< jobs_digest
  std::uint64_t transitions;  ///< transitions_digest
  std::uint64_t faults;       ///< fault_stats.total()
  std::uint64_t metrics;      ///< serve_metrics_digest
};

const GoldenCase kGoldenCases[] = {
    {"plain", [] { return base_config(); },
     0x291c07d2ce6771f7, 0x4f5738a9e2dad652, 0x5a70356521993a44,
     0xa8c7f832281a39c5, 0, 0x29b052cc941c4c75},
    {"queue_cap",
     [] {
       ServiceConfig c = overload_config();
       c.queue_cap = 6;
       return c;
     },
     0xf0484cec763cade1, 0x334e3c5cfac8fc59, 0x9b29d88296f449e3,
     0xa8c7f832281a39c5, 0, 0x0218d52095ee89ee},
    {"priority_shed",
     [] {
       ServiceConfig c = two_class_config();
       c.queue_cap = 4;
       c.shed_policy = ShedPolicy::Priority;
       return c;
     },
     0xfecd86816b596ff9, 0xc603dbb92c81c62e, 0x05f7e5abdd732ac5,
     0xa8c7f832281a39c5, 0, 0x64459fc2d7daef73},
    {"deadline_expiry",
     [] {
       ServiceConfig c = overload_config();
       c.queue_cap = 8;
       c.shed_policy = ShedPolicy::DeadlineAware;
       c.deadline = 300 * kMicrosecond;
       c.expire_queued = true;
       return c;
     },
     0xedb70a778a1a0e9b, 0xee3f210c350db686, 0xdab977dbd067c39f,
     0xa8c7f832281a39c5, 0, 0x23b7261a4579c0dd},
    {"breaker_launch_copy_faults",
     [] {
       ServiceConfig c = faulted_config(
           "launch-fail-rate=0.3,copy-stall-rate=0.2,copy-slow-rate=0.2,"
           "seed=7");
       c.breaker_enabled = true;
       c.breaker.failure_threshold = 3;
       c.breaker.cooldown = 2 * kMillisecond;
       return c;
     },
     0x069f2a70088abfc5, 0x31bdb7027beb995f, 0x8e84a8bc50c8e498,
     0xa8c7f832281a39c5, 16, 0x97641f8805a1f460},
    {"poison_app",
     [] {
       ServiceConfig c = faulted_config("poison-app=3,seed=1");
       c.breaker_enabled = true;
       return c;
     },
     0x6add540d9802bb0c, 0xfb83da513e44ca7b, 0xfc6472efe7516764,
     0xa8c7f832281a39c5, 5, 0x208eec9792c08a7b},
    {"controller",
     [] {
       ServiceConfig c = copy_heavy_config();
       c.controller.enabled = true;
       return c;
     },
     0x44474cc1adc110dd, 0xa0212b7a265f0359, 0xa4833142bc6fd834,
     0x773d95b5adb9bc78, 0, 0x09769dcd79bb9e9d},
    {"memsync",
     [] {
       ServiceConfig c = overload_config();
       c.memory_sync = true;
       return c;
     },
     0xa952f9b2b4eda394, 0x54d1ae24b8ba41bd, 0x6b4bfda188795e32,
     0xa8c7f832281a39c5, 0, 0x509d1390921d31c3},
    {"replayed_arrivals",
     [] {
       ServiceConfig c = two_class_config();
       c.arrivals = {{0, 0},
                     {kMillisecond, 1},
                     {kMillisecond, 0},
                     {3 * kMillisecond, 1},
                     {3 * kMillisecond + 10 * kMicrosecond, 0}};
       return c;
     },
     0x4b4bae0cb2026d38, 0x47e428bb167d2e80, 0xc1ce86f1cc78236f,
     0xa8c7f832281a39c5, 0, 0x8aeac0448cdf1980},
    {"alloc_faults",
     [] { return faulted_config("alloc-fail-rate=0.6,seed=11"); },
     0xd7abbc4a82465e99, 0x64c3b0381165b7ac, 0xd440af8187571ecd,
     0xa8c7f832281a39c5, 287, 0x59b6ce2fdda9c7cf},
    {"offline_smx_throttle",
     [] {
       return faulted_config(
           "offline-smx=6,throttle-period-us=1000,throttle-duty-us=300,"
           "throttle-factor=2,seed=3");
     },
     0xfd5741e06a9c4fcf, 0xc5bab259513d5d88, 0x6570ae2f44fb6cac,
     0xa8c7f832281a39c5, 74, 0x996b026f361b0a16},
    {"degrade",
     [] {
       return faulted_config(
           "degrade-at-us=2000,degrade-copy-factor=3,seed=2");
     },
     0x41a65281eefa375d, 0x9599d543c22fe979, 0x82d6cf9736602100,
     0xa8c7f832281a39c5, 253, 0xf42639edf3fa7608},
    {"sdc",
     [] {
       return faulted_config("sdc-kernel-rate=0.5,sdc-copy-rate=0.2,seed=4");
     },
     0x02999b4dc35eb763, 0x1a18ecb6c3d6d929, 0x020ebf76371fe4de,
     0xa8c7f832281a39c5, 0, 0x0f69861f9a7eb14e},
    {"metrics_off",
     [] {
       ServiceConfig c = overload_config();
       c.collect_metrics = false;
       return c;
     },
     0x24a73a51dd986876, 0x1a18ecb6c3d6d929, 0x020ebf76371fe4de,
     0xa8c7f832281a39c5, 0, 0},
    {"functional",
     [] {
       ServiceConfig c = base_config();
       c.functional = true;
       return c;
     },
     0x291c07d2ce6771f7, 0x4f5738a9e2dad652, 0x5a70356521993a44,
     0xa8c7f832281a39c5, 0, 0x29b052cc941c4c75},
};

TEST(ServeGoldenTest, EveryConfigMatchesItsPins) {
  for (const GoldenCase& g : kGoldenCases) {
    SCOPED_TRACE(g.name);
    const ServeResult r = Service(g.make()).run();
    EXPECT_EQ(report_digest(r.report), g.report)
        << std::hex << "0x" << report_digest(r.report);
    EXPECT_EQ(trace::digest(*r.trace), g.trace)
        << std::hex << "0x" << trace::digest(*r.trace);
    EXPECT_EQ(jobs_digest(r.jobs), g.jobs)
        << std::hex << "0x" << jobs_digest(r.jobs);
    EXPECT_EQ(transitions_digest(r.controller_transitions), g.transitions)
        << std::hex << "0x" << transitions_digest(r.controller_transitions);
    EXPECT_EQ(r.fault_stats.total(), g.faults);
    EXPECT_EQ(serve_metrics_digest(r), g.metrics)
        << std::hex << "0x" << serve_metrics_digest(r);
  }
}

TEST(ServeServiceTest, PlainRunCompletesEverything) {
  Service service(base_config());
  const ServeResult result = service.run();
  const ServeReport& report = result.report;
  EXPECT_GT(report.arrived, 5u);
  EXPECT_EQ(report.completed, report.arrived);
  EXPECT_EQ(report.completed_ok, report.completed);
  EXPECT_EQ(report.shed_queue_full, 0u);
  EXPECT_EQ(report.shed_breaker, 0u);
  EXPECT_EQ(report.timed_out_queued, 0u);
  EXPECT_EQ(report.quarantined, 0u);
  EXPECT_DOUBLE_EQ(report.goodput_per_sec, report.throughput_per_sec);
  EXPECT_DOUBLE_EQ(report.deadline_miss_ratio, 0.0);
  EXPECT_GT(report.trace_digest, 0u);
}

TEST(ServeServiceTest, ReportIsByteIdenticalAcrossRuns) {
  const ServeResult a = Service(overload_config()).run();
  const ServeResult b = Service(overload_config()).run();
  EXPECT_EQ(report_json(a.report), report_json(b.report));
  EXPECT_EQ(report_digest(a.report), report_digest(b.report));
}

TEST(ServeServiceTest, ReportIsByteIdenticalAcrossJobCounts) {
  // Shard four distinct configs over 1 worker and over 8; fold the JSON
  // reports in index order — the bytes must match exactly.
  auto run_config = [](std::size_t i) {
    ServiceConfig config = overload_config();
    config.seed = 10 + i;
    config.queue_cap = 4 + i;
    return report_json(Service(std::move(config)).run().report);
  };
  const auto serial = exec::parallel_map_jobs(1, 4, run_config);
  const auto threaded = exec::parallel_map_jobs(8, 4, run_config);
  ASSERT_EQ(serial.size(), threaded.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], threaded[i]) << "config " << i;
  }
}

TEST(ServeServiceTest, QueueCapShedsUnderOverload) {
  ServiceConfig config = overload_config();
  config.queue_cap = 6;
  const ServeResult result = Service(std::move(config)).run();
  const ServeReport& report = result.report;
  EXPECT_GT(report.shed_queue_full, 0u);
  EXPECT_GT(report.completed, 0u);
  // Conservation identity (also enforced internally by hq_check).
  EXPECT_EQ(report.arrived, report.completed_ok + report.completed_late +
                                report.shed_queue_full + report.shed_breaker +
                                report.timed_out_queued + report.quarantined);
  EXPECT_LE(report.peak_queue_depth, 6u);
  // Shed jobs never consume device time: they have no dispatch timestamp.
  for (const JobRecord& job : result.jobs) {
    if (job.state == JobState::ShedQueueFull) {
      EXPECT_EQ(job.dispatched_at, 0);
      EXPECT_EQ(job.completed_at, 0);
    }
  }
}

TEST(ServeServiceTest, RaisingQueueCapNeverDecreasesCompleted) {
  std::uint64_t previous = 0;
  for (std::size_t cap : {4u, 8u, 16u, 0u}) {  // 0 = unbounded
    ServiceConfig config = overload_config();
    config.queue_cap = cap;
    const ServeReport report = Service(std::move(config)).run().report;
    EXPECT_GE(report.completed, previous) << "cap " << cap;
    previous = report.completed;
  }
}

TEST(ServeServiceTest, DeadlinesAreAccountingOnlyWithoutExpiry) {
  // With expire_queued off and drop-tail shedding, the deadline changes
  // bookkeeping but provably not the schedule.
  ServiceConfig no_deadline = overload_config();
  ServiceConfig tight = overload_config();
  tight.deadline = 500 * kMicrosecond;  // ~ the mean turnaround under load
  const ServeReport a = Service(std::move(no_deadline)).run().report;
  const ServeReport b = Service(std::move(tight)).run().report;
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.completed, b.completed_ok + b.completed_late);
  EXPECT_GT(b.completed_late, 0u);  // the overloaded tail misses 500 us
  EXPECT_LT(b.goodput_per_sec, b.throughput_per_sec);
  EXPECT_GT(b.deadline_miss_ratio, 0.0);
}

TEST(ServeServiceTest, ExpireQueuedTimesOutStaleJobs) {
  ServiceConfig config = overload_config();
  config.deadline = 300 * kMicrosecond;  // queue waits routinely exceed this
  config.expire_queued = true;
  const ServeReport report = Service(std::move(config)).run().report;
  EXPECT_GT(report.timed_out_queued, 0u);
  EXPECT_EQ(report.arrived, report.completed_ok + report.completed_late +
                                report.shed_queue_full + report.shed_breaker +
                                report.timed_out_queued + report.quarantined);
}

TEST(ServeServiceTest, BreakerTripsUnderLaunchFaultsAndShedsWork) {
  ServiceConfig config = overload_config();
  config.breaker_enabled = true;
  config.breaker.failure_threshold = 3;
  config.breaker.cooldown = 2 * kMillisecond;
  // Every launch fails (transiently, below the retry budget), so breakers
  // trip fast; probes re-fail and re-open.
  config.fault_plan =
      fault::parse_fault_plan("launch-fail-rate=1.0,seed=5").value();
  const ServeResult result = Service(std::move(config)).run();
  const ServeReport& report = result.report;
  EXPECT_GT(report.breaker_trips, 0u);
  EXPECT_GT(report.shed_breaker, 0u);
  EXPECT_GT(report.faults_injected, 0u);
  EXPECT_EQ(report.arrived, report.completed_ok + report.completed_late +
                                report.shed_queue_full + report.shed_breaker +
                                report.timed_out_queued + report.quarantined);
  // Breaker-shed jobs never touched the device.
  for (const JobRecord& job : result.jobs) {
    if (job.state == JobState::ShedBreaker) {
      EXPECT_EQ(job.dispatched_at, 0);
    }
  }
}

TEST(ServeServiceTest, BreakerRecoversViaHalfOpenProbe) {
  ServiceConfig config = overload_config();
  config.window = 20 * kMillisecond;
  config.breaker_enabled = true;
  config.breaker.failure_threshold = 2;
  config.breaker.cooldown = kMillisecond;
  // Moderate fault rate: bursts of launch failures trip the breaker, quiet
  // stretches let a half-open probe succeed and close it again.
  config.fault_plan =
      fault::parse_fault_plan("launch-fail-rate=0.1,seed=3").value();
  const ServeReport report = Service(std::move(config)).run().report;
  EXPECT_GT(report.breaker_trips, 0u);
  EXPECT_GT(report.breaker_probes, 0u);
  ASSERT_EQ(report.classes.size(), 1u);
  EXPECT_EQ(report.classes[0].breaker_final_state, "closed");
  EXPECT_GT(report.completed, 0u);
}

TEST(ServeServiceTest, ControllerEngagesUnderDmaContention) {
  ServiceConfig config = copy_heavy_config();
  config.controller.enabled = true;
  const ServeResult result = Service(std::move(config)).run();
  const ServeReport& report = result.report;
  EXPECT_GT(report.controller_engagements, 0u);
  EXPECT_GT(report.pseudo_burst_jobs, 0u);
  EXPECT_FALSE(result.controller_transitions.empty());
  EXPECT_EQ(report.completed, report.arrived);
}

TEST(ServeServiceTest, ArrivalReplayIsExact) {
  ServiceConfig config = base_config();
  config.arrivals = {{0, 0}, {kMillisecond, 0}, {kMillisecond, 0},
                     {3 * kMillisecond, 0}};
  const ServeReport report = Service(std::move(config)).run().report;
  EXPECT_EQ(report.arrived, 4u);
  EXPECT_EQ(report.completed, 4u);
}

TEST(ServeServiceTest, PriorityShedPolicyProtectsImportantClass) {
  ServiceConfig config = two_class_config();
  config.queue_cap = 4;
  config.shed_policy = ShedPolicy::Priority;
  const ServeResult result = Service(std::move(config)).run();
  const ServeReport& report = result.report;
  ASSERT_EQ(report.classes.size(), 2u);
  EXPECT_GT(report.shed_queue_full, 0u);
  const ClassStats& plain = report.classes[0];
  const ClassStats& vip = report.classes[1];
  ASSERT_GT(plain.arrived, 0u);
  ASSERT_GT(vip.arrived, 0u);
  const double plain_shed_ratio = static_cast<double>(plain.shed_queue_full) /
                                  static_cast<double>(plain.arrived);
  const double vip_shed_ratio = static_cast<double>(vip.shed_queue_full) /
                                static_cast<double>(vip.arrived);
  EXPECT_LT(vip_shed_ratio, plain_shed_ratio);
}

TEST(ServeServiceTest, MetricsExportServeCounters) {
  ServiceConfig config = overload_config();
  config.queue_cap = 6;
  const ServeResult result = Service(std::move(config)).run();
  ASSERT_NE(result.metrics, nullptr);
  const std::string prom = obs::prometheus_text(*result.metrics);
  EXPECT_NE(prom.find("serve_arrived"), std::string::npos);
  EXPECT_NE(prom.find("serve_queue_wait_ns"), std::string::npos);
  EXPECT_NE(prom.find("serve_queue_depth"), std::string::npos);
  EXPECT_NE(prom.find("serve_shed_queue_full"), std::string::npos);
}

TEST(ServeServiceTest, ValidatesConfig) {
  {
    ServiceConfig config;  // no classes
    EXPECT_THROW(Service(std::move(config)).run(), hq::Error);
  }
  {
    ServiceConfig config = base_config();
    config.window = 0;
    EXPECT_THROW(Service(std::move(config)).run(), hq::Error);
  }
  {
    ServiceConfig config = base_config();
    config.mean_interarrival = 0;
    EXPECT_THROW(Service(std::move(config)).run(), hq::Error);
  }
  {
    ServiceConfig config = base_config();
    config.num_streams = 0;
    EXPECT_THROW(Service(std::move(config)).run(), hq::Error);
  }
  {
    ServiceConfig config = base_config();
    config.expire_queued = true;  // needs a deadline
    EXPECT_THROW(Service(std::move(config)).run(), hq::Error);
  }
  {
    ServiceConfig config = base_config();
    config.arrivals = {{10, 0}, {5, 0}};  // times decrease
    EXPECT_THROW(Service(std::move(config)).run(), hq::Error);
  }
  {
    ServiceConfig config = base_config();
    config.arrivals = {{0, 7}};  // class out of range
    EXPECT_THROW(Service(std::move(config)).run(), hq::Error);
  }
}

TEST(ServeServiceTest, CrashAndFlapPlansNeedFleetMode) {
  // A down device would strand its jobs in ShedFailoverExhausted, which a
  // single-device report cannot account; run() says so instead of
  // silently ignoring the plan.
  for (const char* plan : {"crash-at-us=3000,seed=1",
                           "flap-period-us=4000,flap-down-us=500,seed=1"}) {
    SCOPED_TRACE(plan);
    try {
      Service(faulted_config(plan)).run();
      FAIL() << "a crash/flap plan must throw";
    } catch (const hq::Error& e) {
      EXPECT_NE(std::string(e.what()).find("fleet"), std::string::npos)
          << e.what();
    }
  }
  // Degradation without downtime still runs on one device.
  EXPECT_NO_THROW(
      Service(faulted_config("degrade-at-us=2000,degrade-copy-factor=3"))
          .run());
}

TEST(ServeServiceTest, JobStateNames) {
  EXPECT_EQ(std::string(job_state_name(JobState::CompletedOk)),
            "completed-ok");
  EXPECT_EQ(std::string(job_state_name(JobState::ShedQueueFull)),
            "shed-queue-full");
  EXPECT_EQ(std::string(job_state_name(JobState::TimedOutQueued)),
            "timed-out-queued");
  EXPECT_EQ(std::string(job_state_name(JobState::Quarantined)), "quarantined");
}

// --- open streaming workloads ----------------------------------------------
// A Service with every overload feature off (unbounded queue and inflight,
// no deadlines, controller and breaker disabled) and no metrics: the plain
// streaming workload of the paper's Section VI future work.

// Golden values for base_config(); see GoldenTraceDigestIsPinned.
constexpr std::uint64_t kGoldenStreamingDigest = 0x4F5738A9E2DAD652ull;
constexpr std::uint64_t kGoldenStreamingAdmitted = 18;

ServiceConfig streaming_config() {
  ServiceConfig config = base_config();
  config.collect_metrics = false;
  return config;
}

TEST(StreamingTest, AdmitsAndCompletesEverything) {
  const ServeReport r = Service(streaming_config()).run().report;
  EXPECT_GT(r.arrived, 5u);
  EXPECT_EQ(r.completed, r.arrived);
  EXPECT_GT(r.throughput_per_sec, 0.0);
  EXPECT_GT(r.mean_turnaround, 0);
  EXPECT_GE(r.p95_turnaround, r.mean_turnaround);
  EXPECT_GE(r.max_turnaround, r.p95_turnaround);
  EXPECT_GT(r.energy, 0.0);
  EXPECT_GT(r.energy_per_completed, 0.0);
}

TEST(StreamingTest, DeterministicPerSeed) {
  const ServeReport a = Service(streaming_config()).run().report;
  const ServeReport b = Service(streaming_config()).run().report;
  EXPECT_EQ(a.arrived, b.arrived);
  EXPECT_EQ(a.mean_turnaround, b.mean_turnaround);
  EXPECT_DOUBLE_EQ(a.energy, b.energy);

  ServiceConfig seeded = streaming_config();
  seeded.seed = 99;
  const ServeReport c = Service(std::move(seeded)).run().report;
  EXPECT_NE(a.arrived, c.arrived);  // different arrival sequence
}

TEST(StreamingTest, MoreStreamsReduceTurnaround) {
  ServiceConfig narrow = streaming_config();
  narrow.num_streams = 1;
  ServiceConfig wide = streaming_config();
  wide.num_streams = 16;
  const ServeReport serial = Service(std::move(narrow)).run().report;
  const ServeReport concurrent = Service(std::move(wide)).run().report;
  // Same arrival sequence (same seed); queueing delay shrinks with streams.
  EXPECT_EQ(serial.arrived, concurrent.arrived);
  EXPECT_LT(concurrent.mean_turnaround, serial.mean_turnaround);
  EXPECT_LE(concurrent.total_time, serial.total_time);
}

TEST(StreamingTest, OverloadDrainsAfterWindowCloses) {
  // Arrivals far faster than service: the system must still drain and
  // complete every admitted task after the window closes.
  ServiceConfig config = streaming_config();
  config.mean_interarrival = 50 * kMicrosecond;
  config.window = 5 * kMillisecond;
  config.num_streams = 2;
  const ServeReport r = Service(config).run().report;
  EXPECT_GT(r.arrived, 50u);
  EXPECT_EQ(r.completed, r.arrived);
  EXPECT_GT(r.total_time, config.window);  // drain extends the run
}

TEST(StreamingTest, MixedApplicationsRun) {
  ServiceConfig config = streaming_config();
  SyntheticApp::Spec heavy;
  heavy.name = "heavy";
  heavy.num_kernels = 10;
  heavy.blocks = 208;
  config.classes.push_back(
      {fw::WorkloadItem{
           "heavy", [heavy] { return std::make_unique<SyntheticApp>(heavy); }},
       0});
  const ServeReport r = Service(std::move(config)).run().report;
  EXPECT_EQ(r.completed, r.arrived);
}

TEST(StreamingTest, EmptyMixThrows) {
  EXPECT_THROW(Service(ServiceConfig{}).run(), hq::Error);
}

TEST(StreamingTest, ConfigValidationReportsStructuredErrors) {
  try {
    ServiceConfig{}.validate();
    FAIL() << "empty class list must throw";
  } catch (const hq::Error& e) {
    EXPECT_NE(std::string(e.what()).find("classes must not be empty"),
              std::string::npos);
  }
  ServiceConfig config = streaming_config();
  config.num_streams = 0;
  try {
    config.validate();
    FAIL() << "num_streams = 0 must throw";
  } catch (const hq::Error& e) {
    EXPECT_NE(std::string(e.what()).find("num_streams"), std::string::npos);
  }
  // A valid config passes and still runs.
  EXPECT_NO_THROW(streaming_config().validate());
}

TEST(StreamingTest, GoldenTraceDigestIsPinned) {
  // Pinned fingerprint of the simulated schedule for the canonical config.
  // A change here means the streaming schedule moved for everyone — bump it
  // only for intentional scheduler/simulator changes, never to silence an
  // accidental diff. (Value asserted twice to catch run-to-run flake.)
  const ServeReport a = Service(streaming_config()).run().report;
  const ServeReport b = Service(streaming_config()).run().report;
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.trace_digest, kGoldenStreamingDigest);
  EXPECT_EQ(a.arrived, kGoldenStreamingAdmitted);
}

TEST(StreamingTest, HigherLoadRaisesOccupancy) {
  ServiceConfig light = streaming_config();
  light.mean_interarrival = 4 * kMillisecond;
  ServiceConfig heavy = streaming_config();
  heavy.mean_interarrival = 250 * kMicrosecond;
  const ServeReport low = Service(std::move(light)).run().report;
  const ServeReport high = Service(std::move(heavy)).run().report;
  EXPECT_GT(high.average_occupancy, low.average_occupancy);
  EXPECT_GT(high.throughput_per_sec, low.throughput_per_sec);
}

}  // namespace
}  // namespace hq::serve
