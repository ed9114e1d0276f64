// hqfuzz — differential / metamorphic fuzzer for the Hyper-Q simulator.
//
// Generates seeded random workloads, runs each under several scheduling
// configurations (Hyper-Q, serialized, Fermi single-queue) with the online
// invariant checker attached, and validates the metamorphic oracles
// described in check/fuzzer.hpp. Exit code 0 = every iteration clean,
// 1 = a check failed, 2 = usage error. A rate flag that no iteration of
// the run reads (say --chaos-rate without fleet cases), more than one
// --*-case-seed, and a replay given a flag it ignores (--seed, --iters,
// --serve-iters, --fleet-iters, --jobs, --verbose) are usage errors.
//
// Each failing check prints its case seed and its case: the harness
// summary, or the serve/fleet config as codec text. --*-case-seed reruns a
// seed; a config's text replays through the same check without its seed's
// draw: Fuzzer::check_chaos(seed, parse_fleet_case(text)) (check/fuzzer.hpp).
//
// Examples:
//   hqfuzz --seed 1 --iters 100
//   hqfuzz --seed 1 --iters 300 --jobs 0      (all hardware threads,
//                                              identical output to --jobs 1)
//   hqfuzz --case-seed 1234567890             (replay one failing case)
//   hqfuzz --seed 1 --iters 50 --fault-rate 0.5   (fault-mode oracles on)
//   hqfuzz --seed 1 --iters 0 --serve-iters 50    (serving-mode oracles)
//   hqfuzz --serve-case-seed 99                   (replay one serve case)
//   hqfuzz --seed 1 --iters 0 --fleet-iters 50    (fleet-mode oracles)
//   hqfuzz --seed 1 --iters 0 --fleet-iters 50 --chaos-rate 0.5 --sdc-rate 0.5
//                                  (plus the chaos and SDC layers)
//   hqfuzz --fleet-case-seed 99 --chaos-rate 0.5  (replay one chaos case)
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include "check/fuzzer.hpp"
#include "tools/cli.hpp"

namespace {

// Case seeds are full 64-bit values (Rng::next_u64), so they routinely
// exceed LLONG_MAX; parse them unsigned rather than via ArgParser::get_int.
std::optional<std::uint64_t> parse_u64(const std::string& text) {
  if (text.empty() || text[0] == '-') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return std::nullopt;
  return static_cast<std::uint64_t>(value);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hq;
  tools::ArgParser args;
  args.add_option("seed", "master seed; case seeds derive from it", "1");
  args.add_option("iters", "number of fuzz iterations", "100");
  args.add_option("jobs",
                  "worker threads for the iteration loop (0 = all hardware "
                  "threads); output is identical at any job count",
                  "1");
  args.add_option("case-seed",
                  "run exactly one case with this seed (replay mode)", "");
  args.add_option("serve-iters",
                  "serving-mode iterations after the harness cases (0 = off)",
                  "0");
  args.add_option("serve-case-seed",
                  "run exactly one serving-mode case with this seed", "");
  args.add_option("fleet-iters",
                  "fleet-mode iterations after the serving cases (0 = off)",
                  "0");
  args.add_option("fleet-case-seed",
                  "run exactly one fleet-mode case with this seed", "");
  args.add_option("chaos-rate",
                  "per-device lifecycle-fault probability in [0,1]; > 0 adds "
                  "the chaos oracles to every fleet case",
                  "0");
  args.add_option("sdc-rate",
                  "per-device silent-data-corruption probability in [0,1]; "
                  "> 0 adds the SDC oracles to every fleet case",
                  "0");
  args.add_option("fault-rate",
                  "fault-plan intensity in [0,1]; > 0 adds the fault-mode "
                  "oracles to every harness case",
                  "0");
  args.add_flag("verbose", "print every case as it runs");
  args.add_flag("help", "show this help");

  if (!args.parse(argc, argv) || args.get_flag("help")) {
    if (!args.error().empty()) {
      std::fprintf(stderr, "error: %s\n", args.error().c_str());
    }
    std::fprintf(stderr, "%s", args.usage("hqfuzz").c_str());
    return args.get_flag("help") ? 0 : 2;
  }

  check::FuzzOptions options;
  for (const auto& [flag, rate] : {std::pair{"fault-rate", &options.fault_rate},
                                   std::pair{"chaos-rate", &options.chaos_rate},
                                   std::pair{"sdc-rate", &options.sdc_rate}}) {
    const auto value = args.get_double(flag, 0.0, 1.0);
    if (!value) {
      std::fprintf(stderr, "error: %s\n", args.error().c_str());
      return 2;
    }
    *rate = *value;
  }

  // The replay flags, in FuzzMode order; at most one may be given.
  const char* const replay_flags[] = {"case-seed", "serve-case-seed",
                                      "fleet-case-seed"};
  std::optional<check::FuzzMode> replay;
  for (int m = 0; m < 3; ++m) {
    if (!args.provided(replay_flags[m])) continue;
    if (replay) {
      std::fprintf(stderr,
                   "error: give at most one of --case-seed, "
                   "--serve-case-seed, --fleet-case-seed\n");
      return 2;
    }
    replay = static_cast<check::FuzzMode>(m);
  }

  if (replay) {
    // A replay runs one case: the loop's flags would be silently ignored.
    for (const char* flag :
         {"seed", "iters", "serve-iters", "fleet-iters", "jobs", "verbose"}) {
      if (args.provided(flag)) {
        std::fprintf(stderr, "error: --%s does not apply to a --%s replay\n",
                     flag, replay_flags[static_cast<int>(*replay)]);
        return 2;
      }
    }
  } else {
    const auto seed = parse_u64(args.get("seed"));
    const auto iters = args.get_int("iters");
    const auto serve_iters = args.get_int("serve-iters");
    const auto fleet_iters = args.get_int("fleet-iters");
    const auto jobs = args.get_int("jobs");
    if (!seed || !iters || *iters < 0 || !serve_iters || *serve_iters < 0 ||
        !fleet_iters || *fleet_iters < 0 || !jobs || *jobs < 0) {
      std::fprintf(stderr,
                   "error: bad --seed/--iters/--serve-iters/--fleet-iters/"
                   "--jobs\n");
      return 2;
    }
    if (*iters == 0 && *serve_iters == 0 && *fleet_iters == 0) {
      std::fprintf(stderr,
                   "error: need --iters, --serve-iters, or --fleet-iters > 0\n");
      return 2;
    }
    options.seed = *seed;
    options.iterations = static_cast<int>(*iters);
    options.serve_iterations = static_cast<int>(*serve_iters);
    options.fleet_iterations = static_cast<int>(*fleet_iters);
    options.jobs = static_cast<int>(*jobs);
  }

  // A rate that no iteration of this run reads is an error, not a no-op.
  const bool harness =
      replay ? *replay == check::FuzzMode::Harness : options.iterations > 0;
  const bool fleet =
      replay ? *replay == check::FuzzMode::Fleet : options.fleet_iterations > 0;
  if (args.provided("fault-rate") && !harness) {
    std::fprintf(stderr,
                 "error: --fault-rate needs harness cases (--iters > 0 or "
                 "--case-seed)\n");
    return 2;
  }
  if ((args.provided("chaos-rate") || args.provided("sdc-rate")) && !fleet) {
    std::fprintf(stderr,
                 "error: --chaos-rate and --sdc-rate need fleet cases "
                 "(--fleet-iters > 0 or --fleet-case-seed)\n");
    return 2;
  }

  check::FuzzReport report;
  if (replay) {
    const char* flag = replay_flags[static_cast<int>(*replay)];
    const auto case_seed = parse_u64(args.get(flag));
    if (!case_seed) {
      std::fprintf(stderr, "error: --%s needs an unsigned integer\n", flag);
      return 2;
    }
    std::string summary;
    report.failures =
        check::Fuzzer::run_iteration(*replay, *case_seed, options, &summary);
    report.iterations_run = 1;
    std::printf("case %s\n", summary.c_str());
  } else {
    const bool verbose = args.get_flag("verbose");
    report = check::Fuzzer(options).run(
        [verbose](int i, std::uint64_t case_seed, const std::string& summary,
                  bool clean) {
          if (verbose) {
            std::printf("[%4d] %s: %s\n", i, clean ? "ok" : "FAIL",
                        summary.c_str());
          } else if (!clean) {
            std::printf("[%4d] FAIL seed=%llu\n", i,
                        static_cast<unsigned long long>(case_seed));
          }
        });
  }

  std::printf("%s\n", report.to_string().c_str());
  return report.ok() ? 0 : 1;
}
