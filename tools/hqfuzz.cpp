// hqfuzz — differential / metamorphic fuzzer for the Hyper-Q simulator.
//
// Generates seeded random workloads, runs each under several scheduling
// configurations (Hyper-Q, serialized, Fermi single-queue) with the online
// invariant checker attached, and validates the metamorphic oracles
// described in check/fuzzer.hpp. Exit code 0 = every iteration clean.
//
// Examples:
//   hqfuzz --seed 1 --iters 100
//   hqfuzz --seed 1 --iters 300 --jobs 0      (all hardware threads,
//                                              identical output to --jobs 1)
//   hqfuzz --case-seed 1234567890 --verbose   (replay one failing case)
//   hqfuzz --seed 1 --iters 50 --fault-rate 0.5   (fault-mode oracles on)
//   hqfuzz --seed 1 --iters 0 --serve-iters 50    (serving-mode oracles)
//   hqfuzz --serve-case-seed 99 --verbose         (replay one serve case)
//   hqfuzz --seed 1 --iters 0 --fleet-iters 50    (fleet-mode oracles)
//   hqfuzz --fleet-case-seed 99 --verbose         (replay one fleet case)
//   hqfuzz --seed 1 --iters 0 --fleet-iters 50 --chaos-rate 0.5
//                                                 (device-lifecycle chaos)
//   hqfuzz --fleet-case-seed 99 --chaos-rate 0.5  (replay one chaos case)
//   hqfuzz --seed 1 --iters 0 --fleet-iters 50 --sdc-rate 0.5
//                                                 (SDC integrity oracles)
//   hqfuzz --fleet-case-seed 99 --sdc-rate 0.5    (replay one SDC case)
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <optional>
#include <string>

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
                  "serving-mode iterations appended after the harness cases "
                  "(admission/deadline/breaker oracles; 0 = off)",
                  "0");
  args.add_option("serve-case-seed",
                  "run exactly one serving-mode case with this seed", "");
  args.add_option("fleet-iters",
                  "fleet-mode iterations appended after the serving cases "
                  "(determinism, conservation, placement permutation "
                  "oracles; 0 = off)",
                  "0");
  args.add_option("fleet-case-seed",
                  "run exactly one fleet-mode case with this seed", "");
  args.add_option("chaos-rate",
                  "per-device lifecycle-fault probability in [0,1]; > 0 adds "
                  "the fleet chaos oracles (crash-schedule conservation, "
                  "failover determinism, inert-knob byte identity, "
                  "all-devices-dead drain) to every fleet iteration",
                  "0");
  args.add_option("sdc-rate",
                  "per-device silent-data-corruption probability in [0,1]; "
                  "> 0 adds the SDC integrity oracles (re-execution "
                  "conservation, detected+missed == injected partition, "
                  "inert-plan byte identity, blocklist placement freeze) to "
                  "every fleet iteration",
                  "0");
  args.add_option("fault-rate",
                  "fault-plan intensity in [0,1]; > 0 adds the fault-mode "
                  "oracles (zero-perturbation, faulted determinism, "
                  "functional digest equality) to every case",
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

  double fault_rate = 0.0;
  {
    errno = 0;
    char* end = nullptr;
    const std::string text = args.get("fault-rate");
    fault_rate = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0' || fault_rate < 0.0 ||
        fault_rate > 1.0) {
      std::fprintf(stderr, "error: --fault-rate needs a number in [0,1]\n");
      return 2;
    }
  }

  double chaos_rate = 0.0;
  {
    errno = 0;
    char* end = nullptr;
    const std::string text = args.get("chaos-rate");
    chaos_rate = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0' || chaos_rate < 0.0 ||
        chaos_rate > 1.0) {
      std::fprintf(stderr, "error: --chaos-rate needs a number in [0,1]\n");
      return 2;
    }
  }

  double sdc_rate = 0.0;
  {
    errno = 0;
    char* end = nullptr;
    const std::string text = args.get("sdc-rate");
    sdc_rate = std::strtod(text.c_str(), &end);
    if (errno != 0 || end == nullptr || *end != '\0' || sdc_rate < 0.0 ||
        sdc_rate > 1.0) {
      std::fprintf(stderr, "error: --sdc-rate needs a number in [0,1]\n");
      return 2;
    }
  }

  if (args.provided("fleet-case-seed")) {
    const auto case_seed = parse_u64(args.get("fleet-case-seed"));
    if (!case_seed) {
      std::fprintf(stderr,
                   "error: --fleet-case-seed needs an unsigned integer\n");
      return 2;
    }
    std::string summary;
    auto problems = check::Fuzzer::run_fleet_case(*case_seed, &summary);
    if (chaos_rate > 0) {
      std::string chaos_summary;
      auto chaos = check::Fuzzer::run_fleet_chaos_case(*case_seed, chaos_rate,
                                                       &chaos_summary);
      summary = std::move(chaos_summary);
      problems.insert(problems.end(),
                      std::make_move_iterator(chaos.begin()),
                      std::make_move_iterator(chaos.end()));
    }
    if (sdc_rate > 0) {
      std::string sdc_summary;
      auto sdc = check::Fuzzer::run_fleet_sdc_case(*case_seed, sdc_rate,
                                                   &sdc_summary);
      summary = std::move(sdc_summary);
      problems.insert(problems.end(),
                      std::make_move_iterator(sdc.begin()),
                      std::make_move_iterator(sdc.end()));
    }
    std::printf("case %s\n", summary.c_str());
    for (const auto& p : problems) std::printf("  - %s\n", p.c_str());
    std::printf("%s\n", problems.empty() ? "clean" : "FAILED");
    return problems.empty() ? 0 : 1;
  }

  if (args.provided("serve-case-seed")) {
    const auto case_seed = parse_u64(args.get("serve-case-seed"));
    if (!case_seed) {
      std::fprintf(stderr,
                   "error: --serve-case-seed needs an unsigned integer\n");
      return 2;
    }
    std::string summary;
    const auto problems = check::Fuzzer::run_serve_case(*case_seed, &summary);
    std::printf("case %s\n", summary.c_str());
    for (const auto& p : problems) std::printf("  - %s\n", p.c_str());
    std::printf("%s\n", problems.empty() ? "clean" : "FAILED");
    return problems.empty() ? 0 : 1;
  }

  if (args.provided("case-seed")) {
    const auto case_seed = parse_u64(args.get("case-seed"));
    if (!case_seed) {
      std::fprintf(stderr, "error: --case-seed needs an unsigned integer\n");
      return 2;
    }
    std::string summary;
    const auto problems =
        check::Fuzzer::run_case(*case_seed, fault_rate, &summary);
    std::printf("case %s\n", summary.c_str());
    for (const auto& p : problems) std::printf("  - %s\n", p.c_str());
    std::printf("%s\n", problems.empty() ? "clean" : "FAILED");
    return problems.empty() ? 0 : 1;
  }

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

  check::FuzzOptions options;
  options.seed = *seed;
  options.iterations = static_cast<int>(*iters);
  options.serve_iterations = static_cast<int>(*serve_iters);
  options.fleet_iterations = static_cast<int>(*fleet_iters);
  options.jobs = static_cast<int>(*jobs);
  options.fault_rate = fault_rate;
  options.chaos_rate = chaos_rate;
  options.sdc_rate = sdc_rate;
  const bool verbose = args.get_flag("verbose");

  check::Fuzzer fuzzer(options);
  const auto report = fuzzer.run(
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

  std::printf("%s\n", report.to_string().c_str());
  return report.ok() ? 0 : 1;
}
