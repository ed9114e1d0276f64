// hqfuzz — differential / metamorphic fuzzer for the Hyper-Q simulator.
//
// Generates seeded random workloads, runs each under several scheduling
// configurations (Hyper-Q, serialized, Fermi single-queue) with the online
// invariant checker attached, and validates the metamorphic oracles
// described in check/fuzzer.hpp. Exit code 0 = every iteration clean,
// 1 = a check failed, 2 = usage error: a flag that this run would ignore
// (a rate no case reads, a loop flag in a replay) or two --*-case-seeds.
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
#include <cstdio>
#include <optional>
#include <string>

#include "check/fuzzer.hpp"
#include "tools/cli.hpp"

int main(int argc, char** argv) {
  using namespace hq;
  using tools::value;
  // Mode bits: the loop, a replay per FuzzMode, and the case kinds a run
  // holds (the rate flags read them).
  constexpr unsigned kLoop = 1, kReplay = 2, kHarness = 16, kFleet = 32;
  constexpr codec::Spec kCount{.min = 0};
  constexpr codec::Spec kRate{.min = 0, .max = 1};
  check::FuzzOptions options;
  std::optional<std::uint64_t> replay_seed[3];  // in FuzzMode order
  bool verbose = false;
  tools::FlagTable flags(
      {
          {"seed", "master seed; case seeds derive from it", "1",
           value(&options.seed), kLoop},
          {"iters", "number of fuzz iterations", "100",
           value(&options.iterations, kCount), kLoop},
          {"jobs",
           "worker threads for the iteration loop (0 = all hardware "
           "threads); output is identical at any job count",
           "1", value(&options.jobs, kCount), kLoop},
          {"case-seed", "run exactly one case with this seed (replay mode)",
           nullptr, value(&replay_seed[0])},
          {"serve-iters",
           "serving-mode iterations after the harness cases (0 = off)", "0",
           value(&options.serve_iterations, kCount), kLoop},
          {"serve-case-seed",
           "run exactly one serving-mode case with this seed", nullptr,
           value(&replay_seed[1])},
          {"fleet-iters",
           "fleet-mode iterations after the serving cases (0 = off)", "0",
           value(&options.fleet_iterations, kCount), kLoop},
          {"fleet-case-seed", "run exactly one fleet-mode case with this seed",
           nullptr, value(&replay_seed[2])},
          {"chaos-rate",
           "per-device lifecycle-fault probability in [0,1]; > 0 adds the "
           "chaos oracles to every fleet case",
           "0", value(&options.chaos_rate, kRate), kFleet},
          {"sdc-rate",
           "per-device silent-data-corruption probability in [0,1]; > 0 adds "
           "the SDC oracles to every fleet case",
           "0", value(&options.sdc_rate, kRate), kFleet},
          {"fault-rate",
           "fault-plan intensity in [0,1]; > 0 adds the fault-mode oracles "
           "to every harness case",
           "0", value(&options.fault_rate, kRate), kHarness},
          {"verbose", "print every case as it runs", nullptr, value(&verbose),
           kLoop},
      },
      {"the fuzz loop", "a --case-seed replay", "a --serve-case-seed replay",
       "a --fleet-case-seed replay",
       "harness cases: --iters > 0 or --case-seed",
       "fleet cases: --fleet-iters > 0 or --fleet-case-seed"});
  if (!flags.parse(argc, argv) || flags.help()) {
    return flags.usage_exit("hqfuzz");
  }

  std::optional<check::FuzzMode> replay;
  for (int m = 0; m < 3; ++m) {
    if (!replay_seed[m]) continue;
    if (replay) {
      return tools::usage_error(
          "give at most one of --case-seed, --serve-case-seed, "
          "--fleet-case-seed");
    }
    replay = static_cast<check::FuzzMode>(m);
  }
  const bool harness =
      replay ? *replay == check::FuzzMode::Harness : options.iterations > 0;
  const bool fleet =
      replay ? *replay == check::FuzzMode::Fleet : options.fleet_iterations > 0;
  const unsigned mode = replay ? kReplay << static_cast<int>(*replay) : kLoop;
  if (!flags.check_modes(mode | (harness ? kHarness : 0) |
                         (fleet ? kFleet : 0))) {
    return tools::usage_error(flags.error());
  }
  if (!replay && options.iterations == 0 && options.serve_iterations == 0 &&
      options.fleet_iterations == 0) {
    return tools::usage_error(
        "need --iters, --serve-iters, or --fleet-iters > 0");
  }

  check::FuzzReport report;
  if (replay) {
    std::string summary;
    report.failures = check::Fuzzer::run_iteration(
        *replay, *replay_seed[static_cast<int>(*replay)], options, &summary);
    report.iterations_run = 1;
    std::printf("case %s\n", summary.c_str());
  } else {
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
