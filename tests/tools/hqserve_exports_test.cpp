// End-to-end checks of the built hqserve, each run twice: a 4-device fleet
// run with every observability export (--metrics, --prom, --trace,
// --snapshot-file) and the JSON report, and a one-device run with the
// metrics exports and the JSON and text reports. Each output must be
// non-empty, byte-identical across the two runs, and every JSON output
// (each snapshot line included) must be well formed; the one-device report
// must not change when the exports are on. Also: a queue-cap sweep prints
// the same bytes at 1 and 4 jobs, and flag combinations hqserve cannot
// honour fail instead of being ignored. HQ_HQSERVE_PATH is the binary's
// path, set by CMake.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "tests/common/json_check.hpp"
#include "tests/common/run_command.hpp"

namespace hq::tools {
namespace {

namespace fs = std::filesystem;

constexpr const char* kFleet =
    " --mix gaussian --size 64 --devices 4 --placement least-loaded";
constexpr const char* kObs =
    " --metrics fm.json --prom fm.prom --trace ft.json"
    " --snapshot-interval 50ms --snapshot-file fs.jsonl";
constexpr const char* kOutputs[] = {"fm.json", "fm.prom", "ft.json",
                                    "fs.jsonl", "report.json"};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Runs `hqserve <args>` inside a fresh `dir`; the output is its stdout
/// unless `args` redirects it.
hq::testing::CommandOutcome hqserve(const fs::path& dir,
                                    const std::string& args) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  return hq::testing::run_command("cd '" + dir.string() + "' && '" +
                                  HQ_HQSERVE_PATH + "'" + args);
}

TEST(HqserveExportsTest, FleetExportsAreWellFormedAndByteStable) {
  const fs::path root = fs::current_path() / "hqserve_exports";
  const fs::path first = root / "run1";
  const fs::path second = root / "run2";
  const std::string args =
      std::string(kFleet) + kObs + " --report json > report.json";
  ASSERT_EQ(hqserve(first, args).exit_code, 0) << args;
  ASSERT_EQ(hqserve(second, args).exit_code, 0) << args;

  for (const char* name : kOutputs) {
    const std::string bytes = slurp(first / name);
    EXPECT_FALSE(bytes.empty()) << name;
    EXPECT_TRUE(bytes == slurp(second / name))
        << name << " differs between two identical runs";
  }
  for (const char* name : {"fm.json", "ft.json", "report.json"}) {
    EXPECT_TRUE(hq::testing::json_well_formed(slurp(first / name))) << name;
  }
  std::istringstream lines(slurp(first / "fs.jsonl"));
  std::string line;
  int snapshots = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(hq::testing::json_well_formed(line)) << line;
    ++snapshots;
  }
  EXPECT_GT(snapshots, 0);
  fs::remove_all(root);
}

TEST(HqserveExportsTest, OneDeviceExportsAreByteStableAndZeroPerturbation) {
  const std::string serve =
      " --mix gaussian,needle --size 64 --window-ms 10 --mean-gap-us 150"
      " --streams 2 --max-inflight 2 --queue-cap 8";
  const std::string exports =
      serve + " --metrics m.json --prom m.prom --report json > r.json";
  const fs::path root = fs::current_path() / "hqserve_one_device";
  const std::string runs[][2] = {
      {"exports1", exports},
      {"exports2", exports},
      {"plain", serve + " --report json > r.json"},
      {"text1", serve + " --report text > r.txt"},
      {"text2", serve + " --report text > r.txt"},
  };
  for (const auto& [dir, args] : runs) {
    ASSERT_EQ(hqserve(root / dir, args).exit_code, 0) << args;
  }

  for (const char* name : {"m.json", "m.prom", "r.json"}) {
    const std::string bytes = slurp(root / "exports1" / name);
    EXPECT_FALSE(bytes.empty()) << name;
    EXPECT_TRUE(bytes == slurp(root / "exports2" / name))
        << name << " differs between two identical runs";
  }
  EXPECT_TRUE(hq::testing::json_well_formed(slurp(root / "exports1/m.json")));
  EXPECT_NE(slurp(root / "exports1/m.prom").find("hq_serve_arrived"),
            std::string::npos);
  EXPECT_TRUE(slurp(root / "plain/r.json") == slurp(root / "exports1/r.json"))
      << "the exports changed the report";
  // The text report of a one-device run (serve::render_report_text).
  const std::string text = slurp(root / "text1/r.txt");
  EXPECT_EQ(text.rfind("serve report: gaussian+needle\n", 0), 0u) << text;
  EXPECT_TRUE(text == slurp(root / "text2/r.txt"));
  fs::remove_all(root);
}

TEST(HqserveCliGateTest, QueueCapSweepIsByteIdenticalAcrossJobCounts) {
  const std::string sweep =
      " --mix needle,srad --size 96 --window-ms 25 --mean-gap-us 150"
      " --max-inflight 2 --deadline-us 2000 --sweep-cap 4,8,16,0"
      " --report json";
  const fs::path dir = fs::current_path() / "hqserve_cap_sweep";
  const auto serial = hqserve(dir, sweep + " --jobs 1");
  const auto parallel = hqserve(dir, sweep + " --jobs 4");
  EXPECT_EQ(serial.exit_code, 0);
  EXPECT_EQ(parallel.exit_code, 0);
  EXPECT_TRUE(hq::testing::json_well_formed(serial.output)) << serial.output;
  EXPECT_TRUE(serial.output == parallel.output)
      << "--jobs 1:\n" << serial.output << "\n--jobs 4:\n" << parallel.output;
  fs::remove_all(dir);
}

TEST(HqserveCliGateTest, UnsupportedFlagCombinationsAreHardErrors) {
  const fs::path dir = fs::current_path() / "hqserve_bad_flags";
  for (const char* args : {
           " --mix gaussian --size 64 --sweep-fleet 1,2 --metrics m.json",
           " --mix gaussian --size 64 --sweep-cap 4,8 --trace t.json",
           " --mix gaussian --size 64 --snapshot-interval 50ms"
           " --snapshot-file s.jsonl",
           " --mix gaussian --size 64 --devices 2 --snapshot-file s.jsonl",
       }) {
    const auto run = hqserve(dir, std::string(args) + " 2>&1");
    EXPECT_NE(run.exit_code, 0) << args << "\n" << run.output;
  }
  // A crash plan needs a fleet to fail over to: one-device mode rejects it
  // and points at fleet mode instead of ignoring it.
  const auto crash = hqserve(
      dir,
      " --mix gaussian --size 64 --window-ms 10"
      " --fault-plan crash-at-us=3000,seed=1 2>&1 >/dev/null");
  EXPECT_NE(crash.exit_code, 0) << crash.output;
  EXPECT_NE(crash.output.find("fleet"), std::string::npos) << crash.output;
  fs::remove_all(dir);
}

}  // namespace
}  // namespace hq::tools
