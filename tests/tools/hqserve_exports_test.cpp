// End-to-end checks of the built hqserve, each run twice: a 4-device fleet
// run with every observability export (--metrics, --prom, --trace,
// --snapshot-file) and the JSON report, and a one-device run with the
// metrics exports and the JSON and text reports. Each output must be
// non-empty, byte-identical across the two runs, and every JSON output
// (each snapshot line included) must be well formed; the one-device report
// must not change when the exports are on. HQ_HQSERVE_PATH is the binary's
// path, set by CMake. The flag contract is cli_table_test.cpp's.
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

}  // namespace
}  // namespace hq::tools
