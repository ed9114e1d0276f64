// End-to-end check of the built hqserve: a 4-device fleet run with every
// observability export (--metrics, --prom, --trace, --snapshot-file) and
// the JSON report, run twice. Each output must be non-empty, byte-identical
// across the two runs, and every JSON output (each snapshot line included)
// must be well formed. HQ_HQSERVE_PATH is the binary's path, set by CMake.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "tests/common/json_check.hpp"

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

/// Runs hqserve with the export flags inside a fresh `dir`.
void run_hqserve(const fs::path& dir) {
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string command = "cd '" + dir.string() + "' && '" +
                              HQ_HQSERVE_PATH + "'" + kFleet + kObs +
                              " --report json > report.json";
  ASSERT_EQ(std::system(command.c_str()), 0) << command;
}

TEST(HqserveExportsTest, FleetExportsAreWellFormedAndByteStable) {
  const fs::path root = fs::current_path() / "hqserve_exports";
  const fs::path first = root / "run1";
  const fs::path second = root / "run2";
  ASSERT_NO_FATAL_FAILURE(run_hqserve(first));
  ASSERT_NO_FATAL_FAILURE(run_hqserve(second));

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

}  // namespace
}  // namespace hq::tools
