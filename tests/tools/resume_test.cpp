// End-to-end resume checks of the built tools: a journaled sweep cut to its
// header plus two records (a crash with two points checkpointed), then
// resumed, must write the same bytes as the uninterrupted run. One case
// drives hqrun's harness sweep, one hqserve's fleet sweep. HQ_HQRUN_PATH
// and HQ_HQSERVE_PATH are the binaries' paths, set by CMake.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace hq::tools {
namespace {

namespace fs = std::filesystem;

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Keeps the first `n` lines of `path`; returns how many it had.
std::size_t cut_to_lines(const fs::path& path, std::size_t n) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  in.close();
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < n && i < lines.size(); ++i) {
    out << lines[i] << '\n';
  }
  return lines.size();
}

/// Runs `tool args` in a fresh directory: once with `--journal j`, writing
/// the file `first`, then resumed from the journal cut to 3 lines, writing
/// `resumed`. The two output arguments name those files on the command.
void expect_resume_is_byte_identical(const std::string& dir_name,
                                     const std::string& tool,
                                     const std::string& args,
                                     const std::string& first_output,
                                     const std::string& resumed_output) {
  const fs::path dir = fs::current_path() / dir_name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto run = [&](const std::string& extra) {
    const std::string command =
        "cd '" + dir.string() + "' && '" + tool + "' " + args + extra;
    ASSERT_EQ(std::system(command.c_str()), 0) << command;
  };
  ASSERT_NO_FATAL_FAILURE(run(" --journal j" + first_output));
  ASSERT_GT(cut_to_lines(dir / "j", 3), 3u) << "nothing left to resume";
  ASSERT_NO_FATAL_FAILURE(run(" --journal j --resume" + resumed_output));
  EXPECT_TRUE(slurp(dir / "first") == slurp(dir / "resumed"))
      << "the resumed run wrote other bytes";
  EXPECT_FALSE(slurp(dir / "first").empty());
  fs::remove_all(dir);
}

TEST(CliResumeTest, InterruptedSweepResumesByteIdentical) {
  expect_resume_is_byte_identical(
      "hqrun_resume", HQ_HQRUN_PATH,
      "--apps gaussian,nn --na 8 --ns 4 --all-orders"
      " --fault-plan seed=7,copy-stall-rate=0.25,launch-fail-rate=0.25"
      " --jobs 2",
      " --metrics first > /dev/null", " --metrics resumed > /dev/null");
}

TEST(CliResumeTest, InterruptedFleetSweepResumesByteIdentical) {
  expect_resume_is_byte_identical(
      "hqserve_resume", HQ_HQSERVE_PATH,
      "--mix gaussian,needle --size 64 --window-ms 10 --mean-gap-us 150"
      " --streams 2 --max-inflight 2 --queue-cap 8"
      " --sweep-fleet 1,2 --sweep-placement round-robin,least-loaded"
      " --jobs 2 --report json",
      " > first", " > resumed");
}

}  // namespace
}  // namespace hq::tools
