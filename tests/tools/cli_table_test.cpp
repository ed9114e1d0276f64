// The command-line contract of the built hqrun, hqserve and hqfuzz as
// tables of rows, one table per test. Each row is a tool, its arguments
// and what must hold: the exit code, a text that stderr contains, and
// optionally that a second run writes the same bytes, that `--jobs 1` and
// `--jobs 4` print the same bytes, and that stdout is well-formed JSON. A
// run that fails writes no file. Each run starts in a fresh directory; the
// binaries' paths (HQ_HQRUN_PATH, HQ_HQSERVE_PATH, HQ_HQFUZZ_PATH) are set
// by CMake.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>

#include "tests/common/json_check.hpp"
#include "tests/common/run_command.hpp"

namespace hq::tools {
namespace {

namespace fs = std::filesystem;

enum class Tool { Hqrun, Hqserve, Hqfuzz };

struct Row {
  Tool tool;
  const char* args;
  int exit_code;
  const char* stderr_has;  ///< "" = anything
  bool twice = false;      ///< a second run writes the same bytes
  bool jobs = false;       ///< --jobs 1 and --jobs 4 print the same bytes
  bool json = false;       ///< stdout is well-formed JSON
};

constexpr Tool R = Tool::Hqrun;
constexpr Tool S = Tool::Hqserve;
constexpr Tool F = Tool::Hqfuzz;

// hqrun: malformed and out-of-range values name the flag; a flag its run
// does not read; valid runs.
const Row kHqrunRows[] = {
    {R, "--chunk -5", 2, "--chunk needs an integer >= 0, got '-5'"},
    {R, "--chunk abc", 2, "--chunk needs an integer >= 0"},
    {R, "--size abc", 2, "--size needs an integer >= 0"},
    {R, "--stagger-us xyz", 2, "--stagger-us needs an integer >= 0"},
    {R, "--seed foo", 2, "--seed needs an integer >= 0"},
    {R, "--fault-plan zero --fault-seed abc", 2, "--fault-seed needs"},
    {R, "--fault-plan zero --watchdog-ms -4", 2, "--watchdog-ms needs"},
    {R, "--all-orders --jobs abc", 2, "--jobs needs an integer >= 0"},
    {R, "--order bad", 2, "--order needs one of fifo|rr|shuffle|rev-fifo"},
    {R, "--device k40", 2, "--device needs one of k20|fermi|single-copy"},
    {R, "--fault-plan copy-stall-rate=2", 2, "--fault-plan needs a fault plan"},
    {R, "--all-orders --order rr --trace t.json --power-csv p.csv --timeline",
     2, "--order does not apply to --all-orders"},
    {R, "--all-orders --trace t.json", 2, "--trace does not apply"},
    {R, "--all-orders --power-csv p.csv", 2, "--power-csv does not apply"},
    {R, "--all-orders --timeline", 2, "--timeline does not apply"},
    {R, "--all-orders --metrics-prom m.prom", 2, "--metrics-prom does not"},
    {R, "--jobs 2", 2, "--jobs does not apply to a single run"},
    {R, "--fault-seed 3", 2, "--fault-seed does not apply to a single run"},
    {R, "--watchdog-ms 5", 2, "--watchdog-ms does not apply"},
    {R, "--journal j", 2, "--journal does not apply to a single run"},
    {R, "--all-orders --resume", 2, "--resume does not apply"},
    {R, "--apps needle --na 4 --ns 2 --size 32 --functional --trace t.json", 0,
     "", true},
    {R, "--apps gaussian,nn --na 8 --ns 4 --all-orders", 0, "", false, true},
};

// hqrun: argv grammar (a flag given a value, an option missing its value,
// an unknown spelling, a stray positional).
const Row kHqrunGrammarRows[] = {
    {R, "--functional=yes", 2, "flag '--functional' does not take a value"},
    {R, "--ns", 2, "option '--ns' needs a value"},
    {R, "--streams 8", 2, "unknown option '--streams'"},
    {R, "--na 8 extra", 2, "unexpected positional argument 'extra'"},
};

// hqrun: a count that is not a positive integer leaves its value unset and
// exits 2 naming the flag.
const Row kHqrunCountRows[] = {
    {R, "--na lots --ns many", 2, "--na needs an integer >= 1, got 'lots'"},
    {R, "--na 8 --ns many", 2, "--ns needs an integer >= 1, got 'many'"},
    {R, "--ns 0", 2, "--ns needs an integer >= 1, got '0'"},
};

// hqrun: application names are exact and at most two types run at once.
const Row kHqrunAppRows[] = {
    {R, "--apps gaussian,blur", 2, "--apps needs a comma list"},
    {R, "--apps GAUSSIAN", 2, "--apps needs a comma list"},
    {R, "--apps gaussian,nn,srad", 2, "--apps needs one or two types"},
};

// hqserve: a flag outside the mode that reads it, and a fault plan the
// one-device run cannot honour.
const Row kHqserveModeRows[] = {
    {S, "--steal", 2, "--steal does not apply to a single-device run"},
    {S, "--placement least-loaded", 2, "--placement does not apply"},
    {S, "--copy-penalty 3", 2, "--copy-penalty does not apply"},
    {S, "--device-breaker", 2, "--device-breaker does not apply"},
    {S, "--failover-budget 2", 2, "--failover-budget does not apply"},
    {S, "--devices 2 --hedge-threshold 3", 2,
     "--hedge-threshold does not apply to a fleet run (it needs --hedge)"},
    {S, "--journal j", 2, "--journal does not apply"},
    {S, "--resume", 2, "--resume does not apply"},
    {S, "--sweep-placement all", 2, "--sweep-placement does not apply"},
    {S, "--devices 2 --journal j", 2, "--journal does not apply to a fleet"},
    {S, "--devices 2 --jobs 4", 2, "--jobs does not apply to a fleet run"},
    {S, "--breaker-threshold 2", 2, "--breaker-threshold does not apply"},
    {S, "--devices 2 --spotcheck-rate 0.5", 2, "--spotcheck-rate does not"},
    {S, "--sweep-cap 4,8 --queue-cap 3", 2, "--queue-cap does not apply"},
    {S, "--devices 2 --sweep-cap 4", 2, "--sweep-cap does not apply"},
    {S, "--sweep-fleet 1,2 --metrics m.json", 2, "--metrics does not apply"},
    {S, "--sweep-cap 4,8 --trace t.json", 2, "--trace does not apply"},
    {S, "--snapshot-interval 50ms --snapshot-file s.jsonl", 2,
     "--snapshot-interval does not apply"},
    {S, "--devices 2 --snapshot-file s.jsonl", 2,
     "--snapshot-file and --snapshot-interval must be used together"},
    {S, "--window-ms 10 --fault-plan crash-at-us=3000,seed=1", 3, "fleet"},
};

// hqserve: lists and values hold only what they can; a fleet run.
const Row kHqserveRows[] = {
    {S, "--sweep-cap -1,0", 2, "--sweep-cap needs a comma list"},
    {S, "--sweep-fleet -1", 2, "--sweep-fleet needs a comma list"},
    {S, "--sweep-fleet 0", 2, "--sweep-fleet needs a comma list"},
    {S, "--sweep-fleet 2,1,2", 2, "--sweep-fleet lists a fleet size twice"},
    {S, "--sweep-fleet 1 --sweep-placement all,round-robin", 2,
     "--sweep-placement lists a policy twice"},
    {S, "--window-ms 0", 2, "--window-ms needs an integer > 0"},
    {S, "--streams 0", 2, "--streams needs an integer >= 1"},
    {S, "--seed -1", 2, "--seed needs an integer >= 0"},
    {S, "--shed-policy fifo", 2, "--shed-policy needs one of drop-tail"},
    {S, "--report xml", 2, "--report needs one of text|json"},
    {S, "--devices 2 --copy-penalty -1", 2, "--copy-penalty needs a number"},
    {S, "--devices 2 --hedge --hedge-threshold 0", 2,
     "--hedge-threshold needs a number > 0"},
    {S, "--devices 2 --integrity spotcheck --spotcheck-rate 1.5", 2,
     "--spotcheck-rate needs a number in [0, 1]"},
    {S, "--devices 2 --integrity dmr --sdc-blocklist-threshold 0", 2,
     "--sdc-blocklist-threshold needs a number in (0, 1]"},
    {S,
     "--mix gaussian,needle --size 64 --window-ms 10 --mean-gap-us 150"
     " --streams 2 --max-inflight 2 --queue-cap 8 --devices 2 --steal"
     " --device-breaker --hedge --integrity spotcheck --report json",
     0, "", true, false, true},
};

// hqserve: a queue-cap sweep prints the same JSON at any job count.
const Row kHqserveSweepRows[] = {
    {S,
     "--mix needle,srad --size 96 --window-ms 25 --mean-gap-us 150"
     " --max-inflight 2 --deadline-us 2000 --sweep-cap 4,8,16,0 --report json",
     0, "", false, true, true},
};

// hqfuzz: rates no iteration reads, several replay seeds, and loop flags
// given to a replay; a valid run.
const Row kHqfuzzRows[] = {
    {F, "--case-seed 5 --chaos-rate 0.5", 2, "--chaos-rate does not apply"},
    {F, "--serve-case-seed 5 --sdc-rate 0.5", 2, "--sdc-rate does not apply"},
    {F, "--fleet-case-seed 5 --fault-rate 0.5", 2, "--fault-rate does not"},
    {F, "--iters 0 --serve-iters 1 --chaos-rate 0.5", 2, "--chaos-rate"},
    {F, "--iters 0 --serve-iters 1 --sdc-rate 0.5", 2, "--sdc-rate"},
    {F, "--iters 0 --fleet-iters 1 --fault-rate 0.5", 2, "--fault-rate"},
    {F, "--case-seed 5 --serve-case-seed 5", 2, "give at most one of"},
    {F, "--serve-case-seed 5 --fleet-case-seed 5", 2, "give at most one of"},
    {F, "--iters 1 --fault-rate 1.5", 2, "--fault-rate needs a number in"},
    {F, "--iters 1 --fault-rate nan", 2, "--fault-rate needs a number in"},
    {F, "--case-seed 5 --seed 3", 2, "--seed does not apply to a --case-seed"},
    {F, "--case-seed 5 --iters 2", 2, "--iters does not apply"},
    {F, "--serve-case-seed 5 --serve-iters 1", 2, "--serve-iters does not"},
    {F, "--fleet-case-seed 5 --fleet-iters 1", 2, "--fleet-iters does not"},
    {F, "--case-seed 5 --fleet-iters 0", 2, "--fleet-iters does not apply"},
    {F, "--serve-case-seed 5 --jobs 2", 2, "--jobs does not apply"},
    {F, "--fleet-case-seed 5 --verbose", 2, "--verbose does not apply"},
    {F, "--case-seed -1", 2, "--case-seed needs an integer >= 0"},
    {F, "--iters 0", 2, "need --iters, --serve-iters, or --fleet-iters > 0"},
    {F, "--seed 18446744073709551615 --iters 2 --verbose", 0, "", true, true},
};

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Runs the row's tool with `args` in a fresh `dir`; returns the exit code
/// and every file the run left there (stdout and stderr included).
std::pair<int, std::map<std::string, std::string>> run(
    Tool tool, const std::string& args, const fs::path& dir) {
  const char* paths[] = {HQ_HQRUN_PATH, HQ_HQSERVE_PATH, HQ_HQFUZZ_PATH};
  fs::remove_all(dir);
  fs::create_directories(dir);
  const auto outcome = hq::testing::run_command(
      "cd '" + dir.string() + "' && '" + paths[static_cast<int>(tool)] +
      "' " + args + " > stdout 2> stderr");
  std::map<std::string, std::string> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files[entry.path().filename().string()] = slurp(entry.path());
  }
  fs::remove_all(dir);
  return {outcome.exit_code, files};
}

/// Runs every row in a directory named after the running test, so tests
/// that ctest starts in parallel do not share one.
void check_rows(std::span<const Row> rows) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::current_path() /
                       (std::string("cli_table_") + test->test_suite_name() +
                        "_" + test->name());
  for (const Row& row : rows) {
    const Tool tool = row.tool;
    SCOPED_TRACE(row.args);
    // hqserve's rows run one small class unless they name their own mix.
    const std::string args =
        tool == Tool::Hqserve && std::string(row.args).find("--mix") ==
                                     std::string::npos
            ? std::string("--mix gaussian --size 64 ") + row.args
            : row.args;
    const auto [code, files] = run(tool, args, dir);
    EXPECT_EQ(code, row.exit_code) << files.at("stderr");
    EXPECT_NE(files.at("stderr").find(row.stderr_has), std::string::npos)
        << files.at("stderr");
    if (code != 0) {
      EXPECT_EQ(files.size(), 2u) << "a failed run wrote a file";
    }
    if (row.json) {
      EXPECT_TRUE(hq::testing::json_well_formed(files.at("stdout")));
    }
    if (row.twice) {
      EXPECT_TRUE(run(tool, args, dir).second == files)
          << "a second run wrote other bytes";
    }
    if (row.jobs) {
      const auto serial = run(tool, args + " --jobs 1", dir);
      const auto parallel = run(tool, args + " --jobs 4", dir);
      EXPECT_EQ(serial.first, 0) << serial.second.at("stderr");
      EXPECT_TRUE(serial.second == parallel.second)
          << "--jobs 1:\n" << serial.second.at("stdout") << "\n--jobs 4:\n"
          << parallel.second.at("stdout");
    }
  }
}

TEST(CliTableTest, Hqrun) { check_rows(kHqrunRows); }
TEST(CliTableTest, Hqserve) { check_rows(kHqserveRows); }
TEST(CliTableTest, Hqfuzz) { check_rows(kHqfuzzRows); }

TEST(HqrunCliTest, InvalidFlagCombinationsAreRejected) {
  check_rows(kHqrunGrammarRows);
}

TEST(HqrunCliTest, NonNumericCountsSurfaceAsNullopt) {
  check_rows(kHqrunCountRows);
}

TEST(HqrunCliTest, UnknownApplicationNamesAreDetectable) {
  check_rows(kHqrunAppRows);
}

TEST(HqserveCliGateTest, QueueCapSweepIsByteIdenticalAcrossJobCounts) {
  check_rows(kHqserveSweepRows);
}

TEST(HqserveCliGateTest, UnsupportedFlagCombinationsAreHardErrors) {
  check_rows(kHqserveModeRows);
}

}  // namespace
}  // namespace hq::tools
