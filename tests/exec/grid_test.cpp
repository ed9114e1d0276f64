// The journaled grid runner, tested once on a fake point type with no
// simulation: journal codec round-trip for every field kind, torn and
// foreign lines, header validation (garbled, wrong version, wrong grid),
// the empty-journal restart, later-record-wins replay, and resume ==
// fresh run at jobs 1 and jobs 4. The harness and fleet sweeps keep only
// their own codec and grid-key tests.
#include "exec/grid.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.hpp"

namespace hq::exec {
namespace {

struct FakeGrid {
  std::vector<std::uint64_t> values;
  std::uint64_t salt = 0;
};

struct FakePoint {
  std::size_t index = 0;
  std::uint64_t value = 0;
};

struct FakeOutcome {
  FakePoint point;
  std::uint64_t square = 0;
  std::uint64_t digest = 0;
  double ratio = 0;
  bool odd = false;
};

/// Counts run_point calls so tests can tell replayed points from re-run
/// ones.
std::atomic<int> g_runs{0};

struct FakeSweep {
  using Grid = FakeGrid;
  using Point = FakePoint;
  using Outcome = FakeOutcome;
  static constexpr const char* kJournalMagic = "hq-fake-journal";

  static std::vector<FakePoint> expand(const FakeGrid& grid) {
    std::vector<FakePoint> points;
    for (const std::uint64_t v : grid.values) {
      points.push_back({points.size(), v});
    }
    return points;
  }

  static FakeOutcome run_point(const FakeGrid& grid, const FakePoint& point) {
    g_runs.fetch_add(1, std::memory_order_relaxed);
    FakeOutcome o;
    o.point = point;
    o.square = point.value * point.value;
    o.digest = Fnv1a64().mix_u64(point.value).mix_u64(grid.salt).value();
    o.ratio = 1.0 / static_cast<double>(point.value + 3);
    o.odd = point.value % 2 == 1;
    return o;
  }

  static std::uint64_t grid_key(const FakeGrid& grid,
                                std::span<const FakePoint> points) {
    Fnv1a64 h;
    h.mix_u64(points.size());
    for (const FakePoint& p : points) h.mix_u64(p.value);
    return h.mix_u64(grid.salt).value();
  }

  static std::span<const JournalField<FakeOutcome>> journal_fields() {
    using O = FakeOutcome;
    static const std::array<JournalField<O>, 4> fields = {{
        {"square", FieldKind::U64, &O::square},
        {"digest", FieldKind::Hex, &O::digest},
        {"ratio", FieldKind::Double, &O::ratio},
        {"odd", FieldKind::Bool, &O::odd},
    }};
    return fields;
  }
};

FakeGrid fake_grid() { return {{2, 3, 5, 7, 11, 13, 17, 19, 23}, 99}; }

struct Journal {
  FakeGrid grid = fake_grid();
  std::vector<FakePoint> points = FakeSweep::expand(grid);
  std::uint64_t key = FakeSweep::grid_key(grid, points);

  std::string header() const {
    return journal_header_line(FakeSweep::kJournalMagic, key, points.size());
  }
  std::string record(std::size_t i) const {
    return journal_record_line<FakeSweep>(
        FakeSweep::run_point(grid, points[i]));
  }
  /// Replays `text`; returns the restored count.
  std::size_t load(const std::string& text,
                   std::vector<std::optional<FakeOutcome>>* cached,
                   bool* header_read = nullptr) const {
    std::istringstream in(text);
    return load_journal<FakeSweep>(in, key, points, cached, header_read);
  }
  /// The hq::Error message loading `text` throws ("" if none).
  std::string load_error(const std::string& text) const {
    std::vector<std::optional<FakeOutcome>> cached;
    try {
      load(text, &cached);
    } catch (const Error& e) {
      return e.what();
    }
    return "";
  }
};

/// RAII scratch file path.
struct ScratchFile {
  std::string path;
  explicit ScratchFile(const std::string& name)
      : path(::testing::TempDir() + name) {
    std::remove(path.c_str());
  }
  ~ScratchFile() { std::remove(path.c_str()); }

  std::vector<std::string> lines() const {
    std::ifstream in(path);
    std::vector<std::string> out;
    for (std::string line; std::getline(in, line);) out.push_back(line);
    return out;
  }
  void write(const std::vector<std::string>& lines) const {
    std::ofstream out(path, std::ios::trunc);
    for (const std::string& line : lines) out << line << "\n";
  }
};

void expect_same(const std::vector<FakeOutcome>& a,
                 const std::vector<FakeOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].point.index, i);
    EXPECT_EQ(b[i].point.index, i);
    EXPECT_EQ(journal_record_line<FakeSweep>(a[i]),
              journal_record_line<FakeSweep>(b[i]));
  }
}

TEST(GridJournalTest, RecordRoundTripsEveryFieldKind) {
  const Journal j;
  const FakeOutcome o = FakeSweep::run_point(j.grid, j.points[1]);
  const std::string line = journal_record_line<FakeSweep>(o);
  EXPECT_EQ(line.rfind("point index=1 square=9 digest=", 0), 0u) << line;
  const auto parsed = parse_journal_outcome<FakeSweep>(line, j.points);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(parsed->point.value, 3u);
  EXPECT_EQ(parsed->square, o.square);
  EXPECT_EQ(parsed->digest, o.digest);
  EXPECT_EQ(parsed->ratio, o.ratio);  // exact: shortest form, strtod back
  EXPECT_EQ(parsed->odd, o.odd);
  EXPECT_TRUE(parsed->odd);
}

TEST(GridJournalTest, TornTrailingLineIsSkipped) {
  const Journal j;
  const std::string good = j.record(0);
  std::vector<std::optional<FakeOutcome>> cached;
  bool header_read = false;
  EXPECT_EQ(j.load(j.header() + "\n" + good + "\n" +
                       j.record(1).substr(0, good.size() / 2),
                   &cached, &header_read),
            1u);
  EXPECT_TRUE(header_read);
  ASSERT_EQ(cached.size(), j.points.size());
  EXPECT_TRUE(cached[0].has_value());
  EXPECT_FALSE(cached[1].has_value());
}

TEST(GridJournalTest, OutOfRangeIndexAndForeignLinesAreSkipped) {
  const Journal j;
  std::string foreign = j.record(0);
  foreign.replace(foreign.find("index=0"), 7, "index=9");  // 9 points: 0..8
  std::vector<std::optional<FakeOutcome>> cached;
  EXPECT_EQ(j.load(j.header() + "\n" + foreign + "\ngarbage line\n" +
                       "point index=2 square=25 end\n",  // missing fields
                   &cached),
            0u);
  for (const auto& slot : cached) EXPECT_FALSE(slot.has_value());
}

TEST(GridJournalTest, GarbledHeaderIsStructuredError) {
  const Journal j;
  std::string torn = j.header();
  torn.resize(torn.size() - 4);  // drop " end"
  EXPECT_NE(j.load_error(torn).find("unrecognized or torn header"),
            std::string::npos);
  EXPECT_NE(j.load_error("hq-sweep-journal version=v1 grid=0 points=9 end")
                .find("unrecognized or torn header"),
            std::string::npos);
  EXPECT_NE(j.load_error("hq-fake-journal version=v1 grid=zz points=9 end")
                .find("malformed header"),
            std::string::npos);
}

TEST(GridJournalTest, VersionMismatchIsStructuredError) {
  const Journal j;
  std::string header = j.header();
  header.replace(header.find("version=v1"), 10, "version=v0");
  const std::string error = j.load_error(header);
  EXPECT_NE(error.find("unsupported version 'v0'"), std::string::npos)
      << error;
}

TEST(GridJournalTest, GridMismatchIsStructuredError) {
  Journal other;
  other.grid.salt = 7;
  other.key = FakeSweep::grid_key(other.grid, other.points);
  const Journal j;
  const std::string error = j.load_error(other.header());
  EXPECT_NE(error.find("hq-fake-journal: grid mismatch (journal grid=" +
                       hex(other.key) + " points=9, this grid=" + hex(j.key) +
                       " points=9)"),
            std::string::npos)
      << error;
  // A different point count is a mismatch too.
  const std::string shorter =
      journal_header_line(FakeSweep::kJournalMagic, j.key, 8);
  EXPECT_NE(j.load_error(shorter).find("grid mismatch"), std::string::npos);
}

TEST(GridJournalTest, LaterRecordWins) {
  const Journal j;
  FakeOutcome stale = FakeSweep::run_point(j.grid, j.points[4]);
  stale.square = 1;
  std::vector<std::optional<FakeOutcome>> cached;
  EXPECT_EQ(j.load(j.header() + "\n" + journal_record_line<FakeSweep>(stale) +
                       "\n" + j.record(4) + "\n",
                   &cached),
            1u);
  ASSERT_TRUE(cached[4].has_value());
  EXPECT_EQ(cached[4]->square, 121u);
}

TEST(GridJournalTest, EmptyJournalWritesFreshHeader) {
  // A crash before the header flush (or a touched file) leaves an empty
  // journal: resuming from it is a fresh run that writes a header.
  const Journal j;
  std::vector<std::optional<FakeOutcome>> cached;
  bool header_read = true;
  EXPECT_EQ(j.load("", &cached, &header_read), 0u);
  EXPECT_FALSE(header_read);
  EXPECT_EQ(cached.size(), j.points.size());

  ScratchFile file("grid_test_empty.journal");
  file.write({});
  const GridOptions options{.jobs = 1, .journal_path = file.path,
                            .resume = true};
  const auto first = run_grid<FakeSweep>(j.grid, options);
  const std::vector<std::string> lines = file.lines();
  ASSERT_EQ(lines.size(), j.points.size() + 1);
  EXPECT_EQ(lines[0], j.header());

  g_runs = 0;
  expect_same(run_grid<FakeSweep>(j.grid, options), first);
  EXPECT_EQ(g_runs.load(), 0);
}

TEST(GridRunnerTest, OutcomesAreInIndexOrderAtAnyJobCount) {
  const FakeGrid grid = fake_grid();
  const auto serial = run_grid<FakeSweep>(grid, {});
  for (const int jobs : {0, 2, 4, 16}) {
    expect_same(run_grid<FakeSweep>(grid, {.jobs = jobs}), serial);
  }
  EXPECT_THROW(run_grid<FakeSweep>(grid, {.jobs = -1}), Error);
}

TEST(GridRunnerTest, ResumeEqualsFreshRunAtJobs1And4) {
  const FakeGrid grid = fake_grid();
  const auto fresh = run_grid<FakeSweep>(grid, {});
  for (const int jobs : {1, 4}) {
    SCOPED_TRACE(jobs);
    ScratchFile file("grid_test_resume.journal");
    const GridOptions journaled{.jobs = jobs, .journal_path = file.path,
                                .resume = false};
    (void)run_grid<FakeSweep>(grid, journaled);
    std::vector<std::string> lines = file.lines();
    ASSERT_EQ(lines.size(), grid.values.size() + 1);

    // "Crash": keep the header and three records, then a torn line.
    lines.resize(4);
    lines.push_back("point index=8 square=");
    file.write(lines);

    g_runs = 0;
    GridOptions resumed = journaled;
    resumed.resume = true;
    expect_same(run_grid<FakeSweep>(grid, resumed), fresh);
    EXPECT_EQ(g_runs.load(), static_cast<int>(grid.values.size()) - 3);

    // The journal is now complete: a second resume runs nothing.
    g_runs = 0;
    expect_same(run_grid<FakeSweep>(grid, resumed), fresh);
    EXPECT_EQ(g_runs.load(), 0);

    // Without --resume the journal starts over.
    (void)run_grid<FakeSweep>(grid, journaled);
    EXPECT_EQ(file.lines().size(), grid.values.size() + 1);
  }
}

TEST(GridRunnerTest, ResumeRefusesAnotherGrid) {
  ScratchFile file("grid_test_foreign.journal");
  const GridOptions options{.jobs = 1, .journal_path = file.path,
                            .resume = true};
  (void)run_grid<FakeSweep>(fake_grid(), options);
  FakeGrid other = fake_grid();
  other.salt += 1;
  try {
    (void)run_grid<FakeSweep>(other, options);
    FAIL() << "expected hq::Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("grid mismatch"), std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace hq::exec
