// Journaled grid runner (library hq_exec).
//
// Every experiment grid in the repository — the harness sweeps behind the
// paper figures (exec/sweep.hpp) and the fleet-size x placement sweeps
// (fleet/sweep.hpp) — runs through run_grid<P>. The runner owns the whole
// mechanism; a point type P only says what a point is and how to run it:
//
//   struct P {
//     using Grid = ...;  using Point = ...;  using Outcome = ...;
//     static constexpr const char* kJournalMagic = "hq-...-journal";
//     static std::vector<Point> expand(const Grid&);       // point.index = i
//     static Outcome run_point(const Grid&, const Point&);  // thread-safe
//     static std::uint64_t grid_key(const Grid&, std::span<const Point>);
//     static std::span<const codec::Field<Outcome>> journal_fields();
//   };
//
// where Outcome has a `point` member holding its Point.
//
// Determinism contract: points expand in a fixed order, each point's run
// depends only on its own coordinates, and outcomes come back in
// submission-index order — so the outcome vector (and anything rendered
// from it) is byte-identical at any `jobs` count.
//
// Crash safety: with a journal path, every finished point is appended as
// one self-contained text line and flushed under a mutex, so a kill at any
// instant loses at most the in-flight points. On resume the journal is
// replayed: finished points are restored verbatim and only the missing ones
// re-run. Records are written and read by the outcome type's codec table
// (common/codec.hpp): integers in decimal or hex, doubles in shortest
// to_chars form read back exactly, so a resumed run is byte-identical to an
// uninterrupted one. Format, one record per line:
//
//   <magic> version=v1 grid=<hex> points=<n> end
//   point index=<i> <key>=<value> ... end
//
// The header's grid key hashes the expanded grid's labels and the base
// config's canonical codec text, so resuming a different grid is a
// structured error, never a silent splice of foreign outcomes. The trailing
// `end` token makes torn lines (a crash mid-write) detectable: they are
// skipped. A later record for the same index wins.
#pragma once

#include <cstdint>
#include <fstream>
#include <istream>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/codec.hpp"
#include "exec/parallel.hpp"

namespace hq::exec {

struct GridOptions {
  /// Worker threads; 1 = serial (no pool), 0 = ThreadPool::hardware_jobs().
  int jobs = 1;
  /// Crash-safe checkpoint file; empty = no journal.
  std::string journal_path = {};
  /// Replay finished points from journal_path and run only the missing
  /// ones. Throws hq::Error when the journal belongs to a different grid.
  bool resume = false;
};

// --- journal codec -----------------------------------------------------------

/// Lowercase hex rendering used for digests and grid keys.
std::string hex(std::uint64_t value);

/// `<magic> version=v1 grid=<hex> points=<n> end`.
std::string journal_header_line(std::string_view magic, std::uint64_t grid_key,
                                std::size_t total_points);

/// Validates a journal's first line against the expected magic, version,
/// grid key and point count; throws hq::Error naming the mismatch.
void check_journal_header(const std::string& line, std::string_view magic,
                          std::uint64_t grid_key, std::size_t total_points);

/// A `point index=<i> key=value ... end` record, split into its fields.
struct JournalRecord {
  std::size_t index = 0;
  std::map<std::string, std::string, std::less<>> fields;
};

/// Returns nullopt for a torn or foreign line, or one whose index is
/// missing or not below `total_points`.
std::optional<JournalRecord> parse_journal_record(const std::string& line,
                                                  std::size_t total_points);

/// One finished point of point type P as a self-contained record (no
/// trailing newline).
template <typename P>
std::string journal_record_line(const typename P::Outcome& o) {
  std::string line = "point index=" + std::to_string(o.point.index);
  for (const auto& f : P::journal_fields()) {
    line += ' ';
    line += f.key;
    line += '=';
    f.render(f, o, line);
  }
  line += " end";
  return line;
}

/// Parses one record of point type P; the point is restored from `points`
/// by index. Returns nullopt for torn, foreign, or out-of-range lines.
template <typename P>
std::optional<typename P::Outcome> parse_journal_outcome(
    const std::string& line, std::span<const typename P::Point> points) {
  const auto record = parse_journal_record(line, points.size());
  if (!record) return std::nullopt;
  typename P::Outcome o;
  o.point = points[record->index];
  for (const auto& f : P::journal_fields()) {
    const auto it = record->fields.find(f.key);
    if (it == record->fields.end() || !f.parse(f, o, it->second, nullptr)) {
      return std::nullopt;
    }
  }
  return o;
}

/// Replays a journal stream into `cached` (resized to one slot per point).
/// An empty stream is a fresh journal: returns 0 and leaves `*header_read`
/// false, so the caller writes a fresh header before appending. A header
/// for another grid throws hq::Error. Torn and foreign lines are skipped,
/// and a later record for the same index wins. Returns the number of
/// distinct points restored.
template <typename P>
std::size_t load_journal(
    std::istream& in, std::uint64_t grid_key,
    std::span<const typename P::Point> points,
    std::vector<std::optional<typename P::Outcome>>* cached,
    bool* header_read = nullptr) {
  HQ_CHECK(cached != nullptr);
  if (header_read != nullptr) *header_read = false;
  cached->resize(points.size());
  std::string line;
  if (!std::getline(in, line)) return 0;
  check_journal_header(line, P::kJournalMagic, grid_key, points.size());
  if (header_read != nullptr) *header_read = true;
  std::size_t loaded = 0;
  while (std::getline(in, line)) {
    auto outcome = parse_journal_outcome<P>(line, points);
    if (!outcome) continue;
    auto& slot = (*cached)[outcome->point.index];
    if (!slot) ++loaded;
    slot = std::move(*outcome);
  }
  return loaded;
}

/// Append-only journal file: one header, then records flushed one at a time
/// under a mutex (workers finish in any order).
class JournalWriter {
 public:
  /// Opens `path` to append after an existing header, or truncates it and
  /// writes a fresh header. Throws hq::Error when the file cannot be opened.
  void open(const std::string& path, bool has_header, std::string_view magic,
            std::uint64_t grid_key, std::size_t total_points);
  void append(const std::string& record);

 private:
  std::ofstream out_;
  std::mutex mutex_;
};

// --- runner ------------------------------------------------------------------

/// Runs every point of `grid` with bounded concurrency; outcomes are indexed
/// by submission order.
template <typename P>
std::vector<typename P::Outcome> run_grid(const typename P::Grid& grid,
                                          const GridOptions& options) {
  using Outcome = typename P::Outcome;
  HQ_CHECK_MSG(options.jobs >= 0, "negative job count");
  const int jobs =
      options.jobs == 0 ? ThreadPool::hardware_jobs() : options.jobs;
  const auto points = P::expand(grid);

  std::vector<std::optional<Outcome>> cached(points.size());
  JournalWriter journal;
  if (!options.journal_path.empty()) {
    const std::uint64_t grid_key = P::grid_key(grid, points);
    bool has_header = false;
    if (options.resume) {
      std::ifstream in(options.journal_path);
      if (in) {
        load_journal<P>(in, grid_key, points, &cached, &has_header);
      }
    }
    journal.open(options.journal_path, has_header, P::kJournalMagic, grid_key,
                 points.size());
  }

  // Batched fan-out: each worker claims a contiguous slice of points, so a
  // 60-point grid costs ~4*jobs pool submissions instead of 60 and a worker
  // only takes the journal mutex between its own runs.
  const auto run_one = [&](std::size_t i) {
    if (cached[i]) return *cached[i];
    Outcome o = P::run_point(grid, points[i]);
    if (!options.journal_path.empty()) {
      journal.append(journal_record_line<P>(o));
    }
    return o;
  };
  if (jobs <= 1) return parallel_map(nullptr, points.size(), run_one);
  ThreadPool pool(jobs);
  return parallel_map_batched(&pool, points.size(),
                              default_batch_size(jobs, points.size()), run_one);
}

}  // namespace hq::exec
