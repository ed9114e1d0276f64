// Run-wide metric primitives (library hq_obs).
//
// A MetricsRegistry holds four metric shapes, all fully deterministic:
//
//   * Counter   — monotonically increasing 64-bit event count;
//   * Gauge     — last-written double with peak tracking;
//   * Histogram — fixed upper-bound buckets over doubles (used for
//                 copy-queue wait times in nanoseconds);
//   * Series    — an event-driven time series: a point is recorded only
//                 when the value changes, so the series is exactly the
//                 piecewise-constant trajectory of the underlying quantity
//                 with no sampling-rate artefacts.
//
// Registration order is the canonical iteration/export order, and every
// stored value derives from the deterministic simulation, so a report
// rendered from a registry is byte-identical across runs and job counts
// (the PR-2 determinism contract extended to telemetry).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/units.hpp"
#include "common/varint.hpp"

namespace hq::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t delta = 1) { value_ += delta; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-written value with an all-time peak.
class Gauge {
 public:
  void set(double v) {
    value_ = v;
    if (!written_ || v > peak_) peak_ = v;
    written_ = true;
  }
  void add(double delta) { set(value_ + delta); }
  double value() const { return value_; }
  double peak() const { return peak_; }

 private:
  double value_ = 0.0;
  double peak_ = 0.0;
  bool written_ = false;
};

/// Fixed-bucket histogram: counts()[i] is the number of samples v with
/// v <= bounds()[i] (and > bounds()[i-1]); counts().back() is the overflow
/// bucket (> bounds().back()).
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing.
  explicit Histogram(std::vector<double> upper_bounds);

  void record(double v);

  /// Adds another histogram's samples into this one, bucket by bucket.
  /// Both histograms must have identical bounds (the same instrument shape
  /// on every fleet device); merging is commutative and associative, so the
  /// fleet rollup is independent of device merge order.
  void merge(const Histogram& other);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Size bounds().size() + 1; last entry is the overflow bucket.
  const std::vector<std::uint64_t>& counts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

/// Event-driven time series of a piecewise-constant quantity.
///
/// Storage contract (one layout, no options): about 2.5 bytes per stored
/// point plus a per-series dictionary of distinct values.
///   * Every point but the newest is sealed as one varint code word
///     (common/varint.hpp), appended to a chunk's bytes: the time since the
///     previous point (0 for a chunk's first point) and the point's
///     dictionary index, 7 bits per byte. Any gap fits, so no time gap ever
///     splits a chunk.
///   * Chunk k holds points [k * kChunkPoints, (k + 1) * kChunkPoints) and
///     keeps its first point's 64-bit time as its base. Only the open
///     (last) chunk grows; a full chunk is trimmed to its bytes plus a few
///     bytes of read padding.
///   * The newest (open) point is not encoded: its time is last_time_ and
///     its value dictionary slot 0, so same-instant rewrites never touch
///     the encoded bytes.
///   * The dictionary is keyed by a value's bit pattern, not by ==, so every
///     point decodes to exactly the double that was sampled (0.0 and -0.0,
///     or NaNs with different payloads, are distinct entries).
///   * Reads decode forward: Cursor walks the whole series, point(i) and
///     value_at(t) decode at most one chunk.
/// The sampling semantics below do not depend on the layout.
class Series {
 public:
  struct Point {
    TimeNs time = 0;
    double value = 0.0;
  };

  static constexpr std::size_t kChunkPoints = 1024;

  /// Records the value at `t`. Consecutive samples with an unchanged value
  /// (under ==) are dropped; several samples at the same instant coalesce
  /// to the last one (the value in effect after the instant's transitions),
  /// kept bit for bit. `t` must not decrease between calls.
  void sample(TimeNs t, double value);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// The i-th point in time order; requires i < size(). Decodes up to
  /// kChunkPoints points of chunk i / kChunkPoints.
  Point point(std::size_t i) const;
  /// Value in effect at `t`: that of the last point at or before `t`, or 0
  /// before the first point. Binary-searches the chunks' base times, then
  /// decodes one chunk. The fleet snapshot reporter's primitive.
  double value_at(TimeNs t) const;
  double last() const { return empty() ? 0.0 : values_[0]; }
  double peak() const { return peak_; }
  /// Allocated bytes of the chunk store plus the dictionary.
  std::size_t storage_bytes() const;

  /// Sequential reader over the points in time order. Each head is decoded
  /// once per step, so sweeps over many series compare cached times.
  /// Invalidated by a later sample() on the series.
  class Cursor {
   public:
    explicit Cursor(const Series& series);
    bool done() const { return left_ == 0; }
    /// Head point; both require !done().
    TimeNs time() const { return time_; }
    double value() const { return value_; }
    void next() {
      if (--left_ != 0) read();
    }

   private:
    /// Decodes the head: the next sealed point, or the open point.
    void read();

    const Series* series_;
    const double* values_;
    std::size_t left_;  ///< points from the head on
    const std::uint8_t* at_ = nullptr;  ///< the next sealed point's bytes
    TimeNs time_ = 0;
    double value_ = 0.0;
  };

 private:
  struct Chunk {
    TimeNs base = 0;  ///< time of the chunk's first point
    std::vector<std::uint8_t> bytes;  ///< encoded points, then zero bytes
  };

  /// Dictionary index of `value`'s bit pattern, inserting it if new.
  std::uint32_t intern(double value);
  std::size_t slot_of(std::uint64_t bits) const;
  /// Encodes the open point into the open chunk.
  void seal();

  std::vector<Chunk> chunks_;
  std::size_t open_bytes_ = 0;  ///< encoded bytes of the open chunk
  std::size_t size_ = 0;
  TimeNs sealed_time_ = 0;  ///< time of the newest sealed point
  TimeNs last_time_ = 0;    ///< time of the open point
  double peak_ = 0.0;

  // Dictionary. values_[0] holds the value of the open point while samples
  // at its instant rewrite it; sealing interns it. Distinct values follow
  // from index 1 in first-seen order, found through an open-addressing
  // table (slot = index, 0 = empty; at most half full).
  std::vector<double> values_;
  std::vector<std::uint32_t> slots_;
};

enum class MetricKind : std::uint8_t { Counter, Gauge, Histogram, Series };

const char* metric_kind_name(MetricKind kind);

/// Named metric store with deterministic (registration-order) iteration.
/// Accessors create on first use and return the existing instrument on
/// later calls; re-registering a name as a different kind throws.
class MetricsRegistry {
 public:
  struct Entry {
    std::string name;
    std::string help;
    MetricKind kind = MetricKind::Counter;
    std::variant<Counter, Gauge, Histogram, Series> metric;
  };

  Counter& counter(std::string_view name, std::string_view help = {});
  Gauge& gauge(std::string_view name, std::string_view help = {});
  /// `upper_bounds` is consulted only on first registration.
  Histogram& histogram(std::string_view name, std::vector<double> upper_bounds,
                       std::string_view help = {});
  Series& series(std::string_view name, std::string_view help = {});

  /// nullptr when the name was never registered.
  const Entry* find(std::string_view name) const;
  std::size_t size() const { return entries_.size(); }

  /// Visits entries in registration order (the canonical export order).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : entries_) fn(e);
  }

 private:
  Entry& entry(std::string_view name, std::string_view help, MetricKind kind,
               std::variant<Counter, Gauge, Histogram, Series> fresh);

  std::deque<Entry> entries_;  ///< deque: stable references across growth
  std::map<std::string, std::size_t, std::less<>> index_;
};

// The cursor is inline: the fleet merge steps it once per stored point.
inline void Series::Cursor::read() {
  if (left_ == 1) {
    time_ = series_->last_time_;
    value_ = values_[0];
    return;
  }
  const std::size_t i = series_->size_ - left_;
  if (i % kChunkPoints == 0) {
    const Chunk& c = series_->chunks_[i / kChunkPoints];
    at_ = c.bytes.data();
    time_ = c.base;
  }
  const varint::Pair d = varint::get_pair(at_);
  at_ += d.bytes;
  time_ += d.a;
  value_ = values_[d.b];
}

}  // namespace hq::obs
