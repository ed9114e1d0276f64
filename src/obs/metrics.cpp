#include "obs/metrics.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.hpp"

namespace hq::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  HQ_CHECK_MSG(!bounds_.empty(), "histogram needs at least one bucket bound");
  HQ_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()) &&
                   std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                       bounds_.end(),
               "histogram bounds must be strictly increasing");
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::record(double v) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += v;
}

void Histogram::merge(const Histogram& other) {
  HQ_CHECK_MSG(bounds_ == other.bounds_,
               "histogram merge needs identical bucket bounds");
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] += other.counts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

void Series::sample(TimeNs t, double value) {
  if (size_ != 0) {
    HQ_CHECK_MSG(t >= last_time_, "series sampled backwards in time");
    if (t == last_time_) {
      // Several transitions at one instant: keep the final value.
      values_[0] = value;
      peak_ = std::max(peak_, value);
      return;
    }
    if (values_[0] == value) return;  // unchanged: no event
    // A later instant seals the open point under its dictionary entry.
    chunks_.back().points.back().index = intern(values_[0]);
  } else if (values_.empty()) {
    values_.push_back(0.0);  // the open point's slot
  }
  append(t);
  last_time_ = t;
  values_[0] = value;
  peak_ = std::max(peak_, value);
}

void Series::append(TimeNs t) {
  if (chunks_.empty() || chunks_.back().points.size() == kChunkPoints ||
      t - chunks_.back().base > std::numeric_limits<std::uint32_t>::max()) {
    ragged_ = ragged_ || (!chunks_.empty() &&
                          chunks_.back().points.size() != kChunkPoints);
    chunks_.push_back(Chunk{t, size_, {}});
    chunks_.back().points.reserve(kFirstChunkPoints);
  }
  std::vector<Packed>& points = chunks_.back().points;
  if (points.size() == points.capacity()) {
    points.reserve(std::min(2 * points.capacity(), kChunkPoints));
  }
  points.push_back(
      Packed{static_cast<std::uint32_t>(t - chunks_.back().base), 0});
  ++size_;
}

std::uint32_t Series::intern(double value) {
  const auto bits = std::bit_cast<std::uint64_t>(value);
  if (2 * values_.size() > slots_.size()) {
    // Grow to keep the table at most half full, then re-insert every entry.
    slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), 0);
    for (std::size_t i = 1; i < values_.size(); ++i) {
      std::size_t s = slot_of(std::bit_cast<std::uint64_t>(values_[i]));
      while (slots_[s] != 0) s = (s + 1) & (slots_.size() - 1);
      slots_[s] = static_cast<std::uint32_t>(i);
    }
  }
  std::size_t s = slot_of(bits);
  while (slots_[s] != 0 &&
         std::bit_cast<std::uint64_t>(values_[slots_[s]]) != bits) {
    s = (s + 1) & (slots_.size() - 1);
  }
  if (slots_[s] == 0) {
    slots_[s] = static_cast<std::uint32_t>(values_.size());
    values_.push_back(value);
  }
  return slots_[s];
}

std::size_t Series::slot_of(std::uint64_t bits) const {
  // Fibonacci hashing: the top bits of the product index the table.
  const int shift = 64 - std::countr_zero(slots_.size());
  return static_cast<std::size_t>((bits * 0x9E3779B97F4A7C15ULL) >> shift);
}

std::size_t Series::chunk_of(std::size_t i) const {
  if (!ragged_) return i / kChunkPoints;
  const auto it = std::upper_bound(
      chunks_.begin(), chunks_.end(), i,
      [](std::size_t index, const Chunk& c) { return index < c.first; });
  return static_cast<std::size_t>(it - chunks_.begin()) - 1;
}

Series::Point Series::point(std::size_t i) const {
  const Chunk& c = chunks_[chunk_of(i)];
  const Packed p = c.points[i - c.first];
  return Point{c.base + p.offset, values_[p.index]};
}

std::size_t Series::storage_bytes() const {
  std::size_t bytes = chunks_.capacity() * sizeof(Chunk) +
                      values_.capacity() * sizeof(double) +
                      slots_.capacity() * sizeof(std::uint32_t);
  for (const Chunk& c : chunks_) bytes += c.points.capacity() * sizeof(Packed);
  return bytes;
}

Series::Cursor::Cursor(const Series& series)
    : series_(&series), values_(series.values_.data()) {
  enter(0);
}

void Series::Cursor::enter(std::size_t chunk) {
  chunk_ = chunk;
  if (chunk_ == series_->chunks_.size()) {
    at_ = end_ = nullptr;
    return;
  }
  const Chunk& c = series_->chunks_[chunk_];
  base_ = c.base;
  at_ = c.points.data();
  end_ = at_ + c.points.size();
  time_ = base_ + at_->offset;
}

void Series::Cursor::next() {
  if (++at_ == end_) {
    enter(chunk_ + 1);
  } else {
    time_ = base_ + at_->offset;
  }
}

const char* metric_kind_name(MetricKind kind) {
  switch (kind) {
    case MetricKind::Counter: return "counter";
    case MetricKind::Gauge: return "gauge";
    case MetricKind::Histogram: return "histogram";
    case MetricKind::Series: return "series";
  }
  return "?";
}

MetricsRegistry::Entry& MetricsRegistry::entry(
    std::string_view name, std::string_view help, MetricKind kind,
    std::variant<Counter, Gauge, Histogram, Series> fresh) {
  HQ_CHECK_MSG(!name.empty(), "metric name must not be empty");
  if (const auto it = index_.find(name); it != index_.end()) {
    Entry& existing = entries_[it->second];
    HQ_CHECK_MSG(existing.kind == kind,
                 "metric '" << existing.name << "' registered as "
                            << metric_kind_name(existing.kind)
                            << ", requested as " << metric_kind_name(kind));
    return existing;
  }
  entries_.push_back(Entry{std::string(name), std::string(help), kind,
                           std::move(fresh)});
  index_.emplace(std::string(name), entries_.size() - 1);
  return entries_.back();
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view help) {
  return std::get<Counter>(
      entry(name, help, MetricKind::Counter, Counter{}).metric);
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view help) {
  return std::get<Gauge>(entry(name, help, MetricKind::Gauge, Gauge{}).metric);
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::vector<double> upper_bounds,
                                      std::string_view help) {
  return std::get<Histogram>(
      entry(name, help, MetricKind::Histogram,
            Histogram(std::move(upper_bounds)))
          .metric);
}

Series& MetricsRegistry::series(std::string_view name, std::string_view help) {
  return std::get<Series>(
      entry(name, help, MetricKind::Series, Series{}).metric);
}

const MetricsRegistry::Entry* MetricsRegistry::find(
    std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

}  // namespace hq::obs
