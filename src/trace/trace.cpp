#include "trace/trace.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "common/check.hpp"
#include "common/hash.hpp"

namespace hq::trace {

const char* span_kind_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::MemcpyHtoD: return "HtoD";
    case SpanKind::MemcpyDtoH: return "DtoH";
    case SpanKind::Kernel: return "kernel";
    case SpanKind::HostCompute: return "host";
    case SpanKind::LockWait: return "lock-wait";
  }
  return "?";
}

std::uint64_t digest(const Recorder& recorder) {
  // The digest covers the resolved name bytes (not the id), so it is
  // unchanged from the pre-interning representation and independent of
  // the order names happened to be interned in. Resolve each name once.
  std::vector<std::string_view> names(recorder.name_count());
  for (NameId id = 0; id < names.size(); ++id) names[id] = recorder.name_of(id);
  Fnv1a64 h;
  h.mix_u64(recorder.size());
  for (const Span s : recorder) {
    h.mix_i64(s.lane);
    h.mix_i64(s.app_id);
    h.mix_u64(static_cast<std::uint64_t>(s.kind));
    h.mix_string(names[s.name]);
    h.mix_u64(s.begin);
    h.mix_u64(s.end);
  }
  return h.value();
}

NameId Recorder::intern(std::string_view name) {
  const auto it = ids_.find(name);
  if (it != ids_.end()) return it->second;
  HQ_CHECK_MSG(names_.size() < 0xFFFFFFFFu, "name table overflow");
  const NameId id = static_cast<NameId>(names_.size());
  names_.emplace_back(name);
  // Key the map with a view into the deque-owned string (stable address),
  // not the caller's buffer.
  ids_.emplace(std::string_view(names_.back()), id);
  return id;
}

std::string_view Recorder::name_of(NameId id) const {
  HQ_CHECK_MSG(id < names_.size(),
               "NameId " << id << " not interned in this recorder ("
                         << names_.size() << " names)");
  return names_[id];
}

void Recorder::add(Span span) {
  HQ_CHECK_MSG(span.name < names_.size(),
               "span name id " << span.name
                               << " not interned in this recorder");
  HQ_CHECK_MSG(span.end >= span.begin,
               "span '" << name_of(span.name) << "' ends before it begins");
  const std::uint32_t shape = shape_of(span);
  if (empty() || chunks_.back().size == kChunkSpans) {
    chunks_.push_back(Chunk{span.end, span.app_id, 0, {}});
    open_bytes_ = 0;
    last_end_ = span.end;
    last_app_ = span.app_id;
  }
  Chunk& chunk = chunks_.back();
  const auto app_delta = static_cast<std::int32_t>(
      static_cast<std::uint32_t>(span.app_id) -
      static_cast<std::uint32_t>(last_app_));
  std::uint8_t* at = varint::room_for(chunk.bytes, open_bytes_, 2);
  at = varint::put_pair(at, varint::zigzag(span.end - last_end_),
                        span.duration());
  at = varint::put_pair(
      at, varint::zigzag(static_cast<std::uint64_t>(std::int64_t{app_delta})),
      shape);
  open_bytes_ = static_cast<std::size_t>(at - chunk.bytes.data());
  last_end_ = span.end;
  last_app_ = span.app_id;
  if (++chunk.size == kChunkSpans) varint::trim(chunk.bytes, open_bytes_);
}

std::uint32_t Recorder::shape_of(const Span& span) {
  const Shape key{span.lane, span.name, span.kind};
  if (2 * shapes_.size() >= slots_.size()) {
    // Grow to keep the table at most half full, then re-insert every entry.
    slots_.assign(std::max<std::size_t>(16, 2 * slots_.size()), 0);
    for (std::size_t i = 0; i < shapes_.size(); ++i) {
      std::size_t s = slot_of(shapes_[i]);
      while (slots_[s] != 0) s = (s + 1) & (slots_.size() - 1);
      slots_[s] = static_cast<std::uint32_t>(i + 1);
    }
  }
  std::size_t s = slot_of(key);
  while (slots_[s] != 0) {
    const Shape& seen = shapes_[slots_[s] - 1];
    if (seen.lane == key.lane && seen.name == key.name &&
        seen.kind == key.kind) {
      return slots_[s] - 1;
    }
    s = (s + 1) & (slots_.size() - 1);
  }
  HQ_CHECK_MSG(shapes_.size() < std::numeric_limits<std::uint32_t>::max(),
               "span dictionary overflow");
  shapes_.push_back(key);
  slots_[s] = static_cast<std::uint32_t>(shapes_.size());
  return slots_[s] - 1;
}

std::size_t Recorder::slot_of(const Shape& shape) const {
  // Fibonacci hashing of the whole triple: the top bits of the product
  // index the table.
  constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
  const std::uint64_t key =
      (std::uint64_t{static_cast<std::uint32_t>(shape.lane)} << 32) |
      shape.name;
  const std::uint64_t h =
      (key * kGolden ^ static_cast<std::uint64_t>(shape.kind)) * kGolden;
  const int shift = 64 - std::countr_zero(slots_.size());
  return static_cast<std::size_t>(h >> shift);
}

Span Recorder::span(std::size_t i) const {
  Iterator it(*this, i - i % kChunkSpans);
  for (std::size_t n = i % kChunkSpans; n != 0; --n) ++it;
  return *it;
}

std::size_t Recorder::dictionary_bytes() const {
  return shapes_.capacity() * sizeof(Shape) +
         slots_.capacity() * sizeof(std::uint32_t);
}

std::size_t Recorder::storage_bytes() const {
  std::size_t bytes = chunks_.capacity() * sizeof(Chunk) + dictionary_bytes();
  for (const Chunk& c : chunks_) bytes += c.bytes.capacity();
  return bytes;
}

std::vector<Span> Recorder::by_app(std::int32_t app_id) const {
  std::vector<Span> out;
  for_each_app(app_id, [&out](const Span& s) { out.push_back(s); });
  return out;
}

std::vector<Span> Recorder::by_kind(SpanKind kind) const {
  std::vector<Span> out;
  for_each_kind(kind, [&out](const Span& s) { out.push_back(s); });
  return out;
}

std::vector<Span> Recorder::by_lane(std::int32_t lane) const {
  std::vector<Span> out;
  for_each_if([lane](const Span& s) { return s.lane == lane; },
              [&out](const Span& s) { out.push_back(s); });
  return out;
}

std::optional<TimeNs> Recorder::min_time() const {
  if (empty()) return std::nullopt;
  TimeNs t = std::numeric_limits<TimeNs>::max();
  for (const Span s : *this) t = std::min(t, s.begin);
  return t;
}

std::optional<TimeNs> Recorder::max_time() const {
  if (empty()) return std::nullopt;
  TimeNs t = 0;
  for (const Span s : *this) t = std::max(t, s.end);
  return t;
}

}  // namespace hq::trace
