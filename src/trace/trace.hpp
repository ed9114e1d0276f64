// Execution-span recording.
//
// The simulated device and runtime emit spans (kernel executions, memory
// transfers, lock waits) tagged with a lane (stream index or engine) and the
// owning application instance. The recorder is the data source for:
//   * the ASCII timeline renderer (reproducing the paper's Visual Profiler
//     screenshots, Figs. 1/2/5, as text),
//   * Chrome-trace JSON export (chrome://tracing / Perfetto),
//   * the effective-memory-transfer-latency metric (paper Eq. 1-2).
//
// Span names are interned: each distinct name string is stored once in a
// per-recorder symbol table and spans carry a 32-bit NameId. Every reader
// that needs the text (digest, Chrome trace, tests) resolves it through
// Recorder::name_of, so rendered output and digests cover the name bytes,
// not the ids.
//
// Span storage contract (one layout, no options): at most 16 bytes per span
// plus chunk slack and a per-recorder dictionary, and every span reads back
// exactly as it was added.
//   * Spans live in chunks of at most kChunkSpans records. A chunk keeps a
//     64-bit base time (the first span's begin, or its end minus 2^32 - 1
//     when it is longer than that) and 16-byte records of
//     {u32 end offset from the base, u32 duration, i32 app id, u32 shape}.
//     A new chunk starts when the open one is full, when a span ends before
//     the base, or when its end offset would not fit in 32 bits.
//   * Only the open (last) chunk grows: it starts at kFirstChunkSpans and
//     doubles up to kChunkSpans, so a short trace stays small and a full
//     chunk is never reallocated or copied. A chunk closed early is shrunk
//     to its records.
//   * `shape` indexes a dictionary of the distinct (lane, kind, NameId)
//     triples, found through an open-addressing table keyed by the whole
//     triple. A device repeats a few dozen triples across all its spans.
//   * A duration of 2^32 - 1 ns or more is stored as a sentinel plus an
//     entry {span index, duration} in a side table of escapes.
//   * span(i) is O(1): chunk i / kChunkSpans. Only after a chunk was closed
//     early does it binary-search the chunks instead. Iteration walks the
//     chunks in order without searching.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"

namespace hq::trace {

enum class SpanKind : std::uint8_t {
  MemcpyHtoD,
  MemcpyDtoH,
  Kernel,
  HostCompute,
  LockWait,
};

/// Short label for a span kind ("HtoD", "DtoH", "kernel", ...).
const char* span_kind_name(SpanKind kind);

/// Index into the owning Recorder's name table (Recorder::name_of).
using NameId = std::uint32_t;

/// One closed interval of activity attributed to a lane and an application.
/// Trivially copyable; the name is an id into the recorder that owns the
/// span (a Span is meaningless without its recorder's name table).
struct Span {
  std::int32_t lane = 0;    ///< row identifier; stream index by convention
  std::int32_t app_id = -1; ///< owning application instance, -1 if none
  SpanKind kind = SpanKind::Kernel;
  NameId name = 0;          ///< interned name (see Recorder::intern/name_of)
  TimeNs begin = 0;
  TimeNs end = 0;

  DurationNs duration() const { return end - begin; }
};

class Recorder;

/// Stable 64-bit digest of a recorder's spans (FNV-1a over every field of
/// every span, in recording order; names are digested as their full string
/// bytes, not their ids, so the digest is independent of interning order).
/// Bit-identical across platforms and toolchains, so it serves as the
/// determinism fingerprint of a whole run: two runs of the same scenario
/// must produce equal digests, and any change to the simulated schedule
/// shows up as a digest change. Used by the golden tests, the seed-sweep
/// determinism tests, and the hqfuzz oracles.
std::uint64_t digest(const Recorder& recorder);

/// Append-only collection of spans with simple query helpers and the name
/// symbol table the spans' NameIds index into. Spans are stored compactly
/// (see the storage contract above) and read back by value.
class Recorder {
  struct Record;  // one stored span; defined below

 public:
  static constexpr std::size_t kChunkSpans = 4096;
  static constexpr std::size_t kFirstChunkSpans = 16;

  Recorder() = default;
  /// Not copyable: ids_ keys are string_views into names_, so a memberwise
  /// copy would leave the copy's map keys pointing at the source's strings.
  /// Moving is fine — a deque move transfers its blocks without relocating
  /// elements, so the views (and any NameIds already handed out) stay valid.
  /// A moved-from recorder is empty.
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;
  Recorder(Recorder&&) = default;
  Recorder& operator=(Recorder&&) = default;

  /// Returns the id for `name`, adding it to the table on first sight.
  /// Ids are dense, assigned in first-interning order, and stay valid for
  /// the recorder's lifetime.
  NameId intern(std::string_view name);

  /// The string a span's NameId stands for. The view is stable for the
  /// recorder's lifetime.
  std::string_view name_of(NameId id) const;

  /// Distinct names interned so far (deterministic for a fixed scenario —
  /// the perf budget regression test pins it).
  std::size_t name_count() const { return names_.size(); }

  /// Appends a span whose name is already interned in *this* recorder.
  void add(Span span);

  /// Interns `name` and appends — the one-stop producer API.
  void add(std::int32_t lane, std::int32_t app_id, SpanKind kind,
           std::string_view name, TimeNs begin, TimeNs end) {
    add(Span{lane, app_id, kind, intern(name), begin, end});
  }

  bool empty() const { return chunks_.empty(); }
  std::size_t size() const {
    return empty() ? 0 : chunks_.back().first + chunks_.back().records.size();
  }
  /// The i-th span in recording order; requires i < size().
  Span span(std::size_t i) const;
  /// Drops spans and the name table and frees their storage (all
  /// previously issued NameIds become invalid — there are no spans left to
  /// hold them).
  void clear() { *this = Recorder(); }

  /// Allocated bytes of the span store: chunks, the (lane, kind, name)
  /// dictionary and the duration escapes. The name table is not included.
  std::size_t storage_bytes() const;
  /// The dictionary's share of storage_bytes().
  std::size_t dictionary_bytes() const;

  /// Forward iterator over the spans in recording order, yielding each by
  /// value. Invalidated by add() and clear().
  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = Span;
    using reference = Span;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    Span operator*() const;
    Iterator& operator++();
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Iterator& other) const { return at_ == other.at_; }

   private:
    friend class Recorder;
    Iterator(const Recorder& recorder, std::size_t chunk);
    void enter(std::size_t chunk);

    const Recorder* recorder_ = nullptr;
    std::size_t chunk_ = 0;
    const Record* at_ = nullptr;
    const Record* end_ = nullptr;
    TimeNs base_ = 0;
    std::size_t escape_ = 0;  ///< next unread duration escape
  };
  Iterator begin() const { return Iterator(*this, 0); }
  Iterator end() const { return Iterator(*this, chunks_.size()); }

  std::vector<Span> by_app(std::int32_t app_id) const;
  std::vector<Span> by_kind(SpanKind kind) const;
  std::vector<Span> by_lane(std::int32_t lane) const;

  /// Zero-copy filtering visitors: unlike the by_* helpers above these do
  /// not materialize a span vector per query, so a caller that visits every
  /// app still touches each span only once per visit instead of paying an
  /// allocation + full copy per app.
  template <typename Pred, typename Fn>
  void for_each_if(Pred&& pred, Fn&& fn) const {
    for (const Span s : *this) {
      if (pred(s)) fn(s);
    }
  }
  template <typename Fn>
  void for_each_app(std::int32_t app_id, Fn&& fn) const {
    for_each_if([app_id](const Span& s) { return s.app_id == app_id; }, fn);
  }
  template <typename Fn>
  void for_each_kind(SpanKind kind, Fn&& fn) const {
    for_each_if([kind](const Span& s) { return s.kind == kind; }, fn);
  }

  /// Earliest span begin; nullopt when empty.
  std::optional<TimeNs> min_time() const;
  /// Latest span end; nullopt when empty.
  std::optional<TimeNs> max_time() const;

 private:
  /// Duration sentinel: the span's duration is in escapes_.
  static constexpr std::uint32_t kEscaped = 0xFFFFFFFFu;

  struct Record {
    std::uint32_t end_offset;  ///< span end - chunk base
    std::uint32_t duration;    ///< end - begin, or kEscaped
    std::int32_t app_id;
    std::uint32_t shape;       ///< into shapes_
  };
  struct Chunk {
    TimeNs base = 0;
    std::size_t first = 0;  ///< recorder index of the chunk's first span
    std::vector<Record> records;
  };
  struct Shape {
    std::int32_t lane;
    NameId name;
    SpanKind kind;
  };
  struct Escape {
    std::size_t index;  ///< recorder index of the span
    DurationNs duration;
  };

  /// Dictionary index of the span's (lane, kind, name), inserting it if new.
  std::uint32_t shape_of(const Span& span);
  std::size_t slot_of(const Shape& shape) const;
  std::size_t chunk_of(std::size_t i) const;
  Span decode(TimeNs base, const Record& r, DurationNs duration) const;

  std::vector<Chunk> chunks_;
  std::vector<Escape> escapes_;  ///< ascending by index

  // Dictionary: distinct triples in first-seen order, found through an
  // open-addressing table (slot = index + 1, 0 = empty; at most half full).
  std::vector<Shape> shapes_;
  std::vector<std::uint32_t> slots_;

  /// Name storage with stable element addresses (a deque never relocates),
  /// so the string_view keys in ids_ and the views name_of hands out stay
  /// valid as the table grows.
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, NameId> ids_;
};

// The iterator and decode are inline: every reader walks them once per
// span.
inline Span Recorder::decode(TimeNs base, const Record& r,
                             DurationNs duration) const {
  const Shape& shape = shapes_[r.shape];
  const TimeNs end = base + r.end_offset;
  return Span{shape.lane, r.app_id, shape.kind, shape.name, end - duration,
              end};
}

inline Recorder::Iterator::Iterator(const Recorder& recorder,
                                    std::size_t chunk)
    : recorder_(&recorder) {
  enter(chunk);
}

inline void Recorder::Iterator::enter(std::size_t chunk) {
  chunk_ = chunk;
  if (chunk_ == recorder_->chunks_.size()) {
    at_ = end_ = nullptr;
    return;
  }
  const Chunk& c = recorder_->chunks_[chunk_];
  base_ = c.base;
  at_ = c.records.data();
  end_ = at_ + c.records.size();
}

inline Span Recorder::Iterator::operator*() const {
  return recorder_->decode(base_, *at_,
                           at_->duration == kEscaped
                               ? recorder_->escapes_[escape_].duration
                               : at_->duration);
}

inline Recorder::Iterator& Recorder::Iterator::operator++() {
  if (at_->duration == kEscaped) ++escape_;
  if (++at_ == end_) enter(chunk_ + 1);
  return *this;
}

/// Spans of one app, in recording order: a view of span indices into the
/// recorder an AppIndex was built from, read back by value.
class AppSpans {
 public:
  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = Span;
    using reference = Span;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    Iterator(const Recorder* recorder, const std::uint32_t* at)
        : recorder_(recorder), at_(at) {}
    Span operator*() const { return recorder_->span(*at_); }
    Iterator& operator++() {
      ++at_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++at_;
      return old;
    }
    bool operator==(const Iterator& other) const { return at_ == other.at_; }

   private:
    const Recorder* recorder_ = nullptr;
    const std::uint32_t* at_ = nullptr;
  };

  AppSpans() = default;
  AppSpans(const Recorder* recorder, std::span<const std::uint32_t> indices)
      : recorder_(recorder), indices_(indices) {}

  std::size_t size() const { return indices_.size(); }
  bool empty() const { return indices_.empty(); }
  Span operator[](std::size_t k) const { return recorder_->span(indices_[k]); }
  Iterator begin() const { return {recorder_, indices_.data()}; }
  Iterator end() const { return {recorder_, indices_.data() + size()}; }

 private:
  const Recorder* recorder_ = nullptr;
  std::span<const std::uint32_t> indices_;
};

/// One-pass per-app span index over a flat, sorted layout. Extracting
/// per-app metrics with Recorder::by_app costs O(apps * spans) plus a copy
/// of every matching span per query; building this index once costs
/// O(spans + app-id range) (a counting scatter over the dense app-id range,
/// falling back to a stable sort for pathological sparse ids) and each
/// subsequent per-app lookup is a binary search over the distinct ids,
/// O(log apps). The index holds 32-bit span indices into the source
/// recorder, which must outlive the index and not change while it is used.
class AppIndex {
 public:
  explicit AppIndex(const Recorder& recorder);

  /// Spans of one app, in recording order; empty for an unknown app (ids
  /// never seen in the trace, including -1 when every span is attributed).
  AppSpans spans_for(std::int32_t app_id) const;

  /// Distinct app ids seen, ascending (includes -1 for unattributed spans).
  const std::vector<std::int32_t>& app_ids() const { return ids_; }

  std::size_t app_count() const { return ids_.size(); }

 private:
  const Recorder* recorder_;
  std::vector<std::int32_t> ids_;        ///< distinct app ids, ascending
  std::vector<std::size_t> offsets_;     ///< ids_.size()+1 bounds into spans_
  std::vector<std::uint32_t> spans_;     ///< grouped by app, recording order
};

}  // namespace hq::trace
