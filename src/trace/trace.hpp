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
// Span storage contract (one layout, no options): about 6.5 bytes per span
// on a device trace, plus the open chunk's slack and a per-recorder
// dictionary, and every span reads back exactly as it was added.
//   * Each span is two varint code words (common/varint.hpp): zigzag(end -
//     the previous span's end) with the duration, then zigzag(app id - the
//     previous span's app id, modulo 2^32) with the span's shape index.
//     Spans recorded at completion end a little after the previous one and
//     mostly on the same app, so the four fields take 6-7 bytes together.
//     Any time, duration or app id fits, so nothing ever splits a chunk.
//   * Chunk k holds spans [k * kChunkSpans, (k + 1) * kChunkSpans) and keeps
//     its first span's end and app id as its bases (that span encodes zero
//     deltas), so a chunk decodes on its own. Only the open (last) chunk
//     grows, by half at a time; a full chunk is trimmed to its bytes plus a
//     few bytes of read padding.
//   * `shape` indexes a dictionary of the distinct (lane, kind, NameId)
//     triples, found through an open-addressing table keyed by the whole
//     triple. A device repeats a few dozen triples across all its spans.
//   * Reads decode forward: iteration walks the chunks in order, span(i)
//     decodes at most one chunk.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/units.hpp"
#include "common/varint.hpp"

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
 public:
  static constexpr std::size_t kChunkSpans = 1024;

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
    return empty() ? 0
                   : (chunks_.size() - 1) * kChunkSpans + chunks_.back().size;
  }
  /// The i-th span in recording order; requires i < size(). Decodes up to
  /// kChunkSpans spans of chunk i / kChunkSpans.
  Span span(std::size_t i) const;
  /// Drops spans and the name table and frees their storage (all
  /// previously issued NameIds become invalid — there are no spans left to
  /// hold them).
  void clear() { *this = Recorder(); }

  /// Allocated bytes of the span store: chunks and the (lane, kind, name)
  /// dictionary. The name table is not included.
  std::size_t storage_bytes() const;
  /// The dictionary's share of storage_bytes().
  std::size_t dictionary_bytes() const;

  /// Forward iterator over the spans in recording order, yielding each by
  /// value. Each span is decoded once, on the step that reaches it.
  /// Invalidated by add() and clear().
  class Iterator {
   public:
    using iterator_concept = std::forward_iterator_tag;
    using iterator_category = std::input_iterator_tag;
    using value_type = Span;
    using reference = Span;
    using difference_type = std::ptrdiff_t;

    Iterator() = default;
    Span operator*() const { return head_; }
    Iterator& operator++() {
      if (++index_ != size_) read();
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++*this;
      return old;
    }
    bool operator==(const Iterator& other) const {
      return index_ == other.index_;
    }

   private:
    friend class Recorder;
    /// At span `index`, which must start a chunk or be the end.
    Iterator(const Recorder& recorder, std::size_t index);
    /// Decodes the span at index_ into head_.
    void read();

    const Recorder* recorder_ = nullptr;
    std::size_t index_ = 0;
    std::size_t size_ = 0;
    const std::uint8_t* at_ = nullptr;  ///< the next span's first word
    Span head_;
  };
  Iterator begin() const { return Iterator(*this, 0); }
  Iterator end() const { return Iterator(*this, size()); }

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
  struct Chunk {
    TimeNs base_end = 0;         ///< end of the chunk's first span
    std::int32_t base_app = 0;   ///< app id of the chunk's first span
    std::uint32_t size = 0;      ///< spans in the chunk
    std::vector<std::uint8_t> bytes;  ///< encoded spans, then zero bytes
  };
  struct Shape {
    std::int32_t lane;
    NameId name;
    SpanKind kind;
  };

  /// Dictionary index of the span's (lane, kind, name), inserting it if new.
  std::uint32_t shape_of(const Span& span);
  std::size_t slot_of(const Shape& shape) const;

  std::vector<Chunk> chunks_;
  // The open chunk's encoder state, set when the chunk opens: its encoded
  // bytes (its vector is a varint::room_for append buffer), and the last
  // span's end and app id, the bases of the next span's deltas.
  std::size_t open_bytes_ = 0;
  TimeNs last_end_ = 0;
  std::int32_t last_app_ = 0;

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

// The iterator is inline: every reader steps it once per span.
inline Recorder::Iterator::Iterator(const Recorder& recorder,
                                    std::size_t index)
    : recorder_(&recorder), index_(index), size_(recorder.size()) {
  if (index_ != size_) read();
}

inline void Recorder::Iterator::read() {
  if (index_ % kChunkSpans == 0) {
    const Chunk& c = recorder_->chunks_[index_ / kChunkSpans];
    at_ = c.bytes.data();
    head_.end = c.base_end;
    head_.app_id = c.base_app;
  }
  const varint::Pair time = varint::get_pair(at_);
  const varint::Pair owner = varint::get_pair(at_ + time.bytes);
  at_ += time.bytes + owner.bytes;
  head_.end += varint::unzigzag(time.a);
  head_.begin = head_.end - time.b;
  head_.app_id = static_cast<std::int32_t>(
      static_cast<std::uint32_t>(head_.app_id) +
      static_cast<std::uint32_t>(varint::unzigzag(owner.a)));
  const Shape& shape = recorder_->shapes_[owner.b];
  head_.lane = shape.lane;
  head_.kind = shape.kind;
  head_.name = shape.name;
}

}  // namespace hq::trace
