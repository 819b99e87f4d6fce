// Step-level simulator tracing.
//
// The simulators accept an optional `TraceSink*`; when it is null no event
// is ever constructed (the recorder's enabled() check is a single branch on
// a pointer), so tracing is zero-overhead when disabled.  When a sink is
// attached the simulators emit one TraceEvent per observable occurrence:
//
//   kRelease    packet enters the network        (link = its first link)
//   kTransmit   packet crosses a directed link   (value = queue depth seen)
//   kStall      waiting packets a link could not serve this step
//                                                (value = how many waited)
//   kQueueDepth a link queue reached a new per-link high-water mark
//                                                (value = the new depth)
//   kArrive     packet delivered                 (value = latency in steps)
//   kDrop       packet dropped by fault injection (link = first dead link;
//               for mid-run truncation, value = hops completed at the break)
//   kWormStart  wormhole message acquired its whole route (value = flits)
//   kWormDone   wormhole message fully delivered (value = completion step)
//   kFault      a scheduled fault activated a directed link (link = its id)
//   kRepair     a scheduled repair revived a directed link (link = its id)
//   kRetransmit sender re-injected a lost fragment on a surviving path
//               (packet = message id, link = first link of the new route,
//               value = attempt number)
//
// Events are buffered per step by StepTrace and forwarded to the sink in a
// canonical sorted order at the step barrier, so the stream of a step never
// depends on the order the simulator visited its links in.
#pragma once

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace hyperpath::obs {

enum class TraceEventKind : std::uint8_t {
  kRelease = 0,
  kTransmit,
  kStall,
  kQueueDepth,
  kArrive,
  kDrop,
  kWormStart,
  kWormDone,
  kFault,
  kRepair,
  kRetransmit,
};

/// Number of distinct TraceEventKind values (per-kind counter array size).
inline constexpr std::size_t kNumTraceEventKinds = 11;

/// Stable lowercase name used in the JSONL encoding.
const char* to_string(TraceEventKind kind);

/// Inverse of to_string (the JSONL decode side).  False when `name` is not
/// a known kind; `out` is untouched then.
bool trace_event_kind_from_string(std::string_view name, TraceEventKind* out);

struct TraceEvent {
  static constexpr std::uint32_t kNoPacket = 0xffffffffu;
  static constexpr std::uint64_t kNoLink = ~std::uint64_t{0};

  std::int32_t step = 0;
  TraceEventKind kind = TraceEventKind::kTransmit;
  std::uint32_t packet = kNoPacket;
  std::uint64_t link = kNoLink;
  std::uint64_t value = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;

  /// Canonical intra-step order: kind, then link, then packet, then value.
  /// Total on the events one step can produce, which is what makes traced
  /// parallel runs byte-identical to serial ones.
  friend bool operator<(const TraceEvent& a, const TraceEvent& b) {
    if (a.step != b.step) return a.step < b.step;
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.link != b.link) return a.link < b.link;
    if (a.packet != b.packet) return a.packet < b.packet;
    return a.value < b.value;
  }
};

/// Receives batches of trace events.  Implementations need not be
/// thread-safe: the simulators deliver from one thread only.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_events(std::span<const TraceEvent> events) = 0;
  virtual void flush() {}
};

/// Fixed-capacity in-memory sink: keeps the newest `capacity` events and
/// counts everything it ever saw (so totals stay exact when the ring wraps).
class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity = std::size_t{1} << 20);

  void on_events(std::span<const TraceEvent> events) override;

  /// Events still in the ring, oldest first.
  std::vector<TraceEvent> events() const;

  std::uint64_t total() const { return total_; }
  std::uint64_t total(TraceEventKind kind) const {
    return by_kind_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t dropped() const {
    return total_ - static_cast<std::uint64_t>(size_);
  }

 private:
  std::vector<TraceEvent> ring_;
  std::size_t head_ = 0;  // next write position
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t by_kind_[kNumTraceEventKinds] = {};
};

/// Streaming JSONL sink: one JSON object per line, e.g.
///   {"step":3,"kind":"transmit","packet":17,"link":42,"value":2}
/// `packet` / `link` are omitted when not applicable.  Buffered stdio keeps
/// the per-event cost at a formatted append.
class JsonlFileSink final : public TraceSink {
 public:
  explicit JsonlFileSink(const std::string& path);
  ~JsonlFileSink() override;

  JsonlFileSink(const JsonlFileSink&) = delete;
  JsonlFileSink& operator=(const JsonlFileSink&) = delete;

  void on_events(std::span<const TraceEvent> events) override;
  void flush() override;

  /// Optional header line `{"kind":"meta","dims":N,"packets":M}` carrying
  /// run parameters the event stream cannot encode (the host dimension in
  /// particular — dense link ids are only decodable knowing n).  Call once,
  /// before any event is written; readers treat the line as metadata, not
  /// an event.
  void write_meta(int dims, std::uint64_t packets);

  std::uint64_t total() const { return total_; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::FILE* file_;
  std::uint64_t total_ = 0;
};

/// Per-run recorder the simulators write through.  Buffers the current
/// step's events, sorts them canonically at end_step(), and forwards the
/// batch to the sink.  With a null sink every method is a no-op and
/// enabled() lets call sites skip event construction entirely.
class StepTrace {
 public:
  explicit StepTrace(TraceSink* sink) : sink_(sink) {}

  bool enabled() const { return sink_ != nullptr; }

  void record(const TraceEvent& e) { buf_.push_back(e); }

  /// Sorts and flushes the current step's buffer to the sink.
  void end_step();

  /// Final flush (call once, after the last end_step()).
  void finish();

 private:
  TraceSink* sink_;
  std::vector<TraceEvent> buf_;
};

}  // namespace hyperpath::obs
