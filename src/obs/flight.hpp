// Per-packet flight records assembled from the canonical trace stream.
//
// A FlightRecord is the packet's-eye view of one simulation: when the
// packet entered the network, every hop it completed — split into
// queue-wait and transit per directed link — and how it ended (delivered,
// truncated at a dead link, or still in flight when the stream stopped).
// The FlightRecorder consumes the exact event stream the simulators emit
// (obs/trace.hpp), either live as the TraceSink attached to a run or
// offline from a JSONL trace file via load_trace_jsonl(); both roads yield
// identical records because traced parallel runs are byte-identical to
// serial ones.
//
// Reconstruction rules (store-and-forward family):
//
//   kRelease   opens a flight: the packet joins its first link's queue at
//              the release step.  A release for a packet id whose previous
//              flight already terminated opens a *new generation* — the
//              recovery engine re-injects lost fragments wave by wave and
//              wave-local packet ids restart from 0.
//   kTransmit  closes the current hop: the packet crossed `link` this
//              step after waiting (step - enqueue) steps, and joins its
//              next queue at step + 1 (arrivals settle at the step
//              barrier).  The event's value is the queue depth the sweep
//              saw, kept for the depth cross-check in critical_path.
//   kArrive    terminal: delivered; value is the latency the simulator
//              measured (cross-checked against step + 1 - release).
//   kDrop      terminal: truncated by a fault.  Mid-flight the hop the
//              packet was waiting on never completes and is kept as the
//              pending hop; packets whose route is already cut at release
//              time are dropped before ever being released (release_step
//              stays -1).
//
// kRetransmit / kFault / kRepair events carry message and link ids, not
// wave-local packet ids, so they are kept as run-wide chains rather than
// folded into individual records.  Wormhole traces are accepted too — a
// worm's kTransmit events all fire at its acquisition step, so hop spans
// carry no wait information there, but terminal accounting (makespan,
// delivered) still reconstructs exactly.
//
// The recorder reproduces run-level results from the stream alone —
// makespan, delivered/dropped counts, transmissions — which is what proves
// a trace is complete: `hyperpath_cli analyze` gates on matching
// SimResult bit for bit, and tests assert it for every simulator mode.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace hyperpath::obs {

class JsonValue;

/// One completed hop: the packet joined `link`'s queue at enqueue_step and
/// crossed it at transmit_step.
struct HopSpan {
  std::uint64_t link = TraceEvent::kNoLink;
  std::int32_t enqueue_step = 0;
  std::int32_t transmit_step = 0;
  /// Queue depth the sweep saw at transmit time (includes this packet);
  /// 0 in wormhole traces, which carry no depth.
  std::uint32_t depth_seen = 0;

  std::int32_t queue_wait() const { return transmit_step - enqueue_step; }

  friend bool operator==(const HopSpan&, const HopSpan&) = default;
};

struct FlightRecord {
  enum class Fate : std::uint8_t { kInFlight = 0, kDelivered, kDropped };

  std::uint32_t packet = TraceEvent::kNoPacket;
  /// 0 for the first flight of this packet id; +1 per re-release (recovery
  /// waves reuse wave-local ids).
  std::uint32_t generation = 0;
  /// -1 when the packet was dropped before ever being released (its route
  /// was already cut by a standing fault).
  std::int32_t release_step = -1;
  std::vector<HopSpan> hops;

  Fate fate = Fate::kInFlight;
  /// Arrive/drop step; -1 while in flight.
  std::int32_t end_step = -1;
  /// The dead link that truncated a dropped flight; kNoLink otherwise.
  std::uint64_t drop_link = TraceEvent::kNoLink;
  /// When a mid-flight drop caught the packet waiting, the step it joined
  /// the dead link's queue; -1 otherwise.
  std::int32_t pending_enqueue_step = -1;
  /// Latency the simulator reported in kArrive (== end_step + 1 -
  /// release_step); 0 for non-delivered flights.
  std::uint64_t latency = 0;

  bool delivered() const { return fate == Fate::kDelivered; }
  bool dropped() const { return fate == Fate::kDropped; }

  /// Steps spent queued across completed hops (pending wait excluded).
  std::int64_t total_queue_wait() const {
    std::int64_t w = 0;
    for (const HopSpan& h : hops) w += h.queue_wait();
    return w;
  }
};

/// A kRetransmit occurrence: message `message` re-entered the network on
/// `first_link` at `step` for the attempt-th time.
struct RetransmitEvent {
  std::int32_t step = 0;
  std::uint32_t message = TraceEvent::kNoPacket;
  std::uint64_t first_link = TraceEvent::kNoLink;
  std::uint64_t attempt = 0;
};

/// A kFault (repaired == false) or kRepair (true) occurrence.
struct LinkFaultEvent {
  std::int32_t step = 0;
  std::uint64_t link = TraceEvent::kNoLink;
  bool repaired = false;
};

/// Aggregate use of one directed link.
struct LinkUse {
  std::uint64_t link = TraceEvent::kNoLink;  // host link id
  std::uint64_t transmissions = 0;
  /// Last kQueueDepth high-water value (the link's peak queue depth).
  std::uint32_t peak_queue = 0;
  /// First/last step the link transmitted; -1 when it never did.
  std::int32_t first_step = -1;
  std::int32_t last_step = -1;
};

/// Assembles FlightRecords and run-level aggregates from a trace stream.
/// Usable directly as the TraceSink of a simulator run.  The recorder is
/// tolerant of streams it cannot fully explain (it is an offline analyzer,
/// not a validator with authority to abort): violations of the rules above
/// are counted in inconsistencies() and the first one is described by
/// first_inconsistency().  A well-formed simulator trace produces zero.
class FlightRecorder final : public TraceSink {
 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  void on_events(std::span<const TraceEvent> events) override;
  void add(const TraceEvent& e);

  /// All flights, in order of first appearance (creation order).
  const std::vector<FlightRecord>& records() const { return records_; }
  /// Index into records() of `packet`'s latest generation; npos if unseen.
  std::size_t flight_of(std::uint32_t packet) const;

  const std::vector<RetransmitEvent>& retransmits() const {
    return retransmits_;
  }
  const std::vector<LinkFaultEvent>& fault_events() const {
    return fault_events_;
  }
  /// Per-link aggregates of every link a kTransmit or kQueueDepth event
  /// named, in order of first appearance.  Sized by the links the trace
  /// touches, not by the host, so a Q_24 trace fits.
  const std::vector<LinkUse>& links() const { return links_; }
  /// The links() entry of host link `link`; nullptr if no event named it.
  const LinkUse* link_use(std::uint64_t link) const;

  // Run-level reconstruction — these must match the originating SimResult.

  /// Steps the run took: last event step + 1 for the packet simulators (the
  /// final arrival/drop happens *during* step makespan-1), last event step
  /// for wormhole traces (their step counter is 1-based).  0 for an empty
  /// stream.
  int makespan() const;
  int last_event_step() const { return last_step_; }
  bool worm_trace() const { return worm_trace_; }
  /// Total trace events consumed (all kinds).
  std::uint64_t events_seen() const { return events_seen_; }

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }
  std::uint64_t releases() const { return releases_; }
  std::uint64_t transmissions() const { return transmissions_; }
  /// Sum of kStall values: total packet-steps spent waiting on busy links.
  std::uint64_t stalled_packet_steps() const { return stalled_; }
  /// Highest generation index opened for any packet id (0 = no reuse).
  std::uint32_t max_generation() const { return max_generation_; }
  /// Peak per-link transmission count and the link attaining it (smallest
  /// such id); the measured edge congestion of the run.
  std::uint64_t peak_congestion() const;
  std::uint64_t peak_congestion_link() const;

  std::uint64_t inconsistencies() const {
    return inconsistencies_ + unclaimed_implicit_;
  }
  const std::string& first_inconsistency() const {
    return first_inconsistency_;
  }

 private:
  void note_inconsistency(const TraceEvent& e, const char* what);
  FlightRecord& open_flight(std::uint32_t packet, std::int32_t release_step);
  LinkUse& link_slot(std::uint64_t link);
  /// Index into slot_ holding `link`, or of the empty slot it would take.
  std::size_t find_slot(std::uint64_t link) const;

  // Per packet id: index of its open (non-terminal) record, npos if none.
  std::vector<std::size_t> open_;
  // Per packet id: generations opened so far.
  std::vector<std::uint32_t> generations_;
  // Per open record: where the packet currently queues.  The link is known
  // from kRelease for hop 0 and becomes kNoLink after each transmit (the
  // next link is only revealed by the next event naming it).
  struct PendingHop {
    std::uint64_t link = TraceEvent::kNoLink;
    std::int32_t enqueue_step = -1;
  };
  std::vector<PendingHop> pending_;  // parallel to records_

  std::vector<FlightRecord> records_;
  std::vector<RetransmitEvent> retransmits_;
  std::vector<LinkFaultEvent> fault_events_;
  std::vector<LinkUse> links_;
  // Open-addressing index of links_ by host id: each slot holds a links_
  // index + 1 (0 = empty); linear probing, at most half full.
  std::vector<std::uint32_t> slot_;

  int last_step_ = -1;
  std::uint64_t events_seen_ = 0;
  bool any_events_ = false;
  bool worm_trace_ = false;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t releases_ = 0;
  std::uint64_t transmissions_ = 0;
  std::uint64_t stalled_ = 0;
  std::uint32_t max_generation_ = 0;
  std::uint64_t inconsistencies_ = 0;
  // Flights opened by a kTransmit with no prior release and not (yet)
  // claimed by a kWormStart — see the kTransmit handler.
  std::uint64_t unclaimed_implicit_ = 0;
  std::string first_inconsistency_;
};

/// Decodes one JSONL trace object (step/kind/packet/link/value members)
/// into a TraceEvent.  Returns false with *is_meta == true for the optional
/// `{"kind":"meta",...}` header, and false with an `error` message for
/// records that are neither.
bool trace_event_from_json(const JsonValue& v, TraceEvent* out, bool* is_meta,
                           std::string* error);

struct TraceLoadResult {
  bool ok = false;
  std::string error;  // parse/decode diagnostic with line number
  std::size_t lines = 0;
  std::size_t events = 0;
  /// Host dimension from the meta header; -1 when the trace has none.
  int dims = -1;
  /// Packet count from the meta header; 0 when absent.
  std::uint64_t meta_packets = 0;
};

/// Streams a JSONL trace file into `rec` without buffering the file.
TraceLoadResult load_trace_jsonl(const std::string& path, FlightRecorder& rec);

}  // namespace hyperpath::obs
