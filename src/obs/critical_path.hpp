// Causal critical-path extraction and congestion analysis over assembled
// flight records.
//
// The store-and-forward model admits an exact blocking explanation.  Link
// arbitration is work-conserving — a nonempty queue transmits exactly one
// packet every step — so a packet that waited on link L from step e until
// its transmit at step t did so only because L was serving someone else at
// every step of [e, t); the packet that crossed L at step t-1 is its
// *proximate blocker*.  Walking that relation backwards from the run's
// last terminal event visits one transmission per step: the
// makespan-determining causal chain.  Each walk iteration moves exactly
// one step into the past (a blocked hop jumps to the blocker's transmit at
// t-1; an unblocked hop steps to the packet's own previous transmit), so
// the chain's span equals the makespan whenever it roots at a step-0
// release — the chain *is* the reason the run took as long as it did.
//
// analyze_flights() also cross-checks the records against the redundant
// depth information in the stream: the queue depth reconstructed from hop
// spans at every transmit must equal the depth the sweep recorded in that
// kTransmit's value, and each link's reconstructed peak must equal its
// last kQueueDepth high-water mark.  A trace that passes has provably
// consistent per-link timelines.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"

namespace hyperpath::obs {

/// Per-link transmit timeline: resolves which flight crossed `link` at
/// `step` — the proximate blocker of anyone waiting on the link then.
class TransmitIndex {
 public:
  static constexpr std::size_t npos = FlightRecorder::npos;

  struct Ref {
    std::size_t flight = npos;  // index into FlightRecorder::records()
    std::uint32_t hop = 0;
    bool valid() const { return flight != npos; }
  };

  explicit TransmitIndex(const FlightRecorder& rec);

  Ref at(std::uint64_t link, std::int32_t step) const;

 private:
  struct Entry {
    std::uint64_t link;
    std::int32_t step;
    std::uint32_t hop;
    std::size_t flight;
  };
  // Every hop's transmit, sorted by (link, step): one transmit per link
  // per step, so at() is one binary search.  Sized by the hops, not the
  // host's link count.
  std::vector<Entry> entries_;
};

/// One node of the causal chain: `flight` transmitted (or was dropped) on
/// `link` at `step`.
struct ChainNode {
  std::size_t flight = FlightRecorder::npos;
  std::uint32_t packet = TraceEvent::kNoPacket;
  std::uint32_t generation = 0;
  std::uint64_t link = TraceEvent::kNoLink;
  std::int32_t step = 0;
  /// True when the *next* chain node (one step later) waited behind this
  /// transmission — i.e. this node was reached by a blocking jump.
  bool blocks_successor = false;
};

struct CriticalPath {
  /// Chronological (earliest first); empty for worm traces or empty runs.
  std::vector<ChainNode> nodes;
  std::int32_t start_step = 0;  // release step of the chain's origin
  std::int32_t end_step = -1;   // final terminal step
  /// Steps the chain spans; equals the makespan when the origin released
  /// at step 0 (phase workloads always do).
  int length() const {
    return nodes.empty() ? 0 : end_step - start_step + 1;
  }
  /// Blocking jumps: how many times the chain changed packets because a
  /// queue, not the packet's own progress, set the pace.
  int handoffs = 0;
};

/// Walks the blocking graph backwards from the terminal event of `flight`
/// (records()[terminal]).  `index` must be built over the same recorder.
CriticalPath extract_critical_path(const FlightRecorder& rec,
                                   const TransmitIndex& index,
                                   std::size_t terminal);

/// Everything `hyperpath_cli analyze` and the benches report about one
/// trace.
struct TraceAnalysis {
  int makespan = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  std::uint64_t releases = 0;
  std::uint64_t transmissions = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t faults = 0;
  std::uint64_t repairs = 0;

  /// Measured edge congestion: max transmissions over any directed link.
  std::uint64_t peak_congestion = 0;
  std::uint64_t peak_congestion_link = TraceEvent::kNoLink;
  /// Links that transmitted at least once.
  std::uint64_t links_used = 0;
  std::uint32_t max_queue = 0;

  FixedHistogram queue_wait;  // per completed hop, in steps
  FixedHistogram total_wait;  // per flight, total queued steps
  FixedHistogram latency;     // per delivered flight (kArrive values)

  CriticalPath critical_path;

  /// Transmits whose reconstructed queue depth disagrees with the recorded
  /// sweep depth, plus links whose reconstructed peak misses the recorded
  /// high-water mark.  0 for a complete, well-formed trace.
  std::uint64_t depth_mismatches = 0;
  /// Stream-level violations the recorder counted during assembly.
  std::uint64_t inconsistencies = 0;
};

/// Runs the full analysis: aggregates, per-hop histograms, the critical
/// path from the last terminal event, and the depth cross-check.  Critical
/// path and depth validation are skipped for wormhole traces (their hop
/// spans carry no queue semantics).
TraceAnalysis analyze_flights(const FlightRecorder& rec);

/// Index into records() of the flight whose terminal event decides the
/// makespan: latest end_step, ties broken by smallest (packet, generation).
/// npos when no flight terminated.
std::size_t makespan_terminal(const FlightRecorder& rec);

}  // namespace hyperpath::obs
