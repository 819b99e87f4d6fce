// Link- and node-fault injection (the fault-tolerance application of
// Sections 1 and 9).
//
// Two layers:
//
//   * FaultSet — a static snapshot of dead *directed* links (a broken
//     physical link is modeled as both directions dead; a dead node as all
//     its incident links dead plus the node itself).  Multiple-path
//     embeddings tolerate faults structurally: a guest edge with w
//     edge-disjoint paths still delivers over every path that avoids the
//     dead links, and combined with information dispersal (see ida.hpp) the
//     message survives as long as enough fragments get through.
//
//   * FaultSchedule / FaultTimeline — *timed* fault and repair events
//     (permanent and transient, links and nodes) that arrive mid-simulation.
//     Every replay applies events through the one FaultSet::apply: a
//     snapshot (FaultSchedule::state_at), the parser's repair check, and
//     FaultTimeline, which is a FaultSet plus an event cursor.  A faulted
//     run_plan (store_forward.hpp) advances a timeline step by step,
//     truncating in-flight packets at the break point; the recovery engine
//     (recovery.hpp) adds sender-side failover onto the surviving paths of
//     each bundle.
#pragma once

#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/rng.hpp"
#include "embed/embedding.hpp"

namespace hyperpath {

struct FaultEvent;

class FaultSet {
 public:
  explicit FaultSet(int dims) : host_(dims) {}

  /// Marks the physical link between u and v dead (both directions).
  void kill_link(Node u, Node v);

  /// Revives one prior kill_link(u, v).  A link killed twice (e.g.
  /// directly and via a node fault) stays dead until both kills are
  /// revived.  Throws if the link has no live link fault: a node fault's
  /// kill is undone only by revive_node.
  void revive_link(Node u, Node v);

  /// Marks node v dead: v itself plus all 2n directed links incident to it
  /// (in and out).  Models a processor failure, so node-disjoint path
  /// bundles can be exercised.
  void kill_node(Node v);

  /// Revives one prior kill_node(v).  Throws if v is not dead.
  void revive_node(Node v);

  /// Applies one timed event (the four calls above).  With `flipped`,
  /// appends every directed link id whose dead/alive state the event
  /// changes, in the order it changes.
  void apply(const FaultEvent& e,
             std::vector<std::uint64_t>* flipped = nullptr);

  /// Kills `count` distinct random physical links.  Throws if `count` is
  /// negative or exceeds the number of physical links of Q_dims.
  static FaultSet random(int dims, int count, Rng& rng);

  /// Kills `count` distinct random nodes.  Throws if `count` is negative or
  /// exceeds the number of nodes of Q_dims.
  static FaultSet random_nodes(int dims, int count, Rng& rng);

  bool link_dead(Node u, Node v) const {
    return link_dead(host_.edge_id(u, v));
  }
  bool link_dead(std::uint64_t directed_id) const {
    return dead_.contains(directed_id);
  }

  bool node_dead(Node v) const { return dead_nodes_.contains(v); }

  /// True iff every hop of the path is alive and no node on it is dead.
  bool path_alive(std::span<const Node> path) const;

  std::size_t num_dead_directed() const { return dead_.size(); }
  std::size_t num_dead_nodes() const { return dead_nodes_.size(); }

 private:
  void add_dead(std::uint64_t id, std::vector<std::uint64_t>* flipped);
  void remove_dead(std::uint64_t id, std::vector<std::uint64_t>* flipped,
                   const char* what);
  int node_faults(Node v) const;  // live node-down events of v

  Hypercube host_;
  // Directed link id -> number of active kills (a link can be dead both
  // directly and through an endpoint's node fault).
  std::unordered_map<std::uint64_t, int> dead_;
  std::unordered_map<Node, int> dead_nodes_;
};

/// Result of delivering one guest edge's message over its path bundle under
/// faults.
struct BundleDelivery {
  int paths_total = 0;
  int paths_alive = 0;
};

/// Evaluates which of the bundle's paths survive the fault set.  `bundle`
/// is a MultiPathEmbedding's BundleView or any other range of paths.
template <typename Bundle>
BundleDelivery deliver_over_bundle(const FaultSet& faults,
                                   const Bundle& bundle) {
  BundleDelivery d;
  for (const auto& p : bundle) {
    ++d.paths_total;
    d.paths_alive += faults.path_alive(p) ? 1 : 0;
  }
  return d;
}

/// For every guest edge of a multipath embedding, the number of surviving
/// paths.  Used to measure fault tolerance of width-w embeddings.
std::vector<BundleDelivery> deliver_phase(const FaultSet& faults,
                                          const MultiPathEmbedding& emb);

// ---------------------------------------------------------------------------
// Timed fault schedules

enum class FaultEventKind : std::uint8_t {
  kLinkDown = 0,
  kLinkUp,
  kNodeDown,
  kNodeUp,
};

const char* to_string(FaultEventKind kind);

/// One timed fault or repair.  `u`/`v` are the link endpoints for link
/// events; node events use `u` only.
struct FaultEvent {
  int step = 0;
  FaultEventKind kind = FaultEventKind::kLinkDown;
  Node u = 0;
  Node v = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// Parameters of a randomized timed fault schedule (FaultSchedule::random).
/// The Monte-Carlo campaign driver (sim/montecarlo.hpp) draws thousands of
/// these per campaign; every knob is deterministic given the Rng.
struct RandomScheduleSpec {
  /// Fault arrival steps are uniform in [0, window).
  int window = 8;
  /// Fraction of the host's physical links to fault (distinct links;
  /// count = round(link_rate * num_undirected_edges), clamped to the link
  /// count).  The campaign's "fault intensity" knob.
  double link_rate = 0.05;
  /// Fraction of the host's nodes to fault (distinct nodes).
  double node_rate = 0.0;
  /// Probability that a fault is transient — paired with a repair event
  /// `min_repair..max_repair` steps after the down event.
  double transient_fraction = 0.5;
  int min_repair = 1;
  int max_repair = 16;
};

/// An ordered list of timed fault/repair events on Q_dims.  Events are kept
/// sorted by step (stable in insertion order within a step), so replaying a
/// schedule is deterministic.  Serializable to a small line-oriented text
/// format for CLI replay (`hyperpath_cli faults replay FILE`):
///
///   dims 8            # header, required first
///   0 link-down 3 7   # step kind endpoints
///   4 node-down 12
///   10 link-up 3 7    # transient faults pair a -down with a later -up
///   # comments and blank lines are ignored
class FaultSchedule {
 public:
  explicit FaultSchedule(int dims);

  int dims() const { return host_.dims(); }
  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  /// Permanent link fault at `step` (both directions of the physical link).
  void link_down(int step, Node u, Node v);
  /// Repairs one prior link fault at `step`.
  void link_up(int step, Node u, Node v);
  /// Permanent node fault at `step` (the node plus all incident links).
  void node_down(int step, Node v);
  /// Repairs one prior node fault at `step`.
  void node_up(int step, Node v);
  /// Transient link fault: down at `step`, repaired at `repair_step`.
  void transient_link(int step, int repair_step, Node u, Node v);
  /// Transient node fault: down at `step`, repaired at `repair_step`.
  void transient_node(int step, int repair_step, Node v);

  /// A randomized timed schedule: distinct link faults and node faults with
  /// uniform arrival steps, a transient fraction paired with repair events.
  /// Deterministic given the Rng state — the Monte-Carlo driver derives one
  /// Rng per trial from (campaign seed, trial index), so campaigns are
  /// exactly reproducible.  Throws on a malformed spec (negative rates,
  /// window < 1, max_repair < min_repair).
  static FaultSchedule random(int dims, const RandomScheduleSpec& spec,
                              Rng& rng);

  /// Static snapshot after applying every event with event.step <= step.
  /// The sender-side view a recovery protocol probes before retransmitting.
  FaultSet state_at(int step) const;

  /// Final state (every event applied) — the permanent faults.
  FaultSet final_state() const;

  std::string serialize() const;
  /// Parses the serialize() format; throws hyperpath::Error on malformed
  /// input (unknown directive, bad endpoints, missing dims header, a
  /// repair with no live fault to undo once events are sorted).  Error
  /// messages carry the 1-based line number of the offending line
  /// ("fault schedule line N: ..."), matching the JsonlReader convention,
  /// so CLI replay reports point at the exact line of the file.
  static FaultSchedule parse(const std::string& text);

 private:
  void add(FaultEvent e);

  Hypercube host_;
  std::vector<FaultEvent> events_;  // sorted by step, stable
};

/// Replay cursor over a FaultSchedule: a FaultSet the simulators advance
/// once per step.  They keep their own ordered lists of dead links, updated
/// from each advance's delta, so purge order (and hence the emitted trace)
/// is canonical.
class FaultTimeline {
 public:
  explicit FaultTimeline(const FaultSchedule& schedule);

  /// Directed link ids whose dead/alive state differs across one advance,
  /// sorted ascending.  A link that flips an even number of times within
  /// the advance (down and up again) is not in it.
  using StepDelta = std::vector<std::uint64_t>;

  /// Applies every event with step <= `step` (monotone per replay) and
  /// returns the links it flipped; link_dead tells which way.
  const StepDelta& advance_to(int step);

  bool link_dead(std::uint64_t directed_id) const {
    return state_.link_dead(directed_id);
  }

 private:
  FaultSet state_;
  const std::vector<FaultEvent>* events_;
  std::size_t cursor_ = 0;
  StepDelta delta_;
};

}  // namespace hyperpath
