#include "sim/faults.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "base/bits.hpp"
#include "base/error.hpp"
#include "sim/phase.hpp"

namespace hyperpath {

void FaultSet::add_dead(std::uint64_t id) { ++dead_[id]; }

void FaultSet::remove_dead(std::uint64_t id) {
  auto it = dead_.find(id);
  HP_CHECK(it != dead_.end(), "reviving a link that is not dead");
  if (--it->second == 0) dead_.erase(it);
}

void FaultSet::kill_link(Node u, Node v) {
  HP_CHECK(host_.is_edge(u, v), "not a hypercube link");
  add_dead(host_.edge_id(u, v));
  add_dead(host_.edge_id(v, u));
}

void FaultSet::revive_link(Node u, Node v) {
  HP_CHECK(host_.is_edge(u, v), "not a hypercube link");
  remove_dead(host_.edge_id(u, v));
  remove_dead(host_.edge_id(v, u));
}

void FaultSet::kill_node(Node v) {
  HP_CHECK(v < host_.num_nodes(), "node outside the hypercube");
  ++dead_nodes_[v];
  for (Dim d = 0; d < host_.dims(); ++d) {
    const Node w = host_.neighbor(v, d);
    add_dead(host_.edge_id(v, w));
    add_dead(host_.edge_id(w, v));
  }
}

void FaultSet::revive_node(Node v) {
  HP_CHECK(v < host_.num_nodes(), "node outside the hypercube");
  auto it = dead_nodes_.find(v);
  HP_CHECK(it != dead_nodes_.end(), "reviving a node that is not dead");
  if (--it->second == 0) dead_nodes_.erase(it);
  for (Dim d = 0; d < host_.dims(); ++d) {
    const Node w = host_.neighbor(v, d);
    remove_dead(host_.edge_id(v, w));
    remove_dead(host_.edge_id(w, v));
  }
}

FaultSet FaultSet::random(int dims, int count, Rng& rng) {
  FaultSet f(dims);
  const Hypercube q(dims);
  HP_CHECK(count >= 0, "negative fault count");
  HP_CHECK(static_cast<std::uint64_t>(count) <= q.num_undirected_edges(),
           "more faults than links");
  while (f.dead_.size() < 2 * static_cast<std::size_t>(count)) {
    const Node u = static_cast<Node>(rng.below(q.num_nodes()));
    const Dim d = static_cast<Dim>(rng.below(dims));
    const Node v = q.neighbor(u, d);
    if (!f.link_dead(u, v)) f.kill_link(u, v);
  }
  return f;
}

FaultSet FaultSet::random_nodes(int dims, int count, Rng& rng) {
  FaultSet f(dims);
  const Hypercube q(dims);
  HP_CHECK(count >= 0, "negative fault count");
  HP_CHECK(static_cast<std::uint64_t>(count) <= q.num_nodes(),
           "more faults than nodes");
  while (f.dead_nodes_.size() < static_cast<std::size_t>(count)) {
    const Node v = static_cast<Node>(rng.below(q.num_nodes()));
    if (!f.node_dead(v)) f.kill_node(v);
  }
  return f;
}

bool FaultSet::path_alive(const HostPath& path) const {
  for (Node v : path) {
    if (node_dead(v)) return false;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (link_dead(path[i], path[i + 1])) return false;
  }
  return true;
}

BundleDelivery deliver_over_bundle(const FaultSet& faults,
                                   std::span<const HostPath> bundle) {
  BundleDelivery d;
  d.paths_total = static_cast<int>(bundle.size());
  for (const HostPath& p : bundle) {
    if (faults.path_alive(p)) ++d.paths_alive;
  }
  return d;
}

std::vector<BundleDelivery> deliver_phase(const FaultSet& faults,
                                          const MultiPathEmbedding& emb) {
  std::vector<BundleDelivery> out;
  out.reserve(emb.guest().num_edges());
  for (std::size_t e = 0; e < emb.guest().num_edges(); ++e) {
    out.push_back(deliver_over_bundle(faults, emb.paths(e)));
  }
  return out;
}

DegradedResult run_phase_with_faults(const FaultSet& faults,
                                     const MultiPathEmbedding& emb, int p,
                                     obs::TraceSink* sink) {
  DegradedResult out;
  obs::StepTrace trace(sink);
  std::vector<Packet> survivors;
  std::uint32_t id = 0;
  for (Packet& pk : phase_packets(emb, p)) {
    if (faults.path_alive(pk.route)) {
      survivors.push_back(std::move(pk));
    } else {
      ++out.dropped;
      if (trace.enabled()) {
        std::uint64_t dead_link = obs::TraceEvent::kNoLink;
        for (std::size_t i = 0; i + 1 < pk.route.size(); ++i) {
          if (faults.link_dead(pk.route[i], pk.route[i + 1])) {
            dead_link = emb.host().edge_id(pk.route[i], pk.route[i + 1]);
            break;
          }
        }
        trace.record({0, obs::TraceEventKind::kDrop, id, dead_link, 0});
      }
    }
    ++id;
  }
  trace.finish();
  out.delivered = survivors.size();
  StoreForwardSim sim(emb.host().dims());
  out.sim = sim.run(survivors, Arbitration::kFifo, 1 << 22, sink);
  return out;
}

// ---------------------------------------------------------------------------
// Timed fault schedules

const char* to_string(FaultEventKind kind) {
  switch (kind) {
    case FaultEventKind::kLinkDown: return "link-down";
    case FaultEventKind::kLinkUp: return "link-up";
    case FaultEventKind::kNodeDown: return "node-down";
    case FaultEventKind::kNodeUp: return "node-up";
  }
  return "unknown";
}

FaultSchedule::FaultSchedule(int dims) : host_(dims) {}

void FaultSchedule::add(FaultEvent e) {
  HP_CHECK(e.step >= 0, "fault event before step 0");
  // Stable insertion: after every existing event with step <= e.step.
  auto pos = std::upper_bound(
      events_.begin(), events_.end(), e,
      [](const FaultEvent& a, const FaultEvent& b) { return a.step < b.step; });
  events_.insert(pos, e);
}

void FaultSchedule::link_down(int step, Node u, Node v) {
  HP_CHECK(host_.is_edge(u, v), "not a hypercube link");
  add({step, FaultEventKind::kLinkDown, u, v});
}

void FaultSchedule::link_up(int step, Node u, Node v) {
  HP_CHECK(host_.is_edge(u, v), "not a hypercube link");
  add({step, FaultEventKind::kLinkUp, u, v});
}

void FaultSchedule::node_down(int step, Node v) {
  HP_CHECK(v < host_.num_nodes(), "node outside the hypercube");
  add({step, FaultEventKind::kNodeDown, v, 0});
}

void FaultSchedule::node_up(int step, Node v) {
  HP_CHECK(v < host_.num_nodes(), "node outside the hypercube");
  add({step, FaultEventKind::kNodeUp, v, 0});
}

void FaultSchedule::transient_link(int step, int repair_step, Node u, Node v) {
  HP_CHECK(repair_step > step, "repair must come after the fault");
  link_down(step, u, v);
  link_up(repair_step, u, v);
}

void FaultSchedule::transient_node(int step, int repair_step, Node v) {
  HP_CHECK(repair_step > step, "repair must come after the fault");
  node_down(step, v);
  node_up(repair_step, v);
}

FaultSchedule FaultSchedule::random(int dims, const RandomScheduleSpec& spec,
                                    Rng& rng) {
  HP_CHECK(spec.window >= 1, "random schedule window must be >= 1");
  HP_CHECK(spec.link_rate >= 0 && spec.node_rate >= 0,
           "random schedule rates must be non-negative");
  HP_CHECK(spec.transient_fraction >= 0 && spec.transient_fraction <= 1,
           "transient fraction must be in [0, 1]");
  HP_CHECK(spec.min_repair >= 1 && spec.max_repair >= spec.min_repair,
           "repair delay range must satisfy 1 <= min <= max");

  const Hypercube q(dims);
  FaultSchedule schedule(dims);

  const auto clamp_count = [](double rate, std::uint64_t total) {
    const double want = rate * static_cast<double>(total) + 0.5;
    const auto count = static_cast<std::uint64_t>(want);
    return count > total ? total : count;
  };
  const std::uint64_t link_count =
      clamp_count(spec.link_rate, q.num_undirected_edges());
  const std::uint64_t node_count = clamp_count(spec.node_rate, q.num_nodes());

  // Distinct physical links, tracked independently of node faults so the
  // intensity knob means "fraction of links explicitly cut".
  FaultSet seen_links(dims);
  for (std::uint64_t added = 0; added < link_count;) {
    const Node u = static_cast<Node>(rng.below(q.num_nodes()));
    const Dim d = static_cast<Dim>(rng.below(dims));
    const Node v = q.neighbor(u, d);
    if (seen_links.link_dead(u, v)) continue;
    seen_links.kill_link(u, v);
    const int step = static_cast<int>(rng.below(spec.window));
    if (rng.chance(spec.transient_fraction)) {
      const int repair = step + static_cast<int>(rng.between(
                                    spec.min_repair, spec.max_repair));
      schedule.transient_link(step, repair, u, v);
    } else {
      schedule.link_down(step, u, v);
    }
    ++added;
  }

  FaultSet seen_nodes(dims);
  for (std::uint64_t added = 0; added < node_count;) {
    const Node v = static_cast<Node>(rng.below(q.num_nodes()));
    if (seen_nodes.node_dead(v)) continue;
    seen_nodes.kill_node(v);
    const int step = static_cast<int>(rng.below(spec.window));
    if (rng.chance(spec.transient_fraction)) {
      const int repair = step + static_cast<int>(rng.between(
                                    spec.min_repair, spec.max_repair));
      schedule.transient_node(step, repair, v);
    } else {
      schedule.node_down(step, v);
    }
    ++added;
  }
  return schedule;
}

FaultSet FaultSchedule::state_at(int step) const {
  FaultSet f(host_.dims());
  for (const FaultEvent& e : events_) {
    if (e.step > step) break;
    switch (e.kind) {
      case FaultEventKind::kLinkDown: f.kill_link(e.u, e.v); break;
      case FaultEventKind::kLinkUp: f.revive_link(e.u, e.v); break;
      case FaultEventKind::kNodeDown: f.kill_node(e.u); break;
      case FaultEventKind::kNodeUp: f.revive_node(e.u); break;
    }
  }
  return f;
}

FaultSet FaultSchedule::final_state() const {
  return events_.empty() ? FaultSet(host_.dims())
                         : state_at(events_.back().step);
}

std::string FaultSchedule::serialize() const {
  std::ostringstream out;
  out << "dims " << host_.dims() << "\n";
  for (const FaultEvent& e : events_) {
    out << e.step << ' ' << to_string(e.kind) << ' ' << e.u;
    if (e.kind == FaultEventKind::kLinkDown ||
        e.kind == FaultEventKind::kLinkUp) {
      out << ' ' << e.v;
    }
    out << "\n";
  }
  return out.str();
}

namespace {

/// Reads the whole of `tok` as a decimal integer; false on a sign the type
/// cannot hold, an out-of-range value or any trailing character.
template <typename T>
bool parse_token(const std::string& tok, T& out) {
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

FaultSchedule FaultSchedule::parse(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::size_t lineno = 0;
  int dims = -1;
  std::vector<FaultSchedule> out;  // delayed construction until dims known
  // Every malformed line — including endpoint validation thrown from the
  // add helpers — reports its 1-based line number, matching JsonlReader.
  const auto fail = [&](const std::string& msg) -> Error {
    return Error("fault schedule line " + std::to_string(lineno) + ": " +
                 msg);
  };
  std::vector<std::string> tok;
  while (std::getline(in, line)) {
    ++lineno;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream ls(line);
    tok.clear();
    for (std::string t; ls >> t;) tok.push_back(std::move(t));
    if (tok.empty()) continue;  // blank / comment-only line
    try {
      if (tok[0] == "dims") {
        if (dims >= 0) throw Error("duplicate dims header");
        if (tok.size() != 2 || !parse_token(tok[1], dims)) {
          throw Error("malformed dims header");
        }
        if (dims < 1 || dims > Hypercube::kMaxDims) {
          throw Error("dims " + tok[1] + " out of range [1, " +
                      std::to_string(Hypercube::kMaxDims) + "]");
        }
        out.emplace_back(dims);
        continue;
      }
      if (dims <= 0) {
        throw Error("fault schedule must start with a dims header");
      }
      int step = 0;
      Node u = 0;
      if (tok.size() < 3 || !parse_token(tok[0], step) ||
          !parse_token(tok[2], u)) {
        throw Error("malformed fault schedule line: " + line);
      }
      const std::string& kind = tok[1];
      const bool link = kind == "link-down" || kind == "link-up";
      Node v = 0;
      if (link && (tok.size() < 4 || !parse_token(tok[3], v))) {
        throw Error("link event needs two endpoints: " + line);
      }
      if (tok.size() > (link ? 4u : 3u)) {
        throw Error("trailing tokens on fault schedule line: " + line);
      }
      if (kind == "link-down") {
        out.back().link_down(step, u, v);
      } else if (kind == "link-up") {
        out.back().link_up(step, u, v);
      } else if (kind == "node-down") {
        out.back().node_down(step, u);
      } else if (kind == "node-up") {
        out.back().node_up(step, u);
      } else {
        throw Error("unknown fault event kind: " + kind);
      }
    } catch (const Error& e) {
      throw fail(e.what());
    }
  }
  if (out.empty()) {
    throw Error("fault schedule must start with a dims header");
  }
  return std::move(out.back());
}

// ---------------------------------------------------------------------------
// FaultTimeline

FaultTimeline::FaultTimeline(const FaultSchedule& schedule)
    : host_(schedule.dims()), events_(&schedule.events()) {}

void FaultTimeline::kill(std::uint64_t id) {
  if (++dead_[id] == 1) delta_.died.push_back(id);
}

void FaultTimeline::revive(std::uint64_t id) {
  auto it = dead_.find(id);
  HP_CHECK(it != dead_.end(), "fault schedule repairs a link that is alive");
  if (--it->second == 0) {
    dead_.erase(it);
    delta_.repaired.push_back(id);
  }
}

void FaultTimeline::apply(const FaultEvent& e) {
  switch (e.kind) {
    case FaultEventKind::kLinkDown:
      kill(host_.edge_id(e.u, e.v));
      kill(host_.edge_id(e.v, e.u));
      break;
    case FaultEventKind::kLinkUp:
      revive(host_.edge_id(e.u, e.v));
      revive(host_.edge_id(e.v, e.u));
      break;
    case FaultEventKind::kNodeDown:
      for (Dim d = 0; d < host_.dims(); ++d) {
        const Node w = host_.neighbor(e.u, d);
        kill(host_.edge_id(e.u, w));
        kill(host_.edge_id(w, e.u));
      }
      break;
    case FaultEventKind::kNodeUp:
      for (Dim d = 0; d < host_.dims(); ++d) {
        const Node w = host_.neighbor(e.u, d);
        revive(host_.edge_id(e.u, w));
        revive(host_.edge_id(w, e.u));
      }
      break;
  }
}

const FaultTimeline::StepDelta& FaultTimeline::advance_to(int step) {
  delta_.died.clear();
  delta_.repaired.clear();
  while (cursor_ < events_->size() && (*events_)[cursor_].step <= step) {
    apply((*events_)[cursor_]);
    ++cursor_;
  }
  // A link that died and was repaired within the same advance never shows
  // up dead to the simulator — report neither transition.
  auto& died = delta_.died;
  auto& rep = delta_.repaired;
  std::sort(died.begin(), died.end());
  std::sort(rep.begin(), rep.end());
  std::vector<std::uint64_t> d2, r2;
  std::set_difference(died.begin(), died.end(), rep.begin(), rep.end(),
                      std::back_inserter(d2));
  std::set_difference(rep.begin(), rep.end(), died.begin(), died.end(),
                      std::back_inserter(r2));
  d2.erase(std::unique(d2.begin(), d2.end()), d2.end());
  r2.erase(std::unique(r2.begin(), r2.end()), r2.end());
  died = std::move(d2);
  rep = std::move(r2);
  // Links the delta reports dead must actually still be dead (a repair may
  // have fired later within the same advance at a higher kill count).
  std::erase_if(died, [this](std::uint64_t id) { return !dead_.contains(id); });
  std::erase_if(rep, [this](std::uint64_t id) { return dead_.contains(id); });
  return delta_;
}

}  // namespace hyperpath
