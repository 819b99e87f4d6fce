#include "sim/faults.hpp"

#include <algorithm>
#include <charconv>
#include <sstream>

#include "base/bits.hpp"
#include "base/error.hpp"

namespace hyperpath {

void FaultSet::add_dead(std::uint64_t id,
                        std::vector<std::uint64_t>* flipped) {
  if (++dead_[id] == 1 && flipped != nullptr) flipped->push_back(id);
}

void FaultSet::remove_dead(std::uint64_t id,
                           std::vector<std::uint64_t>* flipped,
                           const char* what) {
  auto it = dead_.find(id);
  if (it == dead_.end()) throw Error(what);
  if (--it->second == 0) {
    dead_.erase(it);
    if (flipped != nullptr) flipped->push_back(id);
  }
}

int FaultSet::node_faults(Node v) const {
  const auto it = dead_nodes_.find(v);
  return it == dead_nodes_.end() ? 0 : it->second;
}

void FaultSet::apply(const FaultEvent& e,
                     std::vector<std::uint64_t>* flipped) {
  const bool link = e.kind == FaultEventKind::kLinkDown ||
                    e.kind == FaultEventKind::kLinkUp;
  if (link) {
    HP_CHECK(host_.is_edge(e.u, e.v), "not a hypercube link");
  } else {
    HP_CHECK(e.u < host_.num_nodes(), "node outside the hypercube");
  }
  switch (e.kind) {
    case FaultEventKind::kLinkDown:
      add_dead(host_.edge_id(e.u, e.v), flipped);
      add_dead(host_.edge_id(e.v, e.u), flipped);
      break;
    case FaultEventKind::kLinkUp: {
      // A directed link's kills are its live link faults plus one per
      // live node fault of an endpoint; a link-up may undo only the former.
      const char* what = "link-up repairs a link that is not down";
      const auto kills = dead_.find(host_.edge_id(e.u, e.v));
      const int link_faults = (kills == dead_.end() ? 0 : kills->second) -
                              node_faults(e.u) - node_faults(e.v);
      if (link_faults <= 0) throw Error(what);
      remove_dead(host_.edge_id(e.u, e.v), flipped, what);
      remove_dead(host_.edge_id(e.v, e.u), flipped, what);
      break;
    }
    case FaultEventKind::kNodeDown:
      ++dead_nodes_[e.u];
      for (Dim d = 0; d < host_.dims(); ++d) {
        const Node w = host_.neighbor(e.u, d);
        add_dead(host_.edge_id(e.u, w), flipped);
        add_dead(host_.edge_id(w, e.u), flipped);
      }
      break;
    case FaultEventKind::kNodeUp: {
      auto it = dead_nodes_.find(e.u);
      if (it == dead_nodes_.end()) {
        throw Error("node-up repairs a node that is not down");
      }
      if (--it->second == 0) dead_nodes_.erase(it);
      const char* what = "node-up repairs a link that is not down";
      for (Dim d = 0; d < host_.dims(); ++d) {
        const Node w = host_.neighbor(e.u, d);
        remove_dead(host_.edge_id(e.u, w), flipped, what);
        remove_dead(host_.edge_id(w, e.u), flipped, what);
      }
      break;
    }
  }
}

void FaultSet::kill_link(Node u, Node v) {
  apply({0, FaultEventKind::kLinkDown, u, v});
}

void FaultSet::revive_link(Node u, Node v) {
  apply({0, FaultEventKind::kLinkUp, u, v});
}

void FaultSet::kill_node(Node v) {
  apply({0, FaultEventKind::kNodeDown, v, 0});
}

void FaultSet::revive_node(Node v) {
  apply({0, FaultEventKind::kNodeUp, v, 0});
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

bool FaultSet::path_alive(std::span<const Node> path) const {
  for (Node v : path) {
    if (node_dead(v)) return false;
  }
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    if (link_dead(path[i], path[i + 1])) return false;
  }
  return true;
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
    f.apply(e);
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
  // (step, line) of every event in file order.  Stable-sorted by step, as
  // the schedule sorts its events, entry i is the line of event i.
  std::vector<std::pair<int, std::size_t>> event_lines;
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
      event_lines.emplace_back(step, lineno);
    } catch (const Error& e) {
      throw fail(e.what());
    }
  }
  if (out.empty()) {
    throw Error("fault schedule must start with a dims header");
  }
  // A repair with no live fault to undo is reported at the repair's line.
  std::stable_sort(
      event_lines.begin(), event_lines.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });
  FaultSet replay(dims);
  const std::vector<FaultEvent>& events = out.back().events();
  for (std::size_t i = 0; i < events.size(); ++i) {
    try {
      replay.apply(events[i]);
    } catch (const Error& e) {
      lineno = event_lines[i].second;
      throw fail(e.what());
    }
  }
  return std::move(out.back());
}

// ---------------------------------------------------------------------------
// FaultTimeline

FaultTimeline::FaultTimeline(const FaultSchedule& schedule)
    : state_(schedule.dims()), events_(&schedule.events()) {}

const FaultTimeline::StepDelta& FaultTimeline::advance_to(int step) {
  delta_.clear();
  while (cursor_ < events_->size() && (*events_)[cursor_].step <= step) {
    state_.apply((*events_)[cursor_], &delta_);
    ++cursor_;
  }
  // Each link's state alternates with every flip it records, so the links
  // whose state differs across the advance are those flipped an odd number
  // of times.
  std::sort(delta_.begin(), delta_.end());
  std::size_t kept = 0;
  for (std::size_t i = 0; i < delta_.size();) {
    std::size_t j = i + 1;
    while (j < delta_.size() && delta_[j] == delta_[i]) ++j;
    if ((j - i) % 2 == 1) delta_[kept++] = delta_[i];
    i = j;
  }
  delta_.resize(kept);
  return delta_;
}

}  // namespace hyperpath
