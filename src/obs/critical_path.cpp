#include "obs/critical_path.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

namespace hyperpath::obs {

TransmitIndex::TransmitIndex(const FlightRecorder& rec) {
  const auto& records = rec.records();
  for (std::size_t f = 0; f < records.size(); ++f) {
    const FlightRecord& r = records[f];
    for (std::uint32_t h = 0; h < r.hops.size(); ++h) {
      entries_.push_back({r.hops[h].link, r.hops[h].transmit_step, h, f});
    }
  }
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) {
              return std::tie(a.link, a.step, a.flight, a.hop) <
                     std::tie(b.link, b.step, b.flight, b.hop);
            });
}

TransmitIndex::Ref TransmitIndex::at(std::uint64_t link,
                                     std::int32_t step) const {
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), std::pair{link, step},
      [](const Entry& e, const std::pair<std::uint64_t, std::int32_t>& key) {
        return std::pair{e.link, e.step} < key;
      });
  if (it == entries_.end() || it->link != link || it->step != step) {
    return {};
  }
  return {it->flight, it->hop};
}

std::size_t makespan_terminal(const FlightRecorder& rec) {
  const auto& records = rec.records();
  std::size_t best = FlightRecorder::npos;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const FlightRecord& r = records[i];
    if (r.end_step < 0) continue;
    if (best == FlightRecorder::npos) {
      best = i;
      continue;
    }
    const FlightRecord& b = records[best];
    if (r.end_step != b.end_step) {
      if (r.end_step > b.end_step) best = i;
    } else if (r.packet != b.packet) {
      if (r.packet < b.packet) best = i;
    } else if (r.generation < b.generation) {
      best = i;
    }
  }
  return best;
}

CriticalPath extract_critical_path(const FlightRecorder& rec,
                                   const TransmitIndex& index,
                                   std::size_t terminal) {
  CriticalPath cp;
  const auto& records = rec.records();
  if (terminal == FlightRecorder::npos || terminal >= records.size()) {
    return cp;
  }
  const FlightRecord& term = records[terminal];
  if (term.end_step < 0) return cp;
  cp.end_step = term.end_step;
  cp.start_step = term.end_step;

  const auto push = [&](std::size_t f, std::uint64_t link, std::int32_t step,
                        bool via_block) {
    const FlightRecord& r = records[f];
    cp.nodes.push_back({f, r.packet, r.generation, link, step, via_block});
  };

  // Current position in the backward walk: hop `hop` of flight `f`, or
  // none yet when the terminal needs a pseudo-node first.
  std::size_t f = terminal;
  std::uint32_t hop = 0;
  bool have_hop = false;
  bool via_block = false;

  if (term.dropped()) {
    // The drop itself ends the run; the packet sat waiting on the dead
    // link since pending_enqueue_step, blocked until the fault hit.
    push(terminal, term.drop_link, term.end_step, false);
    if (term.pending_enqueue_step >= 0 &&
        term.pending_enqueue_step < term.end_step) {
      const auto b = index.at(term.drop_link, term.end_step - 1);
      if (b.valid()) {
        f = b.flight;
        hop = b.hop;
        have_hop = true;
        via_block = true;
        ++cp.handoffs;
      }
    } else if (!term.hops.empty()) {
      hop = static_cast<std::uint32_t>(term.hops.size() - 1);
      have_hop = true;
    }
    if (!have_hop) {
      cp.start_step = term.release_step >= 0 ? term.release_step
                                             : term.end_step;
      std::reverse(cp.nodes.begin(), cp.nodes.end());
      return cp;
    }
  } else {
    // Delivered: the arrival step is the last hop's transmit step.
    if (term.hops.empty()) {
      cp.start_step = term.release_step >= 0 ? term.release_step
                                             : term.end_step;
      return cp;
    }
    hop = static_cast<std::uint32_t>(term.hops.size() - 1);
    have_hop = true;
  }

  while (have_hop) {
    const HopSpan& h = records[f].hops[hop];
    push(f, h.link, h.transmit_step, via_block);
    if (h.transmit_step > h.enqueue_step) {
      // The packet waited: the link served someone else at every step of
      // the wait, so the transmit one step earlier is the blocker.
      const auto b = index.at(h.link, h.transmit_step - 1);
      if (!b.valid()) {
        // Unexplainable wait — incomplete trace; stop here.
        cp.start_step = h.transmit_step;
        break;
      }
      f = b.flight;
      hop = b.hop;
      via_block = true;
      ++cp.handoffs;
    } else if (hop > 0) {
      --hop;
      via_block = false;
    } else {
      const FlightRecord& r = records[f];
      cp.start_step =
          r.release_step >= 0 ? r.release_step : h.enqueue_step;
      break;
    }
  }
  std::reverse(cp.nodes.begin(), cp.nodes.end());
  return cp;
}

namespace {

/// Cross-checks reconstructed queue depths against the redundant depth
/// values the sweep recorded.  Returns the number of disagreements.
std::uint64_t validate_depths(const FlightRecorder& rec) {
  struct Diff {
    std::uint64_t link;
    std::int32_t step;
    std::int32_t delta;
  };
  struct Query {
    std::uint64_t link;
    std::int32_t step;
    std::uint32_t expect;
  };
  std::vector<Diff> diffs;
  std::vector<Query> queries;
  for (const FlightRecord& r : rec.records()) {
    for (const HopSpan& h : r.hops) {
      // Present in the queue at every sweep from enqueue to transmit.
      diffs.push_back({h.link, h.enqueue_step, +1});
      diffs.push_back({h.link, h.transmit_step + 1, -1});
      queries.push_back({h.link, h.transmit_step, h.depth_seen});
    }
    if (r.dropped() && r.pending_enqueue_step >= 0 &&
        r.drop_link != TraceEvent::kNoLink &&
        r.pending_enqueue_step < r.end_step) {
      // Waiting on the dead link until the drop pass removed it, which
      // runs *before* the sweep of the drop step.
      diffs.push_back({r.drop_link, r.pending_enqueue_step, +1});
      diffs.push_back({r.drop_link, r.end_step, -1});
    }
  }
  const auto by_link_step = [](const auto& a, const auto& b) {
    return std::pair{a.link, a.step} < std::pair{b.link, b.step};
  };
  std::sort(diffs.begin(), diffs.end(), by_link_step);
  std::sort(queries.begin(), queries.end(), by_link_step);

  // One pass per link over its diffs and queries, both in step order.
  std::uint64_t mismatches = 0;
  std::size_t di = 0;
  for (std::size_t qi = 0; qi < queries.size();) {
    const std::uint64_t link = queries[qi].link;
    while (di < diffs.size() && diffs[di].link < link) ++di;
    std::int64_t depth = 0;
    std::uint32_t peak_at_sweeps = 0;
    for (; qi < queries.size() && queries[qi].link == link; ++qi) {
      const Query& query = queries[qi];
      while (di < diffs.size() && diffs[di].link == link &&
             diffs[di].step <= query.step) {
        depth += diffs[di].delta;
        ++di;
      }
      if (depth != static_cast<std::int64_t>(query.expect)) ++mismatches;
      peak_at_sweeps =
          std::max(peak_at_sweeps, static_cast<std::uint32_t>(depth));
    }
    // The link's recorded high-water mark is the max depth over its
    // sweeps, and every sweep of a nonempty queue transmits.
    const LinkUse* use = rec.link_use(link);
    if (use != nullptr && peak_at_sweeps != use->peak_queue) ++mismatches;
  }
  return mismatches;
}

}  // namespace

TraceAnalysis analyze_flights(const FlightRecorder& rec) {
  TraceAnalysis a;
  a.makespan = rec.makespan();
  a.delivered = rec.delivered();
  a.dropped = rec.dropped();
  a.releases = rec.releases();
  a.transmissions = rec.transmissions();
  a.retransmissions = rec.retransmits().size();
  for (const LinkFaultEvent& fe : rec.fault_events()) {
    ++(fe.repaired ? a.repairs : a.faults);
  }
  a.peak_congestion = rec.peak_congestion();
  a.peak_congestion_link = rec.peak_congestion_link();
  for (const LinkUse& lu : rec.links()) {
    if (lu.transmissions > 0) ++a.links_used;
    a.max_queue = std::max(a.max_queue, lu.peak_queue);
  }

  a.queue_wait = FixedHistogram::exponential();
  a.total_wait = FixedHistogram::exponential();
  a.latency = FixedHistogram::exponential();
  for (const FlightRecord& r : rec.records()) {
    for (const HopSpan& h : r.hops) a.queue_wait.observe(h.queue_wait());
    if (!r.hops.empty()) a.total_wait.observe(r.total_queue_wait());
    if (r.delivered()) a.latency.observe(static_cast<double>(r.latency));
  }

  if (!rec.worm_trace()) {
    const TransmitIndex index(rec);
    a.critical_path =
        extract_critical_path(rec, index, makespan_terminal(rec));
    a.depth_mismatches = validate_depths(rec);
  }
  a.inconsistencies = rec.inconsistencies();
  return a;
}

}  // namespace hyperpath::obs
