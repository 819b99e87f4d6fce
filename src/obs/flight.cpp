#include "obs/flight.hpp"

#include <algorithm>

#include "obs/json_parse.hpp"

namespace hyperpath::obs {

void FlightRecorder::on_events(std::span<const TraceEvent> events) {
  for (const TraceEvent& e : events) add(e);
}

void FlightRecorder::note_inconsistency(const TraceEvent& e,
                                        const char* what) {
  ++inconsistencies_;
  if (first_inconsistency_.empty()) {
    first_inconsistency_ = std::string(what) + " (step " +
                           std::to_string(e.step) + ", kind " +
                           to_string(e.kind) + ", packet " +
                           std::to_string(e.packet) + ")";
  }
}

FlightRecord& FlightRecorder::open_flight(std::uint32_t packet,
                                          std::int32_t release_step) {
  if (packet >= open_.size()) {
    open_.resize(packet + 1, npos);
    generations_.resize(packet + 1, 0);
  }
  FlightRecord rec;
  rec.packet = packet;
  rec.generation = generations_[packet]++;
  max_generation_ = std::max(max_generation_, rec.generation);
  rec.release_step = release_step;
  open_[packet] = records_.size();
  records_.push_back(std::move(rec));
  pending_.push_back({});
  return records_.back();
}

std::size_t FlightRecorder::find_slot(std::uint64_t link) const {
  const std::size_t mask = slot_.size() - 1;
  // Fibonacci hashing: host ids u·n + dim are far from uniform.
  std::size_t s = static_cast<std::size_t>(
                      (link * 0x9E3779B97F4A7C15ull) >> 32) &
                  mask;
  for (;; s = (s + 1) & mask) {
    const std::uint32_t i = slot_[s];
    if (i == 0 || links_[i - 1].link == link) return s;
  }
}

LinkUse& FlightRecorder::link_slot(std::uint64_t link) {
  if (2 * (links_.size() + 1) > slot_.size()) {
    slot_.assign(std::max<std::size_t>(64, 2 * slot_.size()), 0);
    for (std::uint32_t i = 0; i < links_.size(); ++i) {
      slot_[find_slot(links_[i].link)] = i + 1;
    }
  }
  std::uint32_t& i = slot_[find_slot(link)];
  if (i == 0) {
    links_.push_back({.link = link});
    i = static_cast<std::uint32_t>(links_.size());
  }
  return links_[i - 1];
}

const LinkUse* FlightRecorder::link_use(std::uint64_t link) const {
  if (slot_.empty()) return nullptr;
  const std::uint32_t i = slot_[find_slot(link)];
  return i == 0 ? nullptr : &links_[i - 1];
}

std::size_t FlightRecorder::flight_of(std::uint32_t packet) const {
  if (packet < open_.size() && open_[packet] != npos) return open_[packet];
  // Terminated flights: scan backwards for the latest generation.  Rarely
  // needed (callers mostly iterate records()); kept simple.
  for (std::size_t i = records_.size(); i-- > 0;) {
    if (records_[i].packet == packet) return i;
  }
  return npos;
}

void FlightRecorder::add(const TraceEvent& e) {
  any_events_ = true;
  ++events_seen_;
  last_step_ = std::max(last_step_, e.step);
  switch (e.kind) {
    case TraceEventKind::kRelease: {
      if (e.packet < open_.size() && open_[e.packet] != npos) {
        // A release while a flight is open never happens in well-formed
        // streams; close the stale record so the new one can proceed.
        note_inconsistency(e, "release while a flight is already open");
        open_[e.packet] = npos;
      }
      open_flight(e.packet, e.step);
      pending_.back() = {e.link, e.step};
      ++releases_;
      break;
    }
    case TraceEventKind::kTransmit: {
      ++transmissions_;
      LinkUse& lu = link_slot(e.link);
      ++lu.transmissions;
      if (lu.first_step < 0) lu.first_step = e.step;
      lu.last_step = e.step;
      if (e.packet == TraceEvent::kNoPacket) break;  // defensive
      std::size_t idx =
          e.packet < open_.size() ? open_[e.packet] : npos;
      if (idx == npos) {
        // Wormhole traces emit a worm's kTransmit batch *before* its
        // kWormStart within the acquisition step (kTransmit sorts ahead of
        // kWormStart), so an implicit open here is normal — the kWormStart
        // claims it moments later.  An implicit open that no kWormStart
        // ever claims is a malformed packet stream; inconsistencies()
        // folds the unclaimed count in.
        ++unclaimed_implicit_;
        open_flight(e.packet, /*release_step=*/-1);
        idx = open_[e.packet];
        pending_[idx] = {e.link, e.step};
      }
      FlightRecord& rec = records_[idx];
      PendingHop& p = pending_[idx];
      std::int32_t enq;
      if (p.enqueue_step >= 0) {
        enq = p.enqueue_step;
        if (p.link != TraceEvent::kNoLink && p.link != e.link) {
          note_inconsistency(e, "transmit on a different link than queued");
        }
      } else if (!rec.hops.empty()) {
        enq = rec.hops.back().transmit_step + 1;
      } else {
        enq = e.step;
      }
      // Worm acquisition transmits all share one step; no wait semantics.
      if (enq > e.step) enq = e.step;
      rec.hops.push_back({e.link, enq, e.step,
                          static_cast<std::uint32_t>(e.value)});
      // The next hop's link is unknown until an event names it.
      p = {TraceEvent::kNoLink, e.step + 1};
      break;
    }
    case TraceEventKind::kArrive: {
      ++delivered_;
      const std::size_t idx =
          e.packet < open_.size() ? open_[e.packet] : npos;
      if (idx == npos) {
        note_inconsistency(e, "arrival for a packet never released");
        break;
      }
      FlightRecord& rec = records_[idx];
      rec.fate = FlightRecord::Fate::kDelivered;
      rec.end_step = e.step;
      rec.latency = e.value;
      if (rec.release_step >= 0 &&
          static_cast<std::uint64_t>(e.step + 1 - rec.release_step) !=
              e.value) {
        note_inconsistency(e, "arrival latency disagrees with release step");
      }
      open_[e.packet] = npos;
      break;
    }
    case TraceEventKind::kDrop: {
      ++dropped_;
      const std::size_t idx =
          e.packet < open_.size() ? open_[e.packet] : npos;
      if (idx == npos) {
        // Dropped before release: the packet's route was cut by a standing
        // fault, so it never entered the network.  (Note these ids index
        // the submitted workload, which may collide with a later wave's
        // wave-local ids — generations keep the records distinct.)
        FlightRecord& rec = open_flight(e.packet, /*release_step=*/-1);
        rec.fate = FlightRecord::Fate::kDropped;
        rec.end_step = e.step;
        rec.drop_link = e.link;
        open_[e.packet] = npos;
        break;
      }
      FlightRecord& rec = records_[idx];
      rec.fate = FlightRecord::Fate::kDropped;
      rec.end_step = e.step;
      rec.drop_link = e.link;
      rec.pending_enqueue_step = pending_[idx].enqueue_step;
      if (e.value != rec.hops.size()) {
        note_inconsistency(e, "drop hop count disagrees with record");
      }
      open_[e.packet] = npos;
      break;
    }
    case TraceEventKind::kStall:
      stalled_ += e.value;
      break;
    case TraceEventKind::kQueueDepth: {
      LinkUse& lu = link_slot(e.link);
      lu.peak_queue =
          std::max(lu.peak_queue, static_cast<std::uint32_t>(e.value));
      break;
    }
    case TraceEventKind::kWormStart: {
      worm_trace_ = true;
      // The worm's kTransmit batch this step already opened its record.
      const std::size_t idx =
          e.packet < open_.size() ? open_[e.packet] : npos;
      if (idx == npos) {
        open_flight(e.packet, e.step);
      } else {
        if (records_[idx].release_step < 0 && unclaimed_implicit_ > 0) {
          --unclaimed_implicit_;
        }
        records_[idx].release_step = e.step;
      }
      ++releases_;
      break;
    }
    case TraceEventKind::kWormDone: {
      worm_trace_ = true;
      const std::size_t idx =
          e.packet < open_.size() ? open_[e.packet] : npos;
      if (idx == npos) {
        note_inconsistency(e, "worm_done for a worm never started");
        break;
      }
      FlightRecord& rec = records_[idx];
      rec.fate = FlightRecord::Fate::kDelivered;
      rec.end_step = e.step;
      rec.latency = e.value;  // completion span: done step - release step
      ++delivered_;
      open_[e.packet] = npos;
      break;
    }
    case TraceEventKind::kFault:
      fault_events_.push_back({e.step, e.link, false});
      break;
    case TraceEventKind::kRepair:
      fault_events_.push_back({e.step, e.link, true});
      break;
    case TraceEventKind::kRetransmit:
      retransmits_.push_back({e.step, e.packet, e.link, e.value});
      break;
  }
}

int FlightRecorder::makespan() const {
  if (!any_events_) return 0;
  return worm_trace_ ? last_step_ : last_step_ + 1;
}

std::uint64_t FlightRecorder::peak_congestion() const {
  std::uint64_t peak = 0;
  for (const LinkUse& lu : links_) peak = std::max(peak, lu.transmissions);
  return peak;
}

std::uint64_t FlightRecorder::peak_congestion_link() const {
  const std::uint64_t peak = peak_congestion();
  if (peak == 0) return TraceEvent::kNoLink;
  std::uint64_t link = TraceEvent::kNoLink;  // the smallest id at the peak
  for (const LinkUse& lu : links_) {
    if (lu.transmissions == peak) link = std::min(link, lu.link);
  }
  return link;
}

bool trace_event_from_json(const JsonValue& v, TraceEvent* out, bool* is_meta,
                           std::string* error) {
  *is_meta = false;
  if (!v.is_object()) {
    if (error) *error = "trace record is not an object";
    return false;
  }
  const JsonValue* kind = v.find("kind");
  if (!kind || !kind->is_string()) {
    if (error) *error = "trace record has no \"kind\"";
    return false;
  }
  if (kind->as_string() == "meta") {
    *is_meta = true;
    return false;
  }
  TraceEvent e;
  if (!trace_event_kind_from_string(kind->as_string(), &e.kind)) {
    if (error) *error = "unknown trace event kind \"" + kind->as_string() +
                        "\"";
    return false;
  }
  const JsonValue* step = v.find("step");
  if (!step || !step->is_number()) {
    if (error) *error = "trace record has no numeric \"step\"";
    return false;
  }
  e.step = static_cast<std::int32_t>(step->as_number());
  if (const JsonValue* p = v.find("packet"); p && p->is_number()) {
    e.packet = static_cast<std::uint32_t>(p->as_number());
  }
  if (const JsonValue* l = v.find("link"); l && l->is_number()) {
    e.link = static_cast<std::uint64_t>(l->as_number());
  }
  if (const JsonValue* val = v.find("value"); val && val->is_number()) {
    e.value = static_cast<std::uint64_t>(val->as_number());
  }
  *out = e;
  return true;
}

TraceLoadResult load_trace_jsonl(const std::string& path,
                                 FlightRecorder& rec) {
  TraceLoadResult out;
  JsonlReader reader(path);
  if (!reader.ok()) {
    out.error = reader.error().message;
    return out;
  }
  JsonValue v;
  while (reader.next(&v)) {
    ++out.lines;
    TraceEvent e;
    bool is_meta = false;
    std::string err;
    if (trace_event_from_json(v, &e, &is_meta, &err)) {
      rec.add(e);
      ++out.events;
      continue;
    }
    if (is_meta) {
      if (const JsonValue* d = v.find("dims"); d && d->is_number()) {
        out.dims = static_cast<int>(d->as_number());
      }
      if (const JsonValue* p = v.find("packets"); p && p->is_number()) {
        out.meta_packets = static_cast<std::uint64_t>(p->as_number());
      }
      continue;
    }
    out.error = "line " + std::to_string(reader.line()) + ": " + err;
    return out;
  }
  if (reader.failed()) {
    out.error = reader.error().message;
    return out;
  }
  out.ok = true;
  return out;
}

}  // namespace hyperpath::obs
