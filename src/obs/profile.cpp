#include "obs/profile.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>

#include "base/error.hpp"
#include "obs/json.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <time.h>
#endif

namespace hyperpath::obs {

namespace {

std::uint64_t wall_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Per-thread CPU seconds (user + system) from the thread's CPU-time clock,
// which the kernel brings up to date on every read.  getrusage's thread
// figures advance only at scheduler ticks, so a short span that happened to
// cross a tick was charged the whole tick and its neighbours nothing.
double cpu_now_seconds() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
#else
  return 0;
#endif
}

// Process peak resident set in KiB.  ru_maxrss is kilobytes on Linux and
// bytes on macOS; normalized here.  Monotone, so span-entry/exit deltas
// capture only growth to a new high-water mark.
std::uint64_t rss_peak_kb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss) / 1024;
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss);
#endif
#else
  return 0;
#endif
}

// Each thread caches its ThreadProfile per profiler; the vector is tiny
// (the global profiler plus any test instances).
struct TlsEntry {
  const Profiler* profiler;
  void* profile;
};
thread_local std::vector<TlsEntry> tls_entries;

}  // namespace

Profiler& Profiler::global() {
  static Profiler* p = new Profiler;  // never destroyed
  return *p;
}

Profiler::~Profiler() {
  // Instance profilers (tests) are used from the threads that created
  // them; unhook this thread's cache and free the per-thread data.  The
  // global profiler is never destroyed.
  for (std::size_t i = 0; i < tls_entries.size();) {
    if (tls_entries[i].profiler == this) {
      tls_entries.erase(tls_entries.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  for (ThreadProfile* tp : threads_) delete tp;
}

Profiler::ThreadProfile& Profiler::this_thread() {
  for (const TlsEntry& e : tls_entries) {
    if (e.profiler == this) return *static_cast<ThreadProfile*>(e.profile);
  }
  auto* tp = new ThreadProfile;
  {
    std::scoped_lock lock(mu_);
    if (epoch_ns_ == 0) epoch_ns_ = wall_now_ns();
    tp->tid = threads_.size() + 1;
    threads_.push_back(tp);
  }
  tls_entries.push_back({this, tp});
  return *tp;
}

std::int32_t Profiler::child_named(ThreadProfile& tp, std::int32_t parent,
                                   const char* name) const {
  // Walk the existing children first (no allocation on a revisit); only a
  // first visit appends a node.
  std::int32_t* head = parent < 0 ? nullptr : &tp.nodes[parent].first_child;
  if (parent < 0) {
    for (std::int32_t r : tp.roots) {
      const Node& n = tp.nodes[r];
      if (n.name == name || !std::strcmp(n.name, name)) return r;
    }
  } else {
    for (std::int32_t c = *head; c >= 0; c = tp.nodes[c].next_sibling) {
      const Node& n = tp.nodes[c];
      if (n.name == name || !std::strcmp(n.name, name)) return c;
    }
  }
  const auto idx = static_cast<std::int32_t>(tp.nodes.size());
  Node node;
  node.name = name;
  node.parent = parent;
  if (parent < 0) {
    tp.roots.push_back(idx);
  } else {
    // Append at the head: sibling order is newest-first internally and
    // restored to creation order at export.
    node.next_sibling = tp.nodes[parent].first_child;
    tp.nodes.push_back(node);
    tp.nodes[parent].first_child = idx;
    return idx;
  }
  tp.nodes.push_back(node);
  return idx;
}

void Profiler::begin(const char* name) {
  ThreadProfile& tp = this_thread();
  const std::int32_t parent =
      tp.stack.empty() ? -1 : tp.stack.back().node;
  const std::int32_t node = child_named(tp, parent, name);
  tp.stack.push_back({node, wall_now_ns(), cpu_now_seconds(), rss_peak_kb()});
}

void Profiler::end() {
  ThreadProfile& tp = this_thread();
  HP_CHECK(!tp.stack.empty(), "ProfileSpan end without begin");
  // The CPU clock is read inside the wall interval (after wall at begin,
  // before it here), and a child's reads inside its parent's: a span's CPU
  // time stays within its wall time, its children's CPU sum within its own.
  const double cpu_end = cpu_now_seconds();
  const Frame f = tp.stack.back();
  tp.stack.pop_back();
  const std::uint64_t wall_end = wall_now_ns();
  const std::uint64_t rss_end = rss_peak_kb();
  const std::uint64_t rss_delta =
      rss_end > f.rss_start_kb ? rss_end - f.rss_start_kb : 0;
  const double wall = 1e-9 * static_cast<double>(wall_end - f.wall_start_ns);
  Node& node = tp.nodes[f.node];
  ++node.count;
  node.wall_seconds += wall;
  node.cpu_seconds += cpu_end - f.cpu_start;
  node.max_rss_delta_kb = std::max(node.max_rss_delta_kb, rss_delta);

  Occurrence occ;
  occ.name = node.name;
  occ.start_us = (f.wall_start_ns - epoch_ns_) / 1000;
  occ.dur_us = (wall_end - f.wall_start_ns) / 1000;
  occ.depth = static_cast<std::int32_t>(tp.stack.size());
  occ.rss_delta_kb = rss_delta;
  if (tp.events.size() < kMaxEvents) {
    tp.events.push_back(occ);
  } else {
    tp.events[tp.event_head] = occ;
    tp.event_head = (tp.event_head + 1) % kMaxEvents;
  }
  ++tp.events_total;
}

std::vector<Profiler::NodeView> Profiler::nodes() const {
  std::scoped_lock lock(mu_);
  std::vector<NodeView> out;
  for (const ThreadProfile* tp : threads_) {
    // Preorder DFS; children are reversed back to creation order.
    struct Item {
      std::int32_t node;
      int depth;
    };
    std::vector<Item> work;
    for (auto it = tp->roots.rbegin(); it != tp->roots.rend(); ++it) {
      work.push_back({*it, 0});
    }
    while (!work.empty()) {
      const Item item = work.back();
      work.pop_back();
      const Node& n = tp->nodes[item.node];
      out.push_back({n.name, item.depth, n.count, n.wall_seconds,
                     n.cpu_seconds, n.max_rss_delta_kb});
      // first_child is newest-first, so a straight push yields creation
      // order when popped.
      for (std::int32_t c = n.first_child; c >= 0;
           c = tp->nodes[c].next_sibling) {
        work.push_back({c, item.depth + 1});
      }
    }
  }
  return out;
}

namespace {

struct MergeItem {
  const std::vector<Profiler::NodeView>* views;
  std::size_t index;
};

}  // namespace

void Profiler::write_json(JsonWriter& w) const {
  // Merge the flattened per-thread trees by name, level by level: spans
  // with the same name under the same parent (across threads) become one
  // aggregated node.
  const std::vector<NodeView> flat = nodes();

  // children_of(i): indices whose depth == depth(i)+1 between i and the
  // next node with depth <= depth(i).
  const auto children_of = [&](std::size_t i) {
    std::vector<std::size_t> out;
    if (i == static_cast<std::size_t>(-1)) {  // virtual root: depth-0 nodes
      for (std::size_t j = 0; j < flat.size(); ++j) {
        if (flat[j].depth == 0) out.push_back(j);
      }
      return out;
    }
    for (std::size_t j = i + 1; j < flat.size(); ++j) {
      if (flat[j].depth <= flat[i].depth) break;
      if (flat[j].depth == flat[i].depth + 1) out.push_back(j);
    }
    return out;
  };

  const std::function<void(const std::vector<std::size_t>&)> emit_level =
      [&](const std::vector<std::size_t>& level) {
        w.begin_object();
        std::vector<std::size_t> done;
        for (std::size_t i = 0; i < level.size(); ++i) {
          const NodeView& v = flat[level[i]];
          bool seen = false;
          for (std::size_t d : done) {
            if (flat[d].name == v.name) seen = true;
          }
          if (seen) continue;
          done.push_back(level[i]);
          std::uint64_t count = 0;
          double wall = 0, cpu = 0;
          std::uint64_t rss = 0;
          std::vector<std::size_t> kids;
          for (std::size_t j = i; j < level.size(); ++j) {
            const NodeView& u = flat[level[j]];
            if (u.name != v.name) continue;
            count += u.count;
            wall += u.wall_seconds;
            cpu += u.cpu_seconds;
            rss = std::max(rss, u.max_rss_delta_kb);
            for (std::size_t c : children_of(level[j])) kids.push_back(c);
          }
          w.key(v.name).begin_object();
          w.field("count", count);
          w.field("wall_seconds", wall);
          w.field("cpu_seconds", cpu);
          w.field("max_rss_delta_kb", rss);
          w.key("children");
          emit_level(kids);
          w.end_object();
        }
        w.end_object();
      };

  emit_level(children_of(static_cast<std::size_t>(-1)));
}

std::string Profiler::to_json() const {
  JsonWriter w;
  write_json(w);
  return w.str();
}

void Profiler::write_chrome_trace(JsonWriter& w) const {
  std::scoped_lock lock(mu_);
  w.begin_object();
  w.key("traceEvents").begin_array();
  for (const ThreadProfile* tp : threads_) {
    // Ring order: oldest event first.
    const std::size_t n = tp->events.size();
    for (std::size_t i = 0; i < n; ++i) {
      const Occurrence& o =
          tp->events[(tp->event_head + i) % (n ? n : 1)];
      w.begin_object();
      w.field("name", o.name);
      w.field("cat", "hyperpath");
      w.field("ph", "X");
      w.field("ts", o.start_us);
      w.field("dur", o.dur_us);
      w.field("pid", std::uint64_t{1});
      w.field("tid", tp->tid);
      w.key("args").begin_object();
      w.field("rss_delta_kb", o.rss_delta_kb);
      w.end_object();
      w.end_object();
    }
  }
  w.end_array();
  w.field("displayTimeUnit", "ms");
  w.end_object();
}

std::string Profiler::chrome_trace_json() const {
  JsonWriter w;
  write_chrome_trace(w);
  return w.str();
}

bool Profiler::dump_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const std::string doc = chrome_trace_json();
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  return ok;
}

std::uint64_t Profiler::events_dropped() const {
  std::scoped_lock lock(mu_);
  std::uint64_t dropped = 0;
  for (const ThreadProfile* tp : threads_) {
    dropped += tp->events_total - tp->events.size();
  }
  return dropped;
}

void Profiler::reset() {
  std::scoped_lock lock(mu_);
  for (ThreadProfile* tp : threads_) {
    HP_CHECK(tp->stack.empty(), "Profiler::reset with open spans");
    tp->nodes.clear();
    tp->roots.clear();
    tp->events.clear();
    tp->event_head = 0;
    tp->events_total = 0;
  }
}

}  // namespace hyperpath::obs
