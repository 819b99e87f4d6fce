// Hierarchical construction/simulation profiler.
//
// ProfileSpan is a nestable RAII span.  Spans on one thread form a call
// tree: entering "construct" inside "trace_grid" creates (or re-visits) the
// child node "construct" under "trace_grid", and every visit accumulates
// into that node, so a loop that enters the same span 1000 times costs one
// node, not 1000.  Each node records call count, wall time
// (steady_clock), CPU time (the thread CPU-time clock) and the largest
// peak-RSS growth (getrusage ru_maxrss delta, KiB) any single visit caused
// — memory blowups show up in the span tree the same way time regressions
// do.
//
// ProfileSpan is the only span type.  Every span of the global profiler
// that closes at depth 0 on its thread is also added, by name and wall
// seconds, to MetricsRegistry::global()'s timings: the "timings" sections
// of bench reports and `hyperpath_cli trace --json`, and the Prometheus
// `_seconds_total` series.  Instance profilers write nothing there.
//
// Two exports:
//
//   * write_json        — the aggregated span tree, nested objects mirroring
//                         the call structure.  Embedded in MetricsRegistry
//                         documents and bench::Report records as "profile".
//   * write_chrome_trace — chrome://tracing "traceEvents" JSON ("X" complete
//                         events, microsecond timestamps), loadable in
//                         Perfetto / chrome://tracing.  Individual span
//                         occurrences are kept in a bounded per-thread log
//                         (kMaxEvents newest); the aggregated tree stays
//                         exact even when the event log wraps.
//
// Cost model: the profiler is disabled by default.  A ProfileSpan
// constructed while disabled performs exactly one relaxed atomic load and
// one branch — no clock reads, no allocation, nothing in the destructor
// (HP_PROFILE_SPAN in hot paths is safe to leave in production builds).
// While enabled, entering a previously-seen span does no allocation either:
// node lookup walks the parent's existing children (spans per level are
// few), and only a first visit appends a node.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace hyperpath::obs {

class JsonWriter;

class Profiler {
 public:
  /// Newest chrome-trace events retained per thread.
  static constexpr std::size_t kMaxEvents = std::size_t{1} << 16;

  /// The process-wide profiler used by ProfileSpan and HP_PROFILE_SPAN.
  static Profiler& global();

  Profiler() = default;
  /// Instance profilers (tests) must be destroyed on the thread that used
  /// them; the global profiler is never destroyed.
  ~Profiler();
  Profiler(const Profiler&) = delete;
  Profiler& operator=(const Profiler&) = delete;

  /// Enabling resets nothing: spans accumulate until reset().
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Span entry/exit.  Callers go through ProfileSpan, which guarantees
  /// begin/end pairing per thread; `name` must outlive the profiler's next
  /// reset() (string literals in practice).
  void begin(const char* name);
  void end();

  /// One aggregated node, preorder with depth (children follow parents).
  struct NodeView {
    std::string name;
    int depth = 0;           // 0 = root span of its thread
    std::uint64_t count = 0;
    double wall_seconds = 0;
    double cpu_seconds = 0;
    /// Largest growth of the process peak RSS (getrusage ru_maxrss, KiB)
    /// observed across this span's visits.  Nonzero only for visits that
    /// pushed the process to a new memory high-water mark, so construction
    /// -phase blowups land on the span that allocated them.
    std::uint64_t max_rss_delta_kb = 0;
  };
  /// Aggregated tree over every thread that ever recorded a span, threads
  /// in registration order.  Safe to call while disabled.
  std::vector<NodeView> nodes() const;

  /// {"<name>":{"count":..,"wall_seconds":..,"cpu_seconds":..,
  ///  "children":{...}}} — one object value merging all threads (span names
  ///  colliding across threads aggregate into one node).
  void write_json(JsonWriter& w) const;
  std::string to_json() const;

  /// {"traceEvents":[{"name":..,"ph":"X","ts":..,"dur":..,"pid":..,
  ///  "tid":..},...],"displayTimeUnit":"ms"} — timestamps are microseconds
  ///  since the first enable.
  void write_chrome_trace(JsonWriter& w) const;
  std::string chrome_trace_json() const;
  /// Writes chrome_trace_json() + newline to `path`; false on I/O failure.
  bool dump_chrome_trace(const std::string& path) const;

  /// Total events dropped from the bounded chrome-trace logs.
  std::uint64_t events_dropped() const;

  /// Drops all recorded spans and events (tests, repeated bench runs).
  /// Must not race with in-flight spans.
  void reset();

 private:
  struct Node {
    const char* name = nullptr;
    std::int32_t parent = -1;      // index into nodes, -1 = thread root list
    std::int32_t first_child = -1;
    std::int32_t next_sibling = -1;
    std::uint64_t count = 0;
    double wall_seconds = 0;
    double cpu_seconds = 0;
    std::uint64_t max_rss_delta_kb = 0;  // largest single-visit peak growth
  };

  struct Occurrence {
    const char* name;
    std::uint64_t start_us;  // since profiler epoch
    std::uint64_t dur_us;
    std::int32_t depth;
    std::uint64_t rss_delta_kb;  // peak-RSS growth during this occurrence
  };

  struct Frame {
    std::int32_t node;
    std::uint64_t wall_start_ns;
    double cpu_start;
    std::uint64_t rss_start_kb;  // process peak RSS at entry
  };

  /// All per-thread state; registered once per thread, torn down only by
  /// the profiler (thread exit leaves the data for export).
  struct ThreadProfile {
    std::vector<Node> nodes;
    std::vector<std::int32_t> roots;   // top-level spans, creation order
    std::vector<Frame> stack;
    std::vector<Occurrence> events;    // ring buffer, newest kMaxEvents
    std::size_t event_head = 0;
    std::uint64_t events_total = 0;
    std::uint64_t tid = 0;
  };

  ThreadProfile& this_thread();
  std::int32_t child_named(ThreadProfile& tp, std::int32_t parent,
                           const char* name) const;

  std::atomic<bool> enabled_{false};
  std::uint64_t epoch_ns_ = 0;  // steady_clock origin for chrome timestamps

  mutable std::mutex mu_;  // guards threads_ registration and exports
  std::vector<ThreadProfile*> threads_;
};

/// RAII span.  Disabled profiler: constructor is one relaxed load + branch,
/// destructor one branch.  A span that observed `enabled` at construction
/// closes itself even if the profiler is disabled mid-span, keeping the
/// per-thread stack balanced.
class ProfileSpan {
 public:
  explicit ProfileSpan(const char* name,
                       Profiler* p = &Profiler::global()) : p_(p) {
    if (p_->enabled()) {
      active_ = true;
      p_->begin(name);
    }
  }

  ProfileSpan(const ProfileSpan&) = delete;
  ProfileSpan& operator=(const ProfileSpan&) = delete;

  ~ProfileSpan() {
    if (active_) p_->end();
  }

 private:
  Profiler* p_;
  bool active_ = false;
};

}  // namespace hyperpath::obs

/// Span over the enclosing scope; hot-path friendly (see cost model above).
#define HP_PROFILE_CONCAT2(a, b) a##b
#define HP_PROFILE_CONCAT(a, b) HP_PROFILE_CONCAT2(a, b)
#define HP_PROFILE_SPAN(name) \
  ::hyperpath::obs::ProfileSpan HP_PROFILE_CONCAT(hp_profile_span_, \
                                                  __LINE__)(name)
