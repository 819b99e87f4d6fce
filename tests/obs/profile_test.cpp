// Tests for the hierarchical span profiler: nesting/aggregation semantics,
// CPU-vs-wall sanity, chrome-trace export validity, and the disabled-state
// cost contract (no state mutation at all).
#include "obs/profile.hpp"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/json.hpp"
#include "obs/json_parse.hpp"
#include "obs/metrics.hpp"

namespace hyperpath {
namespace {

using obs::JsonValue;
using obs::Profiler;
using obs::ProfileSpan;
using obs::json_parse;

// Burns a little CPU so spans have measurable nonzero durations.
volatile std::uint64_t g_sink = 0;
void spin(int iters = 200000) {
  std::uint64_t acc = 0;
  for (int i = 0; i < iters; ++i) acc += static_cast<std::uint64_t>(i) * 2654435761u;
  g_sink = g_sink + acc;
}

TEST(Profiler, DisabledSpansRecordNothing) {
  Profiler p;
  ASSERT_FALSE(p.enabled());
  {
    ProfileSpan outer("outer", &p);
    ProfileSpan inner("inner", &p);
    spin(1000);
  }
  EXPECT_TRUE(p.nodes().empty());
  EXPECT_EQ(p.events_dropped(), 0u);
}

TEST(Profiler, NestingBuildsATree) {
  Profiler p;
  p.set_enabled(true);
  {
    ProfileSpan a("a", &p);
    {
      ProfileSpan b("b", &p);
      spin();
    }
    {
      ProfileSpan c("c", &p);
      spin();
    }
  }
  const auto nodes = p.nodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0].name, "a");
  EXPECT_EQ(nodes[0].depth, 0);
  EXPECT_EQ(nodes[1].name, "b");
  EXPECT_EQ(nodes[1].depth, 1);
  EXPECT_EQ(nodes[2].name, "c");
  EXPECT_EQ(nodes[2].depth, 1);
  // Parent wall time covers both children.
  EXPECT_GE(nodes[0].wall_seconds,
            nodes[1].wall_seconds + nodes[2].wall_seconds);
}

TEST(Profiler, RevisitedSpansAggregate) {
  Profiler p;
  p.set_enabled(true);
  {
    ProfileSpan root("root", &p);
    for (int i = 0; i < 100; ++i) {
      ProfileSpan child("child", &p);
    }
  }
  const auto nodes = p.nodes();
  ASSERT_EQ(nodes.size(), 2u);  // 100 visits, one node
  EXPECT_EQ(nodes[1].name, "child");
  EXPECT_EQ(nodes[1].count, 100u);
  EXPECT_EQ(nodes[0].count, 1u);
}

TEST(Profiler, SameNameDifferentParentsAreDistinctNodes) {
  Profiler p;
  p.set_enabled(true);
  {
    ProfileSpan a("a", &p);
    ProfileSpan s("setup", &p);
  }
  {
    ProfileSpan b("b", &p);
    ProfileSpan s("setup", &p);
  }
  const auto nodes = p.nodes();
  ASSERT_EQ(nodes.size(), 4u);
  EXPECT_EQ(nodes[0].name, "a");
  EXPECT_EQ(nodes[1].name, "setup");
  EXPECT_EQ(nodes[2].name, "b");
  EXPECT_EQ(nodes[3].name, "setup");
}

TEST(Profiler, CpuTimeIsSaneAgainstWallTime) {
  Profiler p;
  p.set_enabled(true);
  {
    ProfileSpan busy("busy", &p);
    // Spin for a fixed wall duration so CPU accounting granularity (which
    // can be several ms) still registers nonzero usage.
    const auto start = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() - start <
           std::chrono::milliseconds(30)) {
      spin(100000);
    }
  }
  const auto nodes = p.nodes();
  ASSERT_EQ(nodes.size(), 1u);
  EXPECT_GT(nodes[0].wall_seconds, 0.0);
  EXPECT_GT(nodes[0].cpu_seconds, 0.0);
  // A pure spin loop cannot use more CPU than ~wall (scheduling noise and
  // CPU-clock granularity allow some slack).
  EXPECT_LT(nodes[0].cpu_seconds, nodes[0].wall_seconds + 0.05);
}

TEST(Profiler, ChildrenCpuSumsToNoMoreThanParent) {
  Profiler p;
  p.set_enabled(true);
  {
    ProfileSpan root("root", &p);
    for (int i = 0; i < 300; ++i) {
      ProfileSpan child(i % 2 ? "odd" : "even", &p);
      spin(2000);
      ProfileSpan leaf("leaf", &p);
      spin(500);
    }
    spin(20000);
  }
  const auto nodes = p.nodes();
  ASSERT_EQ(nodes.size(), 5u);  // root, even, leaf, odd, leaf
  // Each clock read of a child lies inside its parent's, so the children
  // can only add up to less than the parent (rounding aside).
  constexpr double kEps = 1e-9;
  const auto& root = nodes[0];
  EXPECT_LE(nodes[1].cpu_seconds + nodes[3].cpu_seconds,
            root.cpu_seconds + kEps);
  EXPECT_LE(nodes[2].cpu_seconds, nodes[1].cpu_seconds + kEps);
  EXPECT_LE(nodes[4].cpu_seconds, nodes[3].cpu_seconds + kEps);
  for (const auto& n : nodes) {
    EXPECT_GT(n.cpu_seconds, 0.0) << n.name;
    // Nor can a span's CPU time exceed its wall time (clock skew aside).
    EXPECT_LE(n.cpu_seconds, n.wall_seconds * 1.001 + 1e-6) << n.name;
  }
}

TEST(Profiler, CpuClockResolvesShortSpans) {
  // A tick-quantized clock (getrusage's thread times advance only at
  // scheduler ticks) reads zero for most spans far shorter than a tick and
  // a whole tick for the few that straddle one.  Every short busy span
  // must read some CPU time, and none more than its wall time.
  Profiler p;
  p.set_enabled(true);
  static const char* const kNames[] = {"s0", "s1", "s2", "s3", "s4",
                                       "s5", "s6", "s7", "s8", "s9"};
  for (const char* name : kNames) {
    ProfileSpan span(name, &p);
    spin(20000);
  }
  const auto nodes = p.nodes();
  ASSERT_EQ(nodes.size(), 10u);
  for (const auto& n : nodes) {
    EXPECT_GT(n.cpu_seconds, 0.0) << n.name;
    EXPECT_LE(n.cpu_seconds, n.wall_seconds * 1.001 + 1e-6) << n.name;
  }
}

TEST(Profiler, JsonTreeParsesAndMirrorsNesting) {
  Profiler p;
  p.set_enabled(true);
  {
    ProfileSpan outer("construct", &p);
    ProfileSpan inner("guest_walk", &p);
    spin();
  }
  const auto doc = json_parse(p.to_json());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* outer = doc->find("construct");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->find("count")->as_number(), 1);
  const JsonValue* inner = outer->find("children", "guest_walk");
  ASSERT_NE(inner, nullptr);
  EXPECT_GE(inner->find("wall_seconds")->as_number(), 0.0);
}

TEST(Profiler, ChromeTraceIsValidAndNested) {
  Profiler p;
  p.set_enabled(true);
  {
    ProfileSpan outer("construct", &p);
    spin();
    {
      ProfileSpan inner("bundles", &p);
      spin();
    }
  }
  const auto doc = json_parse(p.chrome_trace_json());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->as_array().size(), 2u);
  double outer_start = 0, outer_end = 0, inner_start = 0, inner_end = 0;
  for (const JsonValue& e : events->as_array()) {
    EXPECT_EQ(e.find("ph")->as_string(), "X");
    const double ts = e.find("ts")->as_number();
    const double dur = e.find("dur")->as_number();
    if (e.find("name")->as_string() == "construct") {
      outer_start = ts;
      outer_end = ts + dur;
    } else {
      EXPECT_EQ(e.find("name")->as_string(), "bundles");
      inner_start = ts;
      inner_end = ts + dur;
    }
  }
  // Complete events nest by interval containment in the trace viewer.
  EXPECT_LE(outer_start, inner_start);
  EXPECT_GE(outer_end, inner_end);
}

TEST(Profiler, PeakRssDeltaLandsOnTheAllocatingSpan) {
  Profiler p;
  p.set_enabled(true);
  struct rusage before, after;
  ASSERT_EQ(getrusage(RUSAGE_SELF, &before), 0);
  {
    ProfileSpan span("alloc", &p);
    // Touch every page of a fresh 96 MiB block so the resident set grows.
    std::vector<std::uint8_t> big(96u << 20);
    for (std::size_t i = 0; i < big.size(); i += 4096) big[i] = 1;
    g_sink = g_sink + big[big.size() / 2];
  }
  ASSERT_EQ(getrusage(RUSAGE_SELF, &after), 0);
  const auto nodes = p.nodes();
  ASSERT_EQ(nodes.size(), 1u);
  // The span's delta is exactly the process peak growth it caused (both
  // sides read the same monotone ru_maxrss counter).  If this process had
  // already peaked above the allocation the delta is legitimately zero.
  const std::uint64_t grew =
      after.ru_maxrss > before.ru_maxrss
          ? static_cast<std::uint64_t>(after.ru_maxrss - before.ru_maxrss)
          : 0;
  if (grew > 0) {
    EXPECT_GT(nodes[0].max_rss_delta_kb, 0u);
    EXPECT_LE(nodes[0].max_rss_delta_kb, grew);
  } else {
    EXPECT_EQ(nodes[0].max_rss_delta_kb, 0u);
  }

  // The field is exported in both JSON forms.
  const auto doc = json_parse(p.to_json());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* rss = doc->find("alloc", "max_rss_delta_kb");
  ASSERT_NE(rss, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(rss->as_number()),
            nodes[0].max_rss_delta_kb);
  const auto trace = json_parse(p.chrome_trace_json());
  ASSERT_TRUE(trace.has_value());
  const auto& events = trace->find("traceEvents")->as_array();
  ASSERT_EQ(events.size(), 1u);
  const JsonValue* args_rss = events[0].find("args", "rss_delta_kb");
  ASSERT_NE(args_rss, nullptr);
  EXPECT_EQ(static_cast<std::uint64_t>(args_rss->as_number()),
            nodes[0].max_rss_delta_kb);
}

TEST(Profiler, ResetDropsEverything) {
  Profiler p;
  p.set_enabled(true);
  { ProfileSpan a("a", &p); }
  ASSERT_FALSE(p.nodes().empty());
  p.reset();
  EXPECT_TRUE(p.nodes().empty());
  EXPECT_EQ(p.events_dropped(), 0u);
  { ProfileSpan b("b", &p); }
  ASSERT_EQ(p.nodes().size(), 1u);
  EXPECT_EQ(p.nodes()[0].name, "b");
}

TEST(Profiler, EventRingDropsOldestButTreeStaysExact) {
  Profiler p;
  p.set_enabled(true);
  const int total = static_cast<int>(Profiler::kMaxEvents) + 100;
  {
    ProfileSpan root("root", &p);
    for (int i = 0; i < total; ++i) {
      ProfileSpan child("child", &p);
    }
  }
  EXPECT_GT(p.events_dropped(), 0u);
  const auto nodes = p.nodes();
  ASSERT_EQ(nodes.size(), 2u);
  EXPECT_EQ(nodes[1].count, static_cast<std::uint64_t>(total));
  // The chrome trace still parses with the retained tail.
  EXPECT_TRUE(json_parse(p.chrome_trace_json()).has_value());
}

TEST(Profiler, GlobalProfilerSpansViaMacro) {
  auto& g = Profiler::global();
  const bool was_enabled = g.enabled();
  g.set_enabled(true);
  g.reset();
  {
    HP_PROFILE_SPAN("macro_span");
  }
  bool found = false;
  for (const auto& n : g.nodes()) found = found || n.name == "macro_span";
  EXPECT_TRUE(found);
  g.reset();
  g.set_enabled(was_enabled);
}

TEST(Profiler, RootSpansBecomeTimingRecords) {
  // Only spans that close at depth 0 on their thread become records: one
  // timing record in seconds per name, summing every visit on every
  // thread.  Nested spans stay in the tree.
  Profiler p;
  p.set_enabled(true);
  for (int i = 0; i < 3; ++i) {
    ProfileSpan root("feed_root", &p);
    ProfileSpan child("feed_child", &p);
    spin(1000);
  }
  std::thread([&] {
    ProfileSpan root("feed_root", &p);
    spin(1000);
  }).join();
  {
    ProfileSpan other("feed_other", &p);
  }

  double root_wall = 0;
  for (const auto& n : p.nodes()) {
    if (n.name == "feed_root") root_wall += n.wall_seconds;
  }
  EXPECT_GT(root_wall, 0);

  obs::JsonWriter w;
  w.begin_array();
  obs::write_root_span_records(w, p);
  w.end_array();
  const auto doc = json_parse(w.str());
  ASSERT_TRUE(doc.has_value()) << w.str();
  const auto& records = doc->as_array();
  ASSERT_EQ(records.size(), 2u) << w.str();  // feed_other, feed_root
  const JsonValue& root = records[1];
  EXPECT_EQ(root.find("name")->as_string(), "feed_root");
  EXPECT_DOUBLE_EQ(root.find("value")->as_number(), root_wall)
      << "both threads' visits sum";
  EXPECT_EQ(root.find("unit")->as_string(), "s");
  EXPECT_EQ(root.find("class")->as_string(), "timing");
  EXPECT_EQ(records[0].find("name")->as_string(), "feed_other");
  EXPECT_EQ(w.str().find("feed_child"), std::string::npos)
      << "nested spans stay local";
}

}  // namespace
}  // namespace hyperpath
