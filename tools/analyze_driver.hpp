// Shared driver of the offline trace analyzer, used by both the standalone
// `trace_query` binary and the `hyperpath_cli analyze` subcommand (one
// parser, one output format — the binary is just a thin main()).
//
//   <trace.jsonl>                    JSONL trace (obs::JsonlFileSink format)
//   --json [FILE]                    machine-readable summary
//                                    (default SUMMARY_trace_query.json)
//   --heatmap [FILE]                 queue-depth heatmap CSV, step × dim
//                                    (default HEATMAP_trace_query.csv)
//   --blame [K]                      slowest-packet blame report (default 5)
//   --dims N                         host dimension override (else taken
//                                    from the trace's meta header line)
//   --packets-per-edge P --width W   phase-workload grouping: adds latency
//                                    percentiles per bundle-path index
//   --expect-makespan M              verify the reconstruction against the
//   --expect-delivered D             originating SimResult; mismatch → exit 1
//
// The analyzer re-derives makespan, delivered/dropped counts and
// transmissions from the event stream alone and cross-checks every queue
// depth the sweep recorded; any inconsistency makes the exit status
// nonzero, so a zero exit *proves* the trace is complete and internally
// consistent.  Depends only on hyperpath_obs.
#pragma once

#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/critical_path.hpp"
#include "obs/flight.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "parse_number.hpp"

namespace hyperpath::tools {

struct AnalyzeOptions {
  std::string trace_path;
  bool json = false;
  std::string json_path;
  bool heatmap = false;
  std::string heatmap_path;
  int blame = 0;
  int dims = -1;
  int packets_per_edge = 0;
  int width = 0;
  long long expect_makespan = -1;
  long long expect_delivered = -1;
};

inline void analyze_usage(std::FILE* out) {
  std::fputs(
      "usage: analyze <trace.jsonl> [options]\n"
      "  --json [FILE]            write machine-readable summary JSON\n"
      "  --heatmap [FILE]         write queue-depth heatmap CSV (step x "
      "dimension)\n"
      "  --blame [K]              print the K slowest packets with their "
      "blockers (default 5)\n"
      "  --dims N                 host dimension (default: trace meta "
      "header)\n"
      "  --packets-per-edge P --width W\n"
      "                           phase grouping: latency percentiles per "
      "bundle-path index\n"
      "  --expect-makespan M      fail unless the reconstructed makespan == "
      "M\n"
      "  --expect-delivered D     fail unless the reconstructed deliveries "
      "== D\n",
      out);
}

/// Parses analyzer flags; returns false (after printing usage) on a flag
/// it does not understand or a malformed or out-of-range number.
inline bool parse_analyze_args(int argc, char** argv, AnalyzeOptions* opt) {
  const auto value_or_eq = [&](const std::string& a, const char* flag,
                               int& i, std::string* out) {
    const std::string f = flag;
    if (a == f && i + 1 < argc) {
      *out = argv[++i];
      return true;
    }
    if (a.rfind(f + "=", 0) == 0) {
      *out = a.substr(f.size() + 1);
      return true;
    }
    return false;
  };
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    std::string v;
    bool ok = true;
    if (a == "--json" && (i + 1 >= argc || argv[i + 1][0] == '-')) {
      opt->json = true;
    } else if (value_or_eq(a, "--json", i, &v)) {
      opt->json = true;
      opt->json_path = v;
    } else if (a == "--heatmap" && (i + 1 >= argc || argv[i + 1][0] == '-')) {
      opt->heatmap = true;
    } else if (value_or_eq(a, "--heatmap", i, &v)) {
      opt->heatmap = true;
      opt->heatmap_path = v;
    } else if (a == "--blame" && (i + 1 >= argc || argv[i + 1][0] == '-')) {
      opt->blame = 5;
    } else if (value_or_eq(a, "--blame", i, &v)) {
      ok = parse_number("--blame", v.c_str(), 1, INT_MAX, opt->blame);
    } else if (value_or_eq(a, "--dims", i, &v)) {
      ok = parse_number("--dims", v.c_str(), 1, 30, opt->dims);
    } else if (value_or_eq(a, "--packets-per-edge", i, &v)) {
      ok = parse_number("--packets-per-edge", v.c_str(), 1, INT_MAX,
                        opt->packets_per_edge);
    } else if (value_or_eq(a, "--width", i, &v)) {
      ok = parse_number("--width", v.c_str(), 1, INT_MAX, opt->width);
    } else if (value_or_eq(a, "--expect-makespan", i, &v)) {
      ok = parse_number("--expect-makespan", v.c_str(), 0LL, LLONG_MAX,
                        opt->expect_makespan);
    } else if (value_or_eq(a, "--expect-delivered", i, &v)) {
      ok = parse_number("--expect-delivered", v.c_str(), 0LL, LLONG_MAX,
                        opt->expect_delivered);
    } else if (opt->trace_path.empty() && !a.empty() && a[0] != '-') {
      opt->trace_path = a;
    } else {
      std::fprintf(stderr, "analyze: unknown argument '%s'\n", a.c_str());
      ok = false;
    }
    if (!ok) {
      analyze_usage(stderr);
      return false;
    }
  }
  if (opt->trace_path.empty()) {
    std::fprintf(stderr, "analyze: missing trace file\n");
    analyze_usage(stderr);
    return false;
  }
  return true;
}

/// "link 1043 (130->131 dim 3)" when dims is known, "link 1043" otherwise.
inline std::string describe_link(std::uint64_t link, int dims) {
  if (link == obs::TraceEvent::kNoLink) return "no link";
  std::string s = "link " + std::to_string(link);
  if (dims > 0) {
    const std::uint64_t tail = link / static_cast<std::uint64_t>(dims);
    const int d = static_cast<int>(link % static_cast<std::uint64_t>(dims));
    const std::uint64_t head = tail ^ (std::uint64_t{1} << d);
    s += " (" + std::to_string(tail) + "->" + std::to_string(head) +
         " dim " + std::to_string(d) + ")";
  }
  return s;
}

/// Latency histograms grouped by bundle-path index.  Phase workloads number
/// packets edge-major (id = edge * p + j) and assign packet j to bundle
/// path j mod w (sim/phase.hpp), so the path index is recoverable from the
/// id alone when all bundles share one width — true for the paper's
/// constructions.
inline std::vector<obs::FixedHistogram> latency_by_path_index(
    const obs::FlightRecorder& rec, int packets_per_edge, int width) {
  std::vector<obs::FixedHistogram> out(
      static_cast<std::size_t>(width), obs::FixedHistogram::exponential());
  for (const obs::FlightRecord& r : rec.records()) {
    if (!r.delivered()) continue;
    const std::uint32_t j =
        r.packet % static_cast<std::uint32_t>(packets_per_edge);
    out[j % static_cast<std::uint32_t>(width)].observe(
        static_cast<double>(r.latency));
  }
  return out;
}

inline bool write_heatmap_csv(const std::string& path,
                              const obs::FlightRecorder& rec, int dims,
                              int makespan) {
  // queued[s][d]: packets sitting in a dim-d link queue at the sweep of
  // step s, via interval endpoints (hop present from enqueue to transmit;
  // a dropped pending hop until the step before the purge removed it).
  std::vector<std::int64_t> diff(
      static_cast<std::size_t>(makespan + 1) * dims, 0);
  const auto bump = [&](std::int32_t from, std::int32_t to, int d) {
    if (from > to || from >= makespan) return;
    to = std::min(to, makespan - 1);
    diff[static_cast<std::size_t>(from) * dims + d] += 1;
    diff[static_cast<std::size_t>(to + 1) * dims + d] -= 1;
  };
  for (const obs::FlightRecord& r : rec.records()) {
    for (const obs::HopSpan& h : r.hops) {
      bump(h.enqueue_step, h.transmit_step, static_cast<int>(h.link % dims));
    }
    if (r.dropped() && r.pending_enqueue_step >= 0 &&
        r.drop_link != obs::TraceEvent::kNoLink) {
      bump(r.pending_enqueue_step, r.end_step - 1,
           static_cast<int>(r.drop_link % dims));
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::perror(path.c_str());
    return false;
  }
  std::fputs("step", f);
  for (int d = 0; d < dims; ++d) std::fprintf(f, ",dim%d", d);
  std::fputc('\n', f);
  std::vector<std::int64_t> row(static_cast<std::size_t>(dims), 0);
  for (int s = 0; s < makespan; ++s) {
    std::fprintf(f, "%d", s);
    for (int d = 0; d < dims; ++d) {
      row[d] += diff[static_cast<std::size_t>(s) * dims + d];
      std::fprintf(f, ",%lld", static_cast<long long>(row[d]));
    }
    std::fputc('\n', f);
  }
  std::fclose(f);
  return true;
}

inline void print_blame_report(const obs::FlightRecorder& rec, int top,
                               int dims) {
  const auto& records = rec.records();
  std::vector<std::size_t> order(records.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const auto wa = records[a].total_queue_wait();
    const auto wb = records[b].total_queue_wait();
    if (wa != wb) return wa > wb;
    if (records[a].packet != records[b].packet) {
      return records[a].packet < records[b].packet;
    }
    return records[a].generation < records[b].generation;
  });
  const obs::TransmitIndex index(rec);
  const int count = std::min<int>(top, static_cast<int>(order.size()));
  std::printf("blame: top %d flights by total queue wait\n", count);
  for (int rank = 0; rank < count; ++rank) {
    const obs::FlightRecord& r = records[order[rank]];
    const char* fate = r.delivered() ? "delivered"
                      : r.dropped()  ? "dropped"
                                     : "in flight";
    std::printf(
        "  #%d packet %u gen %u: released %d, %s at step %d, %zu hops, "
        "waited %lld steps",
        rank + 1, r.packet, r.generation, r.release_step, fate, r.end_step,
        r.hops.size(), static_cast<long long>(r.total_queue_wait()));
    if (r.delivered()) {
      std::printf(" (latency %llu)",
                  static_cast<unsigned long long>(r.latency));
    }
    std::printf("\n");
    // The hop that cost the most, and who was holding the link.
    const obs::HopSpan* worst = nullptr;
    for (const obs::HopSpan& h : r.hops) {
      if (!worst || h.queue_wait() > worst->queue_wait()) worst = &h;
    }
    if (worst && worst->queue_wait() > 0) {
      std::printf("     worst hop: %s waited %d [enqueued %d, crossed %d]",
                  describe_link(worst->link, dims).c_str(),
                  worst->queue_wait(), worst->enqueue_step,
                  worst->transmit_step);
      const auto blocker =
          index.at(worst->link, worst->transmit_step - 1);
      if (blocker.valid()) {
        std::printf(", blocked by packet %u",
                    records[blocker.flight].packet);
      }
      std::printf("\n");
    }
    if (r.dropped()) {
      std::printf("     truncated at %s\n",
                  describe_link(r.drop_link, dims).c_str());
    }
  }
}

inline bool write_summary_json(
    const std::string& path, const AnalyzeOptions& opt,
    const obs::FlightRecorder& rec, const obs::TraceAnalysis& a, int dims,
    const std::vector<obs::FixedHistogram>& by_path) {
  obs::JsonWriter w;
  w.begin_object();
  w.field("experiment", "trace_query");
  w.key("params").begin_object();
  w.field("trace_file", opt.trace_path);
  w.field("dims", dims);
  w.field("packets_per_edge", opt.packets_per_edge);
  w.field("width", opt.width);
  w.end_object();
  w.key("metrics").begin_object();
  w.field("makespan", a.makespan);
  w.field("delivered", a.delivered);
  w.field("dropped", a.dropped);
  w.field("releases", a.releases);
  w.field("transmissions", a.transmissions);
  w.field("retransmissions", a.retransmissions);
  w.field("faults", a.faults);
  w.field("repairs", a.repairs);
  w.field("stalled_packet_steps", rec.stalled_packet_steps());
  w.field("max_generation",
          static_cast<std::uint64_t>(rec.max_generation()));
  w.field("peak_congestion", a.peak_congestion);
  w.field("peak_congestion_link", a.peak_congestion_link ==
                                          obs::TraceEvent::kNoLink
                                      ? -1.0
                                      : static_cast<double>(
                                            a.peak_congestion_link));
  w.field("links_used", a.links_used);
  w.field("max_queue", static_cast<std::uint64_t>(a.max_queue));
  w.field("queue_wait_p50", a.queue_wait.quantile(0.5));
  w.field("queue_wait_p99", a.queue_wait.quantile(0.99));
  w.field("queue_wait_max", a.queue_wait.max());
  w.field("latency_p50", a.latency.quantile(0.5));
  w.field("latency_p99", a.latency.quantile(0.99));
  w.field("critical_path_length", a.critical_path.length());
  w.field("critical_path_handoffs", a.critical_path.handoffs);
  w.field("depth_mismatches", a.depth_mismatches);
  w.field("inconsistencies", a.inconsistencies);
  w.end_object();
  w.key("queue_wait");
  a.queue_wait.write_json(w);
  w.key("total_wait");
  a.total_wait.write_json(w);
  w.key("latency");
  a.latency.write_json(w);
  if (!by_path.empty()) {
    w.key("latency_by_path_index").begin_array();
    for (std::size_t i = 0; i < by_path.size(); ++i) {
      w.begin_object();
      w.field("path_index", i);
      w.field("count", by_path[i].count());
      w.field("p50", by_path[i].quantile(0.5));
      w.field("p99", by_path[i].quantile(0.99));
      w.field("mean", by_path[i].mean());
      w.field("max", by_path[i].max());
      w.end_object();
    }
    w.end_array();
  }
  // Full chain for short runs; truncated (but still bracketed by
  // start/end) beyond 4096 nodes so pathological traces stay loadable.
  constexpr std::size_t kMaxChainNodes = 4096;
  const auto& chain = a.critical_path.nodes;
  w.key("critical_path").begin_object();
  w.field("start_step", a.critical_path.start_step);
  w.field("end_step", a.critical_path.end_step);
  w.field("length", a.critical_path.length());
  w.field("handoffs", a.critical_path.handoffs);
  w.field("truncated", chain.size() > kMaxChainNodes);
  w.key("nodes").begin_array();
  for (std::size_t i = 0; i < chain.size() && i < kMaxChainNodes; ++i) {
    const obs::ChainNode& nd = chain[i];
    w.begin_object();
    w.field("step", nd.step);
    w.field("packet", static_cast<std::uint64_t>(nd.packet));
    w.field("generation", static_cast<std::uint64_t>(nd.generation));
    w.field("link", nd.link == obs::TraceEvent::kNoLink
                        ? -1.0
                        : static_cast<double>(nd.link));
    w.field("blocks_successor", nd.blocks_successor);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  w.end_object();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::perror(path.c_str());
    return false;
  }
  std::fputs(w.str().c_str(), f);
  std::fputc('\n', f);
  std::fclose(f);
  return true;
}

/// Runs the analyzer over argv (flags only — no program/subcommand name).
/// Exit status: 0 clean, 1 on load failure / trace inconsistency /
/// expectation mismatch, 2 on usage errors.
inline int run_analyze(int argc, char** argv) {
  AnalyzeOptions opt;
  if (!parse_analyze_args(argc, argv, &opt)) return 2;
  if ((opt.packets_per_edge > 0) != (opt.width > 0)) {
    std::fprintf(stderr,
                 "analyze: --packets-per-edge and --width go together\n");
    return 2;
  }

  obs::FlightRecorder rec;
  const obs::TraceLoadResult load =
      obs::load_trace_jsonl(opt.trace_path, rec);
  if (!load.ok) {
    std::fprintf(stderr, "analyze: %s: %s\n", opt.trace_path.c_str(),
                 load.error.c_str());
    return 1;
  }
  const int dims = opt.dims > 0 ? opt.dims : load.dims;

  const obs::TraceAnalysis a = obs::analyze_flights(rec);

  std::printf("%s: %zu events on %zu lines%s\n", opt.trace_path.c_str(),
              load.events, load.lines,
              rec.worm_trace() ? " (wormhole trace)" : "");
  // Cross-reference the live-telemetry toolchain: a traced run made with
  // --telemetry leaves its time-series next to the trace under the
  // <stem>.telemetry.jsonl convention.
  {
    std::string sibling = opt.trace_path;
    const std::string ext = ".jsonl";
    if (sibling.size() > ext.size() &&
        sibling.compare(sibling.size() - ext.size(), ext.size(), ext) == 0) {
      sibling.resize(sibling.size() - ext.size());
    }
    sibling += ".telemetry.jsonl";
    if (std::FILE* f = std::fopen(sibling.c_str(), "r")) {
      std::fclose(f);
      std::printf(
          "telemetry time-series alongside this trace: %s "
          "(hyperpath_cli watch %s)\n",
          sibling.c_str(), sibling.c_str());
    }
  }
  std::printf(
      "reconstruction: makespan %d, %llu delivered, %llu dropped, %llu "
      "transmissions, %llu retransmissions\n",
      a.makespan, static_cast<unsigned long long>(a.delivered),
      static_cast<unsigned long long>(a.dropped),
      static_cast<unsigned long long>(a.transmissions),
      static_cast<unsigned long long>(a.retransmissions));
  std::printf(
      "congestion: peak %llu on %s, %llu links used, max queue %u\n",
      static_cast<unsigned long long>(a.peak_congestion),
      describe_link(a.peak_congestion_link, dims).c_str(),
      static_cast<unsigned long long>(a.links_used), a.max_queue);
  std::printf("queue wait: p50 %.1f, p99 %.1f, max %.0f over %llu hops\n",
              a.queue_wait.quantile(0.5), a.queue_wait.quantile(0.99),
              a.queue_wait.max(),
              static_cast<unsigned long long>(a.queue_wait.count()));
  if (a.latency.count() > 0) {
    std::printf("latency: p50 %.1f, p99 %.1f, max %.0f\n",
                a.latency.quantile(0.5), a.latency.quantile(0.99),
                a.latency.max());
  }
  if (!rec.worm_trace()) {
    std::printf(
        "critical path: %d steps [%d, %d], %d handoffs; depth cross-check: "
        "%llu mismatches\n",
        a.critical_path.length(), a.critical_path.start_step,
        a.critical_path.end_step, a.critical_path.handoffs,
        static_cast<unsigned long long>(a.depth_mismatches));
  }

  std::vector<obs::FixedHistogram> by_path;
  if (opt.packets_per_edge > 0 && opt.width > 0) {
    by_path = latency_by_path_index(rec, opt.packets_per_edge, opt.width);
    for (std::size_t i = 0; i < by_path.size(); ++i) {
      std::printf(
          "path %zu: %llu delivered, latency p50 %.1f, p99 %.1f, max %.0f\n",
          i, static_cast<unsigned long long>(by_path[i].count()),
          by_path[i].quantile(0.5), by_path[i].quantile(0.99),
          by_path[i].max());
    }
  }

  if (opt.blame > 0) print_blame_report(rec, opt.blame, dims);

  if (opt.heatmap) {
    if (dims <= 0) {
      std::fprintf(stderr,
                   "analyze: --heatmap needs --dims (trace has no meta "
                   "header)\n");
      return 2;
    }
    if (opt.heatmap_path.empty()) {
      opt.heatmap_path = "HEATMAP_trace_query.csv";
    }
    if (!write_heatmap_csv(opt.heatmap_path, rec, dims, a.makespan)) {
      return 1;
    }
    std::printf("wrote %s\n", opt.heatmap_path.c_str());
  }

  if (opt.json) {
    if (opt.json_path.empty()) opt.json_path = "SUMMARY_trace_query.json";
    if (!write_summary_json(opt.json_path, opt, rec, a, dims, by_path)) {
      return 1;
    }
    std::printf("wrote %s\n", opt.json_path.c_str());
  }

  int status = 0;
  if (a.inconsistencies > 0) {
    std::fprintf(stderr, "analyze: %llu stream inconsistencies (first: %s)\n",
                 static_cast<unsigned long long>(a.inconsistencies),
                 rec.first_inconsistency().c_str());
    status = 1;
  }
  if (a.depth_mismatches > 0) {
    std::fprintf(stderr, "analyze: %llu queue-depth mismatches\n",
                 static_cast<unsigned long long>(a.depth_mismatches));
    status = 1;
  }
  if (opt.expect_makespan >= 0 && a.makespan != opt.expect_makespan) {
    std::fprintf(stderr, "analyze: makespan %d != expected %lld\n",
                 a.makespan, opt.expect_makespan);
    status = 1;
  }
  if (opt.expect_delivered >= 0 &&
      static_cast<long long>(a.delivered) != opt.expect_delivered) {
    std::fprintf(stderr, "analyze: delivered %llu != expected %lld\n",
                 static_cast<unsigned long long>(a.delivered),
                 opt.expect_delivered);
    status = 1;
  }
  return status;
}

}  // namespace hyperpath::tools
