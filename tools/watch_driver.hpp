// Live telemetry dashboard: the `hyperpath_cli watch` subcommand.
//
//   watch <telemetry.jsonl> [options]
//
//   --follow, -f         keep refreshing as the producer appends samples
//   --interval MS        refresh period in milliseconds (default 1000)
//   --frames N           render N frames then exit (default 1, or
//                        unlimited with --follow)
//
// Renders the newest sample of a TelemetryBus JSONL time-series — queue
// population, active links, per-link depth histogram bars, worker busy%
// derived from consecutive busy_seconds deltas, recovery progress and RSS —
// plus a sparkline of recent queue population.  Each frame re-reads the
// file from the start: samples are rare (one per period) so even long runs
// re-parse in microseconds, and a reader that never keeps an offset cannot
// be confused by truncation when the producer calls enable() again.
// Depends only on hyperpath_obs.
#pragma once

#include <algorithm>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__linux__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/json_parse.hpp"
#include "parse_number.hpp"

namespace hyperpath::tools {

struct WatchOptions {
  std::string path;
  bool follow = false;
  int interval_ms = 1000;
  int frames = 0;  // 0 = one frame, or unlimited when following
};

/// The slice of a telemetry stream one frame renders: the meta header plus
/// every sample currently in the file.
struct WatchFrame {
  bool has_meta = false;
  int period_steps = 0;
  int effective_threads = 0;
  std::string git_sha;
  std::string hostname;
  std::vector<obs::JsonValue> samples;
};

inline void watch_usage(std::FILE* out) {
  std::fputs(
      "usage: watch <telemetry.jsonl> [--follow] [--interval MS] "
      "[--frames N]\n"
      "  --follow, -f     refresh until interrupted (or --frames reached)\n"
      "  --interval MS    refresh period, default 1000\n"
      "  --frames N       render N frames then exit (default 1;\n"
      "                   0 with --follow = run until interrupted)\n"
      "\n"
      "Produce a stream with `hyperpath_cli trace ... --telemetry` or by\n"
      "setting HYPERPATH_TELEMETRY=<file> on any binary.\n",
      out);
}

inline bool watch_load(const std::string& path, WatchFrame* frame) {
  obs::JsonlReader reader(path);
  if (!reader.ok()) return false;
  obs::JsonValue doc;
  while (reader.next(&doc)) {
    const obs::JsonValue* kind = doc.find("kind");
    if (kind == nullptr || !kind->is_string()) continue;
    if (kind->as_string() == "telemetry_meta") {
      frame->has_meta = true;
      if (const auto* v = doc.find("period_steps")) {
        frame->period_steps = static_cast<int>(v->as_number());
      }
      if (const auto* v = doc.find("effective_threads")) {
        frame->effective_threads = static_cast<int>(v->as_number());
      }
      if (const auto* v = doc.find("git_sha")) frame->git_sha = v->as_string();
      if (const auto* v = doc.find("hostname")) {
        frame->hostname = v->as_string();
      }
    } else if (kind->as_string() == "sample") {
      frame->samples.push_back(doc);
    }
  }
  // A torn final line (the producer mid-fprintf) parses as a failure; treat
  // everything before it as the frame and let the next refresh catch up.
  return true;
}

inline double watch_num(const obs::JsonValue& doc, const char* key) {
  const obs::JsonValue* v = doc.find(key);
  return (v != nullptr && v->is_number()) ? v->as_number() : 0.0;
}

/// One proportional ASCII bar of width <= `width`.
inline std::string watch_bar(double value, double scale, int width) {
  const int n = scale > 0 ? static_cast<int>(value / scale * width + 0.5) : 0;
  return std::string(static_cast<std::size_t>(std::clamp(n, 0, width)), '#');
}

inline void watch_render(const WatchFrame& frame, const std::string& path) {
  std::printf("── hyperpath telemetry ── %s\n", path.c_str());
  if (frame.has_meta) {
    std::printf("period %d steps · %d threads · %s%s%s\n", frame.period_steps,
                frame.effective_threads, frame.hostname.c_str(),
                frame.git_sha.empty() ? "" : " · ",
                frame.git_sha.substr(0, 12).c_str());
  }
  if (frame.samples.empty()) {
    std::printf("(no samples yet)\n");
    return;
  }
  const obs::JsonValue& s = frame.samples.back();
  const double queued = watch_num(s, "queued_packets");
  std::printf(
      "step %6.0f  seq %5.0f  wall %8.2fs  rss %6.0f kB\n"
      "queued %8.0f pkts on %6.0f links (max depth %4.0f)  "
      "undelivered %8.0f  tx %10.0f\n",
      watch_num(s, "step"), watch_num(s, "seq"),
      watch_num(s, "wall_seconds"), watch_num(s, "rss_kb"), queued,
      watch_num(s, "active_links"), watch_num(s, "max_queue_depth"),
      watch_num(s, "undelivered"), watch_num(s, "transmissions"));

  // Live throughput: the producer stamps packet_steps_per_sec directly;
  // streams from older builds lack the field, so fall back to the delta of
  // cumulative transmissions over wall-clock across the last two samples.
  double pps = watch_num(s, "packet_steps_per_sec");
  if (s.find("packet_steps_per_sec") == nullptr &&
      frame.samples.size() >= 2) {
    const obs::JsonValue& prev = frame.samples[frame.samples.size() - 2];
    const double dtx =
        watch_num(s, "transmissions") - watch_num(prev, "transmissions");
    const double dt =
        watch_num(s, "wall_seconds") - watch_num(prev, "wall_seconds");
    if (dtx >= 0 && dt > 0) pps = dtx / dt;
  }
  if (pps > 0) {
    if (pps >= 1e6) {
      std::printf("throughput %8.2f M packet-steps/s\n", pps / 1e6);
    } else {
      std::printf("throughput %10.0f packet-steps/s\n", pps);
    }
  }

  // Queue-depth histogram of the newest sample: one bar per bucket, scaled
  // to the fullest bucket.
  const obs::JsonValue* bounds = s.find("depth_hist", "bounds");
  const obs::JsonValue* counts = s.find("depth_hist", "counts");
  if (bounds != nullptr && counts != nullptr && bounds->is_array() &&
      counts->is_array() && !counts->as_array().empty()) {
    const auto& bs = bounds->as_array();
    const auto& cs = counts->as_array();
    double peak = 0;
    for (const auto& c : cs) peak = std::max(peak, c.as_number());
    std::printf("link queue depths:\n");
    for (std::size_t i = 0; i < cs.size(); ++i) {
      const double c = cs[i].as_number();
      if (c == 0) continue;
      char label[32];
      if (i < bs.size()) {
        std::snprintf(label, sizeof label, "<=%-6.0f", bs[i].as_number());
      } else {
        std::snprintf(label, sizeof label, ">%-7.0f",
                      bs.empty() ? 0.0 : bs.back().as_number());
      }
      std::printf("  %s %8.0f %s\n", label, c,
                  watch_bar(c, peak, 40).c_str());
    }
  }

  // Worker busy%: busy_seconds is cumulative, so the last two samples give
  // a per-worker utilization over the most recent sampling interval.
  if (frame.samples.size() >= 2) {
    const obs::JsonValue& prev = frame.samples[frame.samples.size() - 2];
    const obs::JsonValue* now_busy = s.find("par", "busy_seconds");
    const obs::JsonValue* old_busy = prev.find("par", "busy_seconds");
    const double dt =
        watch_num(s, "wall_seconds") - watch_num(prev, "wall_seconds");
    if (now_busy != nullptr && old_busy != nullptr && now_busy->is_array() &&
        !now_busy->as_array().empty() && dt > 0) {
      const auto& nb = now_busy->as_array();
      const auto& ob = old_busy->as_array();
      std::printf("workers (busy%% over last %.2fs):\n", dt);
      for (std::size_t w = 0; w < nb.size(); ++w) {
        const double before = w < ob.size() ? ob[w].as_number() : 0.0;
        const double frac =
            std::clamp((nb[w].as_number() - before) / dt, 0.0, 1.0);
        std::printf("  w%-2zu %5.1f%% %s\n", w, frac * 100,
                    watch_bar(frac, 1.0, 40).c_str());
      }
    }
  }

  // Recovery progress (all zero outside a recovery run).
  const obs::JsonValue* rec = s.find("recovery");
  if (rec != nullptr) {
    const double delivered = watch_num(*rec, "fragments_delivered");
    const double lost = watch_num(*rec, "fragments_lost");
    if (delivered > 0 || lost > 0) {
      std::printf(
          "recovery: %8.0f delivered  %8.0f lost  %8.0f retransmitted  "
          "%8.0f messages complete\n",
          delivered, lost, watch_num(*rec, "retransmissions"),
          watch_num(*rec, "messages_complete"));
    }
  }

  // Sparkline of queue population over the most recent samples.
  const std::size_t window = std::min<std::size_t>(frame.samples.size(), 60);
  if (window >= 2) {
    static const char kRamp[] = " .:-=+*#@";
    const int levels = static_cast<int>(std::strlen(kRamp)) - 1;
    double peak = 0;
    for (std::size_t i = frame.samples.size() - window;
         i < frame.samples.size(); ++i) {
      peak = std::max(peak, watch_num(frame.samples[i], "queued_packets"));
    }
    std::string line;
    for (std::size_t i = frame.samples.size() - window;
         i < frame.samples.size(); ++i) {
      const double q = watch_num(frame.samples[i], "queued_packets");
      const int lvl =
          peak > 0 ? static_cast<int>(q / peak * levels + 0.5) : 0;
      line.push_back(kRamp[std::clamp(lvl, 0, levels)]);
    }
    std::printf("queued (last %zu samples, peak %.0f): [%s]\n", window, peak,
                line.c_str());
  }
  std::printf("samples in file: %zu\n", frame.samples.size());
}

inline int run_watch(int argc, char** argv) {
  WatchOptions opt;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    bool ok = true;
    if (a == "--help" || a == "-h") {
      watch_usage(stdout);
      return 0;
    } else if (a == "--follow" || a == "-f") {
      opt.follow = true;
    } else if (a == "--interval" && i + 1 < argc) {
      ok = parse_number("--interval", argv[++i], 1, INT_MAX, opt.interval_ms);
    } else if (a.rfind("--interval=", 0) == 0) {
      ok = parse_number("--interval", a.c_str() + 11, 1, INT_MAX,
                        opt.interval_ms);
    } else if (a == "--frames" && i + 1 < argc) {
      ok = parse_number("--frames", argv[++i], 0, INT_MAX, opt.frames);
    } else if (a.rfind("--frames=", 0) == 0) {
      ok = parse_number("--frames", a.c_str() + 9, 0, INT_MAX, opt.frames);
    } else if (opt.path.empty() && !a.empty() && a[0] != '-') {
      opt.path = a;
    } else {
      ok = false;
    }
    if (!ok) {
      watch_usage(stderr);
      return 1;
    }
  }
  if (opt.path.empty()) {
    watch_usage(stderr);
    return 1;
  }
  int frames = opt.frames > 0 ? opt.frames : (opt.follow ? 0 : 1);

  bool tty = false;
#if defined(__linux__) || defined(__APPLE__)
  tty = ::isatty(::fileno(stdout)) != 0;
#endif

  for (int rendered = 0; frames == 0 || rendered < frames; ++rendered) {
    if (rendered > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(opt.interval_ms));
    }
    // Home + clear only on a live terminal; piped captures (CI artifacts)
    // get plain frames separated by a rule.
    if (rendered > 0) {
      if (tty) {
        std::printf("\033[H\033[J");
      } else {
        std::printf("\n════════\n");
      }
    }
    WatchFrame frame;
    if (!watch_load(opt.path, &frame)) {
      if (opt.follow) {
        std::printf("waiting for %s ...\n", opt.path.c_str());
        std::fflush(stdout);
        continue;
      }
      std::perror(opt.path.c_str());
      return 1;
    }
    watch_render(frame, opt.path);
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace hyperpath::tools
