#include "obs/trend.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>

#include "base/error.hpp"
#include "obs/json.hpp"
#include "obs/json_parse.hpp"

namespace hyperpath::obs {

namespace {

constexpr double kEpsilon = 1e-12;

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

std::string string_field(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.find(key);
  return v != nullptr && v->is_string() ? v->as_string() : std::string();
}

int int_field(const JsonValue& doc, const char* key) {
  const JsonValue* v = doc.find(key);
  return v != nullptr && v->is_number() ? static_cast<int>(v->as_number())
                                        : 0;
}

void read_number_map(const JsonValue* obj, std::map<std::string, double>* out) {
  if (obj == nullptr || !obj->is_object()) return;
  for (const auto& [key, val] : obj->as_object()) {
    if (val.is_number()) (*out)[key] = val.as_number();
  }
}

void write_number_map(JsonWriter& w, const std::map<std::string, double>& m) {
  w.begin_object();
  for (const auto& [key, val] : m) w.field(key, val);
  w.end_object();
}

// Analytic-bounds check on one run: every floor/ceiling pair must bracket
// its measured series, and every *_in_bounds flag must hold.
std::vector<std::string> check_bounds(
    const std::map<std::string, double>& metrics) {
  std::vector<std::string> violations;
  for (const auto& [name, floor_v] : metrics) {
    const std::string suffix = "_floor";
    if (name.size() <= suffix.size() ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    const std::string base = name.substr(0, name.size() - suffix.size());
    // Measured series: "<base>", or the congestion benches' convention
    // "<...>_peak_congestion" bracketed by "<...>_congestion_floor".
    const auto measured_it = [&] {
      auto it = metrics.find(base);
      if (it != metrics.end()) return it;
      std::string alt = base;
      const std::size_t pos = alt.rfind("congestion");
      if (pos != std::string::npos) {
        alt.replace(pos, std::strlen("congestion"), "peak_congestion");
        return metrics.find(alt);
      }
      return metrics.end();
    }();
    if (measured_it == metrics.end()) continue;
    const double measured = measured_it->second;
    if (measured < floor_v) {
      violations.push_back(measured_it->first + " = " +
                           std::to_string(measured) +
                           " below analytic floor " + name + " = " +
                           std::to_string(floor_v));
    }
    const auto ceil_it = metrics.find(base + "_ceiling");
    if (ceil_it != metrics.end() && measured > ceil_it->second) {
      violations.push_back(measured_it->first + " = " +
                           std::to_string(measured) + " above ceiling " +
                           ceil_it->first + " = " +
                           std::to_string(ceil_it->second));
    }
  }
  for (const auto& [name, v] : metrics) {
    const std::string suffix = "_in_bounds";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0 &&
        v != 1.0) {
      violations.push_back(name + " = " + std::to_string(v) +
                           " (expected 1)");
    }
  }
  return violations;
}

}  // namespace

std::string comparison_key(const LedgerEntry& e) {
  return e.hostname + "|" + e.compiler + "|" + e.flags +
         "|threads=" + std::to_string(e.effective_threads);
}

std::optional<LedgerEntry> parse_ledger_entry(const JsonValue& doc,
                                              std::string* error) {
  if (!doc.is_object()) {
    if (error != nullptr) *error = "ledger entry is not a JSON object";
    return std::nullopt;
  }
  const std::string kind = string_field(doc, "kind");
  if (!kind.empty() && kind != "bench_run") {
    if (error != nullptr) *error = "unexpected ledger kind '" + kind + "'";
    return std::nullopt;
  }
  LedgerEntry e;
  e.timestamp = string_field(doc, "timestamp");
  e.git_sha = string_field(doc, "git_sha");
  e.hostname = string_field(doc, "hostname");
  e.compiler = string_field(doc, "compiler");
  e.flags = string_field(doc, "flags");
  e.build_type = string_field(doc, "build_type");
  e.effective_threads = int_field(doc, "effective_threads");
  read_number_map(doc.find("metrics"), &e.metrics);
  read_number_map(doc.find("timings"), &e.timings);
  if (e.metrics.empty()) {
    if (error != nullptr) *error = "ledger entry carries no metrics";
    return std::nullopt;
  }
  return e;
}

void write_ledger_entry(JsonWriter& w, const LedgerEntry& e) {
  w.begin_object();
  w.field("kind", "bench_run");
  w.field("timestamp", e.timestamp);
  w.field("git_sha", e.git_sha);
  w.field("hostname", e.hostname);
  w.field("compiler", e.compiler);
  w.field("flags", e.flags);
  w.field("build_type", e.build_type);
  w.field("effective_threads", e.effective_threads);
  w.key("metrics");
  write_number_map(w, e.metrics);
  w.key("timings");
  write_number_map(w, e.timings);
  w.end_object();
}

LedgerEntry flatten_suite(const JsonValue& suite) {
  HP_CHECK(suite.is_object(), "bench document is not a JSON object");
  JsonValue::Object reports;
  if (const JsonValue* r = suite.find("reports")) {
    HP_CHECK(r->is_object(), "\"reports\" is not a JSON object");
    reports = r->as_object();
  } else {
    const JsonValue* name = suite.find("experiment");
    HP_CHECK(name != nullptr && name->is_string(),
             "document has neither \"reports\" nor \"experiment\"");
    reports = {{name->as_string(), suite}};
  }

  LedgerEntry e;
  if (const JsonValue* meta = suite.find("meta")) {
    e.timestamp = string_field(*meta, "timestamp");
    e.git_sha = string_field(*meta, "git_sha");
    e.hostname = string_field(*meta, "hostname");
    e.compiler = string_field(*meta, "compiler");
    e.flags = string_field(*meta, "flags");
    e.build_type = string_field(*meta, "build_type");
    e.effective_threads = int_field(*meta, "effective_threads");
  }
  for (const auto& [name, report] : reports) {
    if (const JsonValue* metrics = report.find("metrics");
        metrics != nullptr && metrics->is_object()) {
      for (const auto& [key, val] : metrics->as_object()) {
        if (val.is_number()) e.metrics[name + "." + key] = val.as_number();
      }
    }
    if (const JsonValue* timings = report.find("timings");
        timings != nullptr && timings->is_object()) {
      for (const auto& [key, val] : timings->as_object()) {
        const JsonValue* secs = val.find("seconds");
        if (secs != nullptr && secs->is_number()) {
          e.timings[name + "." + key] = secs->as_number();
        }
      }
    }
  }
  return e;
}

std::optional<TrendFinding> detect_step(const std::string& name,
                                        const std::vector<double>& values,
                                        double tol) {
  const std::size_t n = values.size();
  if (n < 2) return std::nullopt;
  TrendFinding best;
  double best_abs = tol;
  bool found = false;
  for (std::size_t k = 1; k < n; ++k) {
    const double m1 =
        median(std::vector<double>(values.begin(), values.begin() + k));
    const double m2 =
        median(std::vector<double>(values.begin() + k, values.end()));
    const double rel = (m2 - m1) / std::max(std::abs(m1), kEpsilon);
    if (std::abs(rel) > best_abs) {
      best_abs = std::abs(rel);
      best = {name, false, k, m1, m2, rel};
      found = true;
    }
  }
  if (!found) return std::nullopt;
  return best;
}

TrendReport analyze_trend(const std::vector<LedgerEntry>& entries,
                          const TrendOptions& options) {
  TrendReport report;
  if (entries.empty()) return report;

  report.key = comparison_key(entries.back());
  std::vector<const LedgerEntry*> group;
  std::set<std::string> skipped;
  for (const LedgerEntry& e : entries) {
    const std::string key = comparison_key(e);
    if (key == report.key) {
      group.push_back(&e);
    } else {
      skipped.insert(key);
    }
  }
  report.skipped_keys.assign(skipped.begin(), skipped.end());
  if (group.size() > options.window) {
    group.erase(group.begin(),
                group.end() - static_cast<std::ptrdiff_t>(options.window));
  }
  report.runs = group.size();

  // Series present in every run of the window (suites grow; a series that
  // appears or disappears is surfaced by the baseline diff, not as a
  // step).
  const auto collect = [&](bool timings) {
    std::vector<std::pair<std::string, std::vector<double>>> out;
    const auto& first = timings ? group.front()->timings
                                : group.front()->metrics;
    for (const auto& [name, v0] : first) {
      std::vector<double> series{v0};
      bool complete = true;
      for (std::size_t i = 1; i < group.size(); ++i) {
        const auto& m = timings ? group[i]->timings : group[i]->metrics;
        const auto it = m.find(name);
        if (it == m.end()) {
          complete = false;
          break;
        }
        series.push_back(it->second);
      }
      if (complete) out.emplace_back(name, std::move(series));
    }
    return out;
  };

  if (!group.empty()) {
    for (auto& [name, series] : collect(/*timings=*/false)) {
      ++report.series;
      if (auto f = detect_step(name, series, options.metric_tol)) {
        report.metric_steps.push_back(std::move(*f));
      }
    }
    for (auto& [name, series] : collect(/*timings=*/true)) {
      if (auto f = detect_step(name, series, options.timing_tol)) {
        f->is_timing = true;
        report.timing_steps.push_back(std::move(*f));
      }
    }
    report.bounds_violations = check_bounds(group.back()->metrics);
  }
  return report;
}

TrendReport compare_to_baseline(const LedgerEntry& baseline,
                                const LedgerEntry& current,
                                const TrendOptions& options) {
  TrendReport report;
  report.key = comparison_key(current);
  report.runs = 2;
  for (const auto& [name, b] : baseline.metrics) {
    const auto it = current.metrics.find(name);
    if (it == current.metrics.end()) {
      report.missing.push_back(name);
      continue;
    }
    ++report.series;
    if (auto f = detect_step(name, {b, it->second}, options.metric_tol)) {
      report.metric_steps.push_back(std::move(*f));
    }
  }
  for (const auto& [name, c] : current.metrics) {
    if (baseline.metrics.count(name) == 0) report.added.push_back(name);
  }
  for (const auto& [name, b] : baseline.timings) {
    const auto it = current.timings.find(name);
    if (it == current.timings.end()) continue;
    if (auto f = detect_step(name, {b, it->second}, options.timing_tol)) {
      f->is_timing = true;
      report.timing_steps.push_back(std::move(*f));
    }
  }
  report.bounds_violations = check_bounds(current.metrics);
  return report;
}

}  // namespace hyperpath::obs
