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

bool is_exact(const Record& r) { return r.cls == RecordClass::kExact; }

// Adds every {"name","value","unit","class"} object of `array` under
// prefix + name.  Anything else — a null (non-finite) value included — is
// skipped.
void read_records(const JsonValue* array, const std::string& prefix,
                  std::map<std::string, Record>* out) {
  if (array == nullptr || !array->is_array()) return;
  for (const JsonValue& doc : array->as_array()) {
    const JsonValue* name = doc.find("name");
    const JsonValue* value = doc.find("value");
    const auto cls = parse_record_class(string_field(doc, "class"));
    if (name != nullptr && name->is_string() && value != nullptr &&
        value->is_number() && cls) {
      (*out)[prefix + name->as_string()] = {value->as_number(),
                                            string_field(doc, "unit"), *cls};
    }
  }
}

// A pre-record ledger row's {"name": number} object, read as records of
// one class and unit.
void read_legacy_map(const JsonValue* obj, RecordClass cls, const char* unit,
                     std::map<std::string, Record>* out) {
  if (obj == nullptr || !obj->is_object()) return;
  for (const auto& [key, val] : obj->as_object()) {
    if (val.is_number()) (*out)[key] = {val.as_number(), unit, cls};
  }
}

// Files the step of one series, if any: gating for an exact record `r`,
// informational for the other classes.
void file_step(TrendReport* report, const std::string& name,
               const std::vector<double>& values, const Record& r,
               const TrendOptions& options) {
  const bool exact = is_exact(r);
  auto f = detect_step(name, values,
                       exact ? options.metric_tol : options.timing_tol);
  if (!f) return;
  f->unit = r.unit;
  f->cls = r.cls;
  (exact ? report->metric_steps : report->timing_steps)
      .push_back(std::move(*f));
}

// Analytic-bounds check on one run: every floor/ceiling pair must bracket
// its measured series, and every *_in_bounds flag must hold.
std::vector<std::string> check_bounds(
    const std::map<std::string, Record>& records) {
  std::map<std::string, double> metrics;
  for (const auto& [name, r] : records) {
    if (is_exact(r)) metrics[name] = r.value;
  }
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
  read_records(doc.find("records"), "", &e.records);
  read_legacy_map(doc.find("metrics"), RecordClass::kExact, "", &e.records);
  read_legacy_map(doc.find("timings"), RecordClass::kTiming, "s",
                  &e.records);
  if (e.records.empty()) {
    if (error != nullptr) *error = "ledger entry carries no records";
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
  w.key("records").begin_array();
  for (const auto& [name, r] : e.records) {
    write_record(w, name, json_number(r.value), r.unit, r.cls);
  }
  w.end_array();
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
    read_records(report.find("records"), name + ".", &e.records);
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
      best = {name, "", RecordClass::kExact, k, m1, m2, rel};
      found = true;
    }
  }
  if (!found) return std::nullopt;
  return best;
}

TrendReport analyze_trend(const std::vector<LedgerEntry>& entries,
                          const TrendOptions& options,
                          const LedgerEntry* baseline) {
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

  // Series present, with one class, in every run of the window (suites
  // grow; a series that appears or disappears is surfaced by the baseline
  // diff, not as a step).
  if (!group.empty()) {
    for (const auto& [name, r0] : group.front()->records) {
      std::vector<double> series{r0.value};
      for (std::size_t i = 1; i < group.size(); ++i) {
        const auto it = group[i]->records.find(name);
        if (it == group[i]->records.end() ||
            is_exact(it->second) != is_exact(r0)) {
          break;
        }
        series.push_back(it->second.value);
      }
      if (series.size() < group.size()) continue;
      if (is_exact(r0)) ++report.series;
      file_step(&report, name, series, group.back()->records.at(name),
                options);
    }
    report.bounds_violations = check_bounds(group.back()->records);
  }
  if (baseline != nullptr) {
    const auto intended = [&](const TrendFinding& f) {
      const auto it = baseline->records.find(f.name);
      return it != baseline->records.end() && is_exact(it->second) &&
             it->second.value == f.median_after &&
             group[f.split - 1]->git_sha != group[f.split]->git_sha;
    };
    auto& steps = report.metric_steps;
    const auto accepted = std::stable_partition(
        steps.begin(), steps.end(),
        [&](const TrendFinding& f) { return !intended(f); });
    report.accepted_steps.assign(accepted, steps.end());
    steps.erase(accepted, steps.end());
  }
  return report;
}

TrendReport compare_to_baseline(const LedgerEntry& baseline,
                                const LedgerEntry& current,
                                const TrendOptions& options) {
  TrendReport report;
  report.key = comparison_key(current);
  report.runs = 2;
  for (const auto& [name, b] : baseline.records) {
    const auto it = current.records.find(name);
    if (it == current.records.end() || is_exact(it->second) != is_exact(b)) {
      if (is_exact(b)) report.missing.push_back(name);
      continue;
    }
    if (is_exact(b)) ++report.series;
    file_step(&report, name, {b.value, it->second.value}, it->second,
              options);
  }
  for (const auto& [name, c] : current.records) {
    const auto it = baseline.records.find(name);
    if (is_exact(c) &&
        (it == baseline.records.end() || !is_exact(it->second))) {
      report.added.push_back(name);
    }
  }
  report.bounds_violations = check_bounds(current.records);
  return report;
}

}  // namespace hyperpath::obs
