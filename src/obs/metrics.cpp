#include "obs/metrics.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "base/error.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"

namespace hyperpath::obs {

FixedHistogram::FixedHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0) {
  HP_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()),
           "histogram bounds must be ascending");
}

FixedHistogram FixedHistogram::exponential(int buckets) {
  HP_CHECK(buckets >= 1, "histogram needs at least one bucket");
  std::vector<double> bounds(buckets);
  double b = 1;
  for (int i = 0; i < buckets; ++i, b *= 2) bounds[i] = b;
  return FixedHistogram(std::move(bounds));
}

void FixedHistogram::observe(double v, std::uint64_t n) {
  if (n == 0) return;
  if (counts_.empty()) counts_.assign(1, 0);  // default-constructed: 1 bucket
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  counts_[static_cast<std::size_t>(it - bounds_.begin())] += n;
  count_ += n;
  sum_ += v * static_cast<double>(n);
  max_ = std::max(max_, v);
}

void FixedHistogram::merge(const FixedHistogram& other) {
  if (other.count_ == 0 && other.bounds_.empty()) return;  // nothing to add
  if (count_ == 0 && bounds_.empty()) {
    *this = other;
    return;
  }
  HP_CHECK(bounds_ == other.bounds_,
           "histogram merge requires identical bounds");
  if (counts_.empty()) counts_.assign(bounds_.size() + 1, 0);
  if (!other.counts_.empty()) {
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      counts_[i] += other.counts_[i];
    }
  }
  count_ += other.count_;
  sum_ += other.sum_;
  max_ = std::max(max_, other.max_);
}

double FixedHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_);
  double cum = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double next = cum + static_cast<double>(counts_[i]);
    if (rank <= next) {
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = i < bounds_.size() ? bounds_[i] : max_;
      if (upper <= lower) return std::min(upper, max_);
      const double frac = (rank - cum) / (next - cum);
      return std::min(lower + (upper - lower) * frac, max_);
    }
    cum = next;
  }
  return max_;
}

void FixedHistogram::write_json(JsonWriter& w) const {
  w.begin_object();
  w.field("count", count_);
  w.field("sum", sum_);
  w.field("mean", mean());
  w.field("max", max_);
  w.key("bounds").begin_array();
  for (double b : bounds_) w.value(b);
  w.end_array();
  w.key("counts").begin_array();
  for (std::uint64_t c : counts_) w.value(c);
  w.end_array();
  w.end_object();
}

void UtilizationProfile::add(double u) {
  sum_ += u;
  ++steps_;
  if (slots_.empty() || slots_.back().count == granularity_) {
    if (slots_.size() == kMaxSlots) {
      // Merge adjacent slot pairs; the profile halves, granularity doubles.
      for (std::size_t i = 0; i + 1 < slots_.size(); i += 2) {
        slots_[i / 2] = {slots_[i].sum + slots_[i + 1].sum,
                         slots_[i].count + slots_[i + 1].count};
      }
      slots_.resize(kMaxSlots / 2);
      granularity_ *= 2;
    }
    slots_.push_back({});
  }
  slots_.back().sum += u;
  ++slots_.back().count;
}

std::vector<double> UtilizationProfile::profile() const {
  std::vector<double> out;
  out.reserve(slots_.size());
  for (const Slot& s : slots_) {
    out.push_back(s.count ? s.sum / s.count : 0.0);
  }
  return out;
}

void UtilizationProfile::write_json(JsonWriter& w) const {
  w.begin_object();
  w.field("steps", steps_);
  w.field("average", average());
  w.field("granularity", granularity_);
  w.key("profile").begin_array();
  for (double v : profile()) w.value(v);
  w.end_array();
  w.end_object();
}

namespace {

constexpr const char* kClassNames[] = {"exact", "timing", "memory", "rate"};

}  // namespace

const char* record_class_name(RecordClass c) {
  return kClassNames[static_cast<int>(c)];
}

std::optional<RecordClass> parse_record_class(std::string_view name) {
  for (int c = 0; c < 4; ++c) {
    if (name == kClassNames[c]) return static_cast<RecordClass>(c);
  }
  return std::nullopt;
}

void write_record(JsonWriter& w, std::string_view name,
                  std::string_view value_json, std::string_view unit,
                  RecordClass cls) {
  w.begin_object();
  w.field("name", name);
  w.key("value").raw_value(value_json);
  w.field("unit", unit);
  w.field("class", record_class_name(cls));
  w.end_object();
}

void write_root_span_records(JsonWriter& w, const Profiler& p) {
  std::map<std::string, double> seconds;
  for (const Profiler::NodeView& n : p.nodes()) {
    if (n.depth == 0) seconds[n.name] += n.wall_seconds;
  }
  for (const auto& [name, s] : seconds) {
    write_record(w, name, json_number(s), "s", RecordClass::kTiming);
  }
}

}  // namespace hyperpath::obs
