#include "trace/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

#include "support/json.hpp"

namespace e2elu::trace {

double Histogram::bucket_upper(int b) {
  return std::exp2(static_cast<double>(b) / kSubBuckets);
}

int Histogram::bucket_for(double v) {
  if (!(v > 1.0)) return 0;  // also routes NaN/negatives to bucket 0
  int b = static_cast<int>(std::ceil(kSubBuckets * std::log2(v)));
  b = std::clamp(b, 0, kBuckets - 1);
  // libm slop correction, so the documented invariant
  //   bucket_upper(b-1) < v <= bucket_upper(b)
  // holds exactly regardless of log2/exp2 rounding (the exactness tests
  // record values that sit precisely on bucket bounds).
  while (b > 0 && bucket_upper(b - 1) >= v) --b;
  while (b < kBuckets - 1 && bucket_upper(b) < v) ++b;
  return b;
}

void Histogram::record(double v) {
  const int b = bucket_for(v);
  std::lock_guard<std::mutex> lock(mutex_);
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  ++buckets_[b];
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot s;
  std::lock_guard<std::mutex> lock(mutex_);
  s.count = count_;
  s.sum = sum_;
  s.min = count_ == 0 ? 0 : min_;
  s.max = count_ == 0 ? 0 : max_;
  s.buckets.assign(buckets_, buckets_ + kBuckets);
  return s;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // 1-based rank of the requested order statistic (nearest-rank method).
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(q * static_cast<double>(count))));
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    cum += buckets[b];
    if (cum >= rank) {
      // The rank lives in bucket b: report its upper bound, clamped to the
      // exactly-tracked extremes so the tails never over/under-shoot.
      return std::clamp(Histogram::bucket_upper(static_cast<int>(b)), min,
                        max);
    }
  }
  return max;  // unreachable when bucket counts and count agree
}

std::string labeled(std::string_view base, std::string_view key,
                    std::string_view value) {
  std::string name;
  name.reserve(base.size() + key.size() + value.size() + 3);
  name.append(base);
  name.push_back('{');
  name.append(key);
  name.push_back('=');
  name.append(value);
  name.push_back('}');
  return name;
}

bool parse_label(const std::string& name, std::string& base,
                 std::string& key, std::string& value) {
  const std::size_t open = name.find('{');
  if (open == std::string::npos || name.back() != '}') return false;
  const std::size_t eq = name.find('=', open);
  if (eq == std::string::npos) return false;
  base = name.substr(0, open);
  key = name.substr(open + 1, eq - open - 1);
  value = name.substr(eq + 1, name.size() - eq - 2);
  return true;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_[name];  // std::map nodes are address-stable
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return gauges_[name];
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return histograms_[name];
}

std::map<std::string, std::uint64_t> MetricsRegistry::counters_snapshot()
    const {
  std::map<std::string, std::uint64_t> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, c] : counters_) out.emplace(name, c.value());
  return out;
}

std::map<std::string, double> MetricsRegistry::gauges_snapshot() const {
  std::map<std::string, double> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, g] : gauges_) out.emplace(name, g.value());
  return out;
}

std::map<std::string, HistogramSnapshot> MetricsRegistry::histograms_snapshot()
    const {
  std::map<std::string, HistogramSnapshot> out;
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [name, h] : histograms_) out.emplace(name, h.snapshot());
  return out;
}

void MetricsRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::write_json(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Round-trip precision: the export is parsed back (bench_diff, the
  // round-trip tests), so doubles must survive print -> strtod exactly.
  const auto old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    json::write_string(os, name);
    os << ": " << c.value();
  }
  os << (counters_.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : gauges_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    json::write_string(os, name);
    os << ": " << g.value();
  }
  os << (gauges_.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    json::write_string(os, name);
    const HistogramSnapshot s = h.snapshot();
    os << ": {\"count\": " << s.count << ", \"sum\": " << s.sum
       << ", \"min\": " << s.min << ", \"max\": " << s.max
       << ", \"mean\": " << s.mean() << ", \"p50\": " << s.p50()
       << ", \"p90\": " << s.p90() << ", \"p99\": " << s.p99()
       << ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t b = 0; b < s.buckets.size(); ++b) {
      if (s.buckets[b] == 0) continue;
      if (!first_bucket) os << ", ";
      first_bucket = false;
      os << "[" << Histogram::bucket_upper(static_cast<int>(b)) << ", "
         << s.buckets[b] << "]";
    }
    os << "]}";
  }
  os << (histograms_.empty() ? "" : "\n  ") << "}\n}\n";
  os.precision(old_precision);
}

}  // namespace e2elu::trace
