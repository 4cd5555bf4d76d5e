#include "telemetry/dashboard.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "support/json.hpp"

namespace e2elu::telemetry {

namespace {

struct TenantRow {
  std::string tenant;
  std::uint64_t jobs = 0;
  std::uint64_t failures = 0;
  std::uint64_t replays = 0;
  std::uint64_t violations = 0;
  double error_budget = 1.0;
  bool has_budget = false;
  trace::HistogramSnapshot latency;  ///< service.job_us{tenant=...}
};

std::uint64_t counter_or_zero(
    const std::map<std::string, std::uint64_t>& counters,
    const std::string& name) {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

struct Frame {
  std::vector<TenantRow> tenants;
  trace::HistogramSnapshot queue_wait;  ///< service.queue_wait_us (all tenants)
  std::uint64_t jobs = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t evictions = 0;
  std::uint64_t pressure_evictions = 0;
  double resident_bytes = 0;
  double cache_entries = 0;
  std::uint64_t incidents = 0;
  std::uint64_t dropped_spans = 0;
};

Frame build_frame(const trace::MetricsRegistry& reg) {
  Frame f;
  const auto counters = reg.counters_snapshot();
  const auto gauges = reg.gauges_snapshot();
  const auto hists = reg.histograms_snapshot();

  // Tenants come from the labeled end-to-end latency series — the one
  // histogram every job records regardless of routing.
  std::set<std::string> tenants;
  for (const auto& [name, snap] : hists) {
    std::string base, key, value;
    if (trace::parse_label(name, base, key, value) &&
        base == "service.job_us" && key == "tenant") {
      tenants.insert(value);
    }
  }
  for (const std::string& t : tenants) {
    TenantRow row;
    row.tenant = t;
    const std::string prefix = "service.tenant." + t;
    row.jobs = counter_or_zero(counters, prefix + ".jobs");
    row.failures = counter_or_zero(counters, prefix + ".failures");
    row.replays = counter_or_zero(counters, prefix + ".replays");
    row.violations = counter_or_zero(counters, prefix + ".slo_violations");
    const auto budget = gauges.find(prefix + ".error_budget");
    if (budget != gauges.end()) {
      row.error_budget = budget->second;
      row.has_budget = true;
    }
    const auto lat = hists.find(trace::labeled("service.job_us", "tenant", t));
    if (lat != hists.end()) row.latency = lat->second;
    f.tenants.push_back(std::move(row));
  }

  const auto qw = hists.find("service.queue_wait_us");
  if (qw != hists.end()) f.queue_wait = qw->second;
  f.jobs = counter_or_zero(counters, "service.jobs");
  f.cache_hits = counter_or_zero(counters, "service.cache_hits");
  f.cache_misses = counter_or_zero(counters, "service.cache_misses");
  f.evictions = counter_or_zero(counters, "service.cache.evictions");
  f.pressure_evictions = counter_or_zero(counters, "service.pressure_evictions");
  const auto resident = gauges.find("service.cache.resident_bytes");
  if (resident != gauges.end()) f.resident_bytes = resident->second;
  const auto entries = gauges.find("service.cache.entries");
  if (entries != gauges.end()) f.cache_entries = entries->second;
  f.incidents = counter_or_zero(counters, "service.incidents");
  f.dropped_spans = counter_or_zero(counters, "trace.dropped_spans");
  return f;
}

void render_text(std::ostream& os, const Frame& f) {
  os << "== e2elu service dashboard ==\n";
  os << std::left << std::setw(14) << "tenant" << std::right << std::setw(7)
     << "jobs" << std::setw(7) << "fail" << std::setw(8) << "replay"
     << std::setw(11) << "p50_us" << std::setw(11) << "p90_us" << std::setw(11)
     << "p99_us" << std::setw(11) << "max_us" << std::setw(6) << "viol"
     << std::setw(9) << "budget" << "\n";
  for (const TenantRow& t : f.tenants) {
    os << std::left << std::setw(14) << t.tenant << std::right << std::setw(7)
       << t.jobs << std::setw(7) << t.failures << std::setw(8) << t.replays
       << std::fixed << std::setprecision(0) << std::setw(11)
       << t.latency.p50() << std::setw(11) << t.latency.p90() << std::setw(11)
       << t.latency.p99() << std::setw(11) << t.latency.max << std::setw(6)
       << t.violations << std::setprecision(3) << std::setw(9);
    if (t.has_budget) {
      os << t.error_budget;
    } else {
      os << "-";
    }
    os << "\n";
    os.unsetf(std::ios::fixed);
    os << std::setprecision(6);
  }
  const double lookups =
      static_cast<double>(f.cache_hits) + static_cast<double>(f.cache_misses);
  os << "jobs " << f.jobs << " | queue_wait p99 " << std::fixed
     << std::setprecision(0) << f.queue_wait.p99() << " us | cache hit "
     << std::setprecision(1)
     << (lookups == 0 ? 0.0 : 100.0 * static_cast<double>(f.cache_hits) /
                                  lookups)
     << "% (" << f.cache_hits << "/" << static_cast<std::uint64_t>(lookups)
     << ", evict " << f.evictions << ", pressure " << f.pressure_evictions
     << ", resident " << std::setprecision(0) << f.resident_bytes << " B, "
     << f.cache_entries << " entries) | incidents " << f.incidents
     << " | dropped spans " << f.dropped_spans << "\n";
  os.unsetf(std::ios::fixed);
  os << std::setprecision(6);
}

void render_json(std::ostream& os, const Frame& f) {
  os << "{\"dashboard\": {\"jobs\": " << f.jobs
     << ", \"queue_wait_p99_us\": " << f.queue_wait.p99()
     << ", \"cache_hits\": " << f.cache_hits
     << ", \"cache_misses\": " << f.cache_misses
     << ", \"cache_evictions\": " << f.evictions
     << ", \"pressure_evictions\": " << f.pressure_evictions
     << ", \"cache_resident_bytes\": " << f.resident_bytes
     << ", \"cache_entries\": " << f.cache_entries
     << ", \"incidents\": " << f.incidents
     << ", \"dropped_spans\": " << f.dropped_spans << ", \"tenants\": [";
  for (std::size_t k = 0; k < f.tenants.size(); ++k) {
    const TenantRow& t = f.tenants[k];
    if (k > 0) os << ", ";
    os << "{\"tenant\": ";
    json::write_string(os, t.tenant);
    os << ", \"jobs\": " << t.jobs << ", \"failures\": " << t.failures
       << ", \"replays\": " << t.replays << ", \"p50_us\": " << t.latency.p50()
       << ", \"p90_us\": " << t.latency.p90()
       << ", \"p99_us\": " << t.latency.p99()
       << ", \"max_us\": " << t.latency.max
       << ", \"slo_violations\": " << t.violations
       << ", \"error_budget\": " << t.error_budget << "}";
  }
  os << "]}}\n";
}

}  // namespace

void render_dashboard(std::ostream& os, const trace::MetricsRegistry& reg,
                      bool json) {
  const Frame f = build_frame(reg);
  if (json) {
    render_json(os, f);
  } else {
    render_text(os, f);
  }
}

DashboardOptions dashboard_options_from_env() {
  DashboardOptions opts;
  const char* spec = std::getenv("E2ELU_DASHBOARD");
  if (spec == nullptr || *spec == '\0') return opts;
  std::string s(spec);
  const std::size_t colon = s.find(':');
  if (colon != std::string::npos) {
    opts.json = s.substr(colon + 1) == "json";
    s = s.substr(0, colon);
  }
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (end != s.c_str() && *end == '\0' && v > 0) opts.interval_s = v;
  return opts;
}

DashboardExporter::DashboardExporter(DashboardOptions opts,
                                     const trace::MetricsRegistry& reg)
    : opts_(opts), reg_(reg) {
  if (opts_.interval_s > 0) {
    thread_ = std::thread([this] { loop(); });
  }
}

DashboardExporter::~DashboardExporter() { stop(); }

void DashboardExporter::stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  // Final frame even when the interval never elapsed (or the exporter was
  // inert), so short runs still report once.
  std::lock_guard<std::mutex> lock(mutex_);
  if (!final_rendered_ && opts_.interval_s > 0) {
    final_rendered_ = true;
    render_frame();
  }
}

void DashboardExporter::loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto interval = std::chrono::duration<double>(opts_.interval_s);
  while (!stopping_) {
    if (cv_.wait_for(lock, interval, [this] { return stopping_; })) break;
    render_frame();
  }
}

void DashboardExporter::render_frame() {
  std::ostream& os = opts_.out != nullptr ? *opts_.out : std::cerr;
  render_dashboard(os, reg_, opts_.json);
  frames_.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace e2elu::telemetry
