#include "telemetry/flight_recorder.hpp"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

#include "fault/fault.hpp"
#include "support/json.hpp"

namespace e2elu::telemetry {

namespace {

std::string hash_hex(std::uint64_t h) {
  std::ostringstream os;
  os << "0x" << std::hex << h;
  return os.str();
}

void write_device_stats(std::ostream& os, const gpusim::DeviceStats& d) {
  os << "{\"host_launches\": " << d.host_launches
     << ", \"device_launches\": " << d.device_launches
     << ", \"kernel_ops\": " << d.kernel_ops
     << ", \"h2d_bytes\": " << d.h2d_bytes
     << ", \"d2h_bytes\": " << d.d2h_bytes
     << ", \"page_faults\": " << d.page_faults
     << ", \"page_fault_groups\": " << d.page_fault_groups
     << ", \"prefetch_bytes\": " << d.prefetch_bytes
     << ", \"sim_kernel_us\": " << d.sim_kernel_us
     << ", \"sim_launch_us\": " << d.sim_launch_us
     << ", \"sim_transfer_us\": " << d.sim_transfer_us
     << ", \"sim_fault_us\": " << d.sim_fault_us
     << ", \"sim_total_us\": " << d.sim_total_us() << "}";
}

void write_report(std::ostream& os, const JobReport& r) {
  os << "{\"job_id\": " << r.job_id << ", \"tenant\": ";
  json::write_string(os, r.tenant);
  os << ", \"priority\": " << r.priority << ", \"n\": " << r.n
     << ", \"nnz\": " << r.nnz << ", \"structure_hash\": ";
  json::write_string(os, hash_hex(r.structure_hash));
  os << ", \"cache_hit\": " << (r.cache_hit ? "true" : "false")
     << ", \"replayed\": " << (r.replayed ? "true" : "false")
     << ", \"demoted\": " << (r.demoted ? "true" : "false")
     << ", \"failed\": " << (r.failed ? "true" : "false") << ", \"error\": ";
  json::write_string(os, r.error);
  os << ", \"error_kind\": ";
  json::write_string(os, r.error_kind);
  os << ", \"queue_wait_us\": " << r.queue_wait_us
     << ", \"cache_lookup_us\": " << r.cache_lookup_us
     << ", \"build_us\": " << r.build_us << ", \"replay_us\": " << r.replay_us
     << ", \"solve_us\": " << r.solve_us << ", \"other_us\": " << r.other_us
     << ", \"total_us\": " << r.total_us << ", \"sim_us\": " << r.sim_us
     << ", \"launches\": " << r.launches
     << ", \"symbolic_replans\": " << r.symbolic_replans
     << ", \"pivot_perturbations\": " << r.pivot_perturbations
     << ", \"recovery_retries\": " << r.recovery_retries
     << ", \"submitted_at_us\": " << r.submitted_at_us << ", \"device\": ";
  write_device_stats(os, r.device);
  os << "}";
}

void write_span(std::ostream& os, const trace::SpanRecord& s) {
  os << "{\"name\": ";
  json::write_string(os, s.name == nullptr ? "" : s.name);
  os << ", \"id\": " << s.id << ", \"parent\": " << s.parent
     << ", \"depth\": " << s.depth << ", \"start_us\": " << s.start_us
     << ", \"dur_us\": " << s.dur_us << ", \"sim_dur_us\": " << s.sim_dur_us
     << ", \"launches\": " << s.delta.host_launches << "}";
}

}  // namespace

FlightRecorder::FlightRecorder(FlightRecorderOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.ring == 0) opts_.ring = 1;
}

std::optional<std::string> FlightRecorder::observe(
    const JobReport& report, const std::vector<trace::SpanRecord>& spans) {
  std::string reason;
  double p99 = 0;
  double threshold = 0;
  std::vector<JobReport> ring_copy;
  bool dump = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Trigger decision uses the p99 of *prior* jobs: this job must not be
    // allowed to raise the bar it is judged against.
    p99 = totals_.count() > 0 ? totals_.p99() : 0.0;
    threshold = p99 * opts_.outlier_factor;
    if (report.failed) {
      reason = "error";
    } else if (totals_.count() >= opts_.min_samples && threshold > 0 &&
               report.total_us > threshold) {
      reason = "latency_outlier";
    }
    totals_.record(report.total_us);
    ring_.push_back(report);
    while (ring_.size() > opts_.ring) ring_.pop_front();
    if (!reason.empty()) {
      ++incidents_;
      if (!opts_.dir.empty() && dumped_ < opts_.max_incidents) {
        ++dumped_;
        dump = true;
        ring_copy.assign(ring_.begin(), ring_.end());
      }
    }
  }
  if (reason.empty()) return std::nullopt;

  auto& reg = trace::MetricsRegistry::global();
  reg.counter("service.incidents").add(1);
  reg.counter("service.incidents." + reason).add(1);
  if (!dump) return std::nullopt;
  return write_incident(report, spans, ring_copy, reason, p99, threshold);
}

std::string FlightRecorder::write_incident(
    const JobReport& report, const std::vector<trace::SpanRecord>& spans,
    const std::vector<JobReport>& ring, const std::string& reason, double p99,
    double threshold) {
  std::error_code ec;
  std::filesystem::create_directories(opts_.dir, ec);
  const std::string path =
      opts_.dir + "/incident_" + std::to_string(report.job_id) + ".json";
  std::ofstream os(path);
  if (!os) {
    std::cerr << "[e2elu::telemetry] cannot open " << path << "\n";
    return path;
  }
  os.precision(std::numeric_limits<double>::max_digits10);

  os << "{\n  \"incident\": {\"job_id\": " << report.job_id
     << ", \"tenant\": ";
  json::write_string(os, report.tenant);
  os << ", \"reason\": ";
  json::write_string(os, reason);
  os << ", \"p99_us\": " << p99 << ", \"threshold_us\": " << threshold
     << "},\n";

  os << "  \"report\": ";
  write_report(os, report);
  os << ",\n";

  // The fault plan rides along so the incident can be replayed offline
  // under the same injections (armed=false still records the last plan —
  // the job may have died just after a campaign disarmed).
  auto& injector = fault::Injector::instance();
  os << "  \"fault_plan\": {\"armed\": "
     << (fault::armed() ? "true" : "false") << ", \"plan\": ";
  json::write_string(os, injector.plan_text());
  os << ", \"events\": [";
  const auto events = injector.events();
  for (std::size_t k = 0; k < events.size(); ++k) {
    if (k > 0) os << ", ";
    const char* kind = events[k].kind == fault::SiteKind::Alloc    ? "alloc"
                       : events[k].kind == fault::SiteKind::Launch ? "launch"
                                                                   : "pivot";
    os << "{\"kind\": \"" << kind << "\", \"site\": " << events[k].site
       << ", \"detail\": ";
    json::write_string(os, events[k].detail);
    os << "}";
  }
  os << "]},\n";

  os << "  \"spans\": [";
  for (std::size_t k = 0; k < spans.size(); ++k) {
    if (k > 0) os << ",";
    os << "\n    ";
    write_span(os, spans[k]);
  }
  os << (spans.empty() ? "]" : "\n  ]") << ",\n";

  os << "  \"recent\": [";
  for (std::size_t k = 0; k < ring.size(); ++k) {
    if (k > 0) os << ",";
    os << "\n    ";
    write_report(os, ring[k]);
  }
  os << (ring.empty() ? "]" : "\n  ]") << "\n}\n";
  return path;
}

std::vector<JobReport> FlightRecorder::recent() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<JobReport>(ring_.begin(), ring_.end());
}

std::uint64_t FlightRecorder::incidents() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return incidents_;
}

double FlightRecorder::running_p99_us() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return totals_.count() > 0 ? totals_.p99() : 0.0;
}

}  // namespace e2elu::telemetry
