#include "trace/export.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "support/json.hpp"

namespace e2elu::trace {

namespace {

void write_attr_value(std::ostream& os, const AttrValue& v) {
  switch (v.kind) {
    case AttrValue::Kind::Int: os << v.i; break;
    case AttrValue::Kind::Float: os << v.f; break;
    case AttrValue::Kind::Str:
      json::write_string(os, v.s == nullptr ? "" : v.s);
      break;
  }
}

void write_span_args(std::ostream& os, const SpanRecord& r) {
  os << "{";
  bool first = true;
  auto field = [&](const char* key) -> std::ostream& {
    if (!first) os << ", ";
    first = false;
    json::write_string(os, key);
    os << ": ";
    return os;
  };
  for (std::uint32_t a = 0; a < r.num_attrs; ++a) {
    field(r.attrs[a].key == nullptr ? "" : r.attrs[a].key);
    write_attr_value(os, r.attrs[a].value);
  }
  if (r.device_id >= 0) {
    field("sim_us") << r.sim_dur_us;
    field("sim_kernel_us") << r.delta.sim_kernel_us;
    field("sim_launch_us") << r.delta.sim_launch_us;
    field("sim_transfer_us") << r.delta.sim_transfer_us;
    field("sim_fault_us") << r.delta.sim_fault_us;
    field("host_launches") << r.delta.host_launches;
    field("device_launches") << r.delta.device_launches;
    field("kernel_ops") << r.delta.kernel_ops;
    field("page_faults") << r.delta.page_faults;
    field("page_fault_groups") << r.delta.page_fault_groups;
    field("h2d_bytes") << r.delta.h2d_bytes;
    field("d2h_bytes") << r.delta.d2h_bytes;
    field("prefetch_bytes") << r.delta.prefetch_bytes;
  }
  os << "}";
}

void write_metadata_event(std::ostream& os, int pid, std::int64_t tid,
                          const char* what, const std::string& name) {
  os << "{\"ph\": \"M\", \"pid\": " << pid;
  if (tid >= 0) os << ", \"tid\": " << tid;
  os << ", \"name\": \"" << what << "\", \"args\": {\"name\": ";
  json::write_string(os, name);
  os << "}},\n";
}

}  // namespace

void write_chrome_trace(std::ostream& os, std::span<const SpanRecord> spans) {
  constexpr int kWallPid = 1;
  constexpr int kSimPid = 2;

  std::set<std::uint32_t> threads;
  std::set<int> devices;
  for (const SpanRecord& r : spans) {
    threads.insert(r.thread);
    if (r.device_id >= 0) devices.insert(r.device_id);
  }

  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  write_metadata_event(os, kWallPid, -1, "process_name", "e2elu wall clock");
  for (const std::uint32_t t : threads) {
    write_metadata_event(os, kWallPid, t, "thread_name",
                         "thread " + std::to_string(t));
  }
  if (!devices.empty()) {
    write_metadata_event(os, kSimPid, -1, "process_name",
                         "e2elu simulated device time");
    for (const int d : devices) {
      write_metadata_event(os, kSimPid, d, "thread_name",
                           "device " + std::to_string(d));
    }
  }

  bool first = true;
  for (const SpanRecord& r : spans) {
    if (!first) os << ",\n";
    first = false;
    // Wall-clock track.
    os << "{\"ph\": \"X\", \"cat\": \"e2elu\", \"pid\": " << kWallPid
       << ", \"tid\": " << r.thread << ", \"ts\": " << r.start_us
       << ", \"dur\": " << r.dur_us << ", \"name\": ";
    json::write_string(os, r.name == nullptr ? "" : r.name);
    os << ", \"args\": ";
    write_span_args(os, r);
    os << "}";
    // Simulated-time track: one event per device-bound span, positioned on
    // the device's own simulated clock. Nested spans nest here too because
    // simulated time only moves forward on a device.
    if (r.device_id >= 0) {
      os << ",\n{\"ph\": \"X\", \"cat\": \"e2elu-sim\", \"pid\": " << kSimPid
         << ", \"tid\": " << r.device_id << ", \"ts\": " << r.sim_start_us
         << ", \"dur\": " << r.sim_dur_us << ", \"name\": ";
      json::write_string(os, r.name == nullptr ? "" : r.name);
      os << ", \"args\": ";
      write_span_args(os, r);
      os << "}";
    }
  }
  os << "\n]}\n";
}

void write_metrics_json(std::ostream& os, const MetricsRegistry& registry) {
  registry.write_json(os);
}

void publish_span_metrics(std::span<const SpanRecord> spans,
                          MetricsRegistry& registry) {
  for (const SpanRecord& r : spans) {
    if (r.name == nullptr) continue;
    const std::string base = std::string("span.") + r.name;
    registry.counter(base + ".count").add(1);
    registry.histogram(base + ".wall_us").record(r.dur_us);
    if (r.device_id >= 0) {
      registry.histogram(base + ".sim_us").record(r.sim_dur_us);
      registry.counter(base + ".launches").add(r.delta.launches());
      registry.counter(base + ".page_faults").add(r.delta.page_faults);
      registry.counter(base + ".h2d_bytes").add(r.delta.h2d_bytes);
      registry.counter(base + ".d2h_bytes").add(r.delta.d2h_bytes);
    }
  }
}

void print_summary(std::ostream& os, std::span<const SpanRecord> spans) {
  struct Row {
    std::uint64_t count = 0;
    double wall_us = 0;
    double sim_us = 0;       ///< inclusive
    double self_sim_us = 0;  ///< inclusive minus device-bound children
    std::uint64_t launches = 0;
    std::uint64_t fault_groups = 0;
    std::uint64_t bytes = 0;
  };

  // Self time: subtract each device-bound span's sim duration from its
  // parent's. Parents of another device's spans keep the overlap — in
  // practice nested device spans always share the device.
  std::unordered_map<std::uint64_t, double> child_sim;
  for (const SpanRecord& r : spans) {
    if (r.device_id >= 0 && r.parent != 0) child_sim[r.parent] += r.sim_dur_us;
  }

  std::map<std::string, Row> rows;
  for (const SpanRecord& r : spans) {
    Row& row = rows[r.name == nullptr ? "" : r.name];
    ++row.count;
    row.wall_us += r.dur_us;
    if (r.device_id >= 0) {
      row.sim_us += r.sim_dur_us;
      const auto it = child_sim.find(r.id);
      row.self_sim_us +=
          r.sim_dur_us - (it == child_sim.end() ? 0.0 : it->second);
      row.launches += r.delta.launches();
      row.fault_groups += r.delta.page_fault_groups;
      row.bytes += r.delta.h2d_bytes + r.delta.d2h_bytes;
    }
  }

  std::vector<std::pair<std::string, Row>> sorted(rows.begin(), rows.end());
  std::sort(sorted.begin(), sorted.end(), [](const auto& a, const auto& b) {
    return a.second.sim_us != b.second.sim_us
               ? a.second.sim_us > b.second.sim_us
               : a.second.wall_us > b.second.wall_us;
  });

  char line[256];
  std::snprintf(line, sizeof(line),
                "%-28s %8s %12s %12s %12s %9s %8s %10s\n", "span", "count",
                "wall ms", "sim us", "self sim us", "launches", "faultgrp",
                "xfer KiB");
  os << "--- trace summary (" << spans.size() << " spans) ---\n" << line;
  for (const auto& [name, row] : sorted) {
    std::snprintf(line, sizeof(line),
                  "%-28s %8llu %12.3f %12.1f %12.1f %9llu %8llu %10.1f\n",
                  name.c_str(), static_cast<unsigned long long>(row.count),
                  row.wall_us * 1e-3, row.sim_us, row.self_sim_us,
                  static_cast<unsigned long long>(row.launches),
                  static_cast<unsigned long long>(row.fault_groups),
                  static_cast<double>(row.bytes) / 1024.0);
    os << line;
  }
}

}  // namespace e2elu::trace
