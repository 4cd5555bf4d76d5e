// e2e_bench: the repository benchmark — time to a checked solution, end
// to end, on four seeded workloads, through the public API only.
//
//   e2e_bench --workload W --seed N --seconds S --trace 0|1
//             [--json-out FILE] [--trace-out FILE] [--quick]
//   e2e_bench --smoke BENCHMARK.json
//
// A run sets the workload up five times (setup_s is the median), then
// runs repetitions until S seconds have passed. With --trace 0 it reports
// the end-to-end metrics over all repetitions; with --trace 1 it
// alternates untraced and traced repetitions, reports the per-layer
// metrics of the traced ones, and the tracing overhead against the
// untraced ones. Every solution is checked (||Ax - b|| / ||b|| <= 1e-10),
// simulated time must repeat across repetitions, and phase accounting must
// tile; any failure or violation prints correct=false and exits 1.
// The last stdout line is the result as one JSON object.
//
// --smoke runs every workload of BENCHMARK.json at --quick size in both
// trace modes and checks that exactly the listed metrics, with their
// units, are emitted and that nothing failed.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "support/json.hpp"
#include "support/timer.hpp"
#include "workload.hpp"
#include "workloads.hpp"

using namespace e2elu;
using namespace e2elu::e2e;

namespace {

struct Args {
  Config cfg;
  double seconds = 10;
  bool trace = false;
  std::string json_out;
  std::string trace_out;
  std::string smoke;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> host;  ///< host-clock metrics of the untraced reps
  std::vector<double> rep_wall_ms;
  std::vector<bool> rep_traced;
  std::vector<MatrixDetail> detail;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

/// Nearest-rank percentile, p in (0, 1].
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

Result run_workload(const Config& cfg, double seconds, bool traced,
                    Trace& trace) {
  const int setups = cfg.quick ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  for (int k = 0; k < setups; ++k) {
    workload.reset();
    WallTimer t;
    workload = make_workload(cfg);
    setup_s.push_back(t.seconds());
  }

  std::vector<Rep> reps;
  std::vector<Trace::SelfTimes> self_times;
  std::vector<double> span_counts;
  Result res;
  const std::size_t min_reps = traced ? 2 : 1;
  WallTimer run_timer;
  while (reps.size() < min_reps || run_timer.seconds() < seconds) {
    const bool trace_this = traced && reps.size() % 2 == 1;
    Trace* t = trace_this ? &trace : nullptr;
    const std::size_t first = trace.size();
    Rep rep;
    {
      const Scope s(t, "repetition", -1, 0, false);
      rep = workload->run(t, s.id());
    }
    if (trace_this) {
      self_times.push_back(trace.self_times(first));
      span_counts.push_back(static_cast<double>(trace.size() - first));
    }
    res.rep_wall_ms.push_back(rep.wall_ms);
    res.rep_traced.push_back(trace_this);
    reps.push_back(std::move(rep));
  }

  std::uint64_t violations = 0;
  const double sim0 = reps.front().layers.sim_us;
  for (const Rep& r : reps) {
    res.attempted += r.latency_ms.size();
    res.failed += r.failed;
    violations += r.violations;
    // The simulated clock is a deterministic function of the inputs; only
    // rounding differs, because per-call deltas are differences of
    // device counters that keep growing across repetitions.
    if (std::abs(r.layers.sim_us - sim0) > 1e-9 * sim0) {
      std::fprintf(stderr,
                   "[e2e] simulated time %.17g us differs from the first "
                   "repetition's %.17g us\n",
                   r.layers.sim_us, sim0);
      ++violations;
    }
  }
  if (violations > 0) {
    std::fprintf(stderr, "[e2e] %llu accounting/determinism violations\n",
                 static_cast<unsigned long long>(violations));
  }
  res.correct = res.failed == 0 && violations == 0;
  res.detail = reps.back().detail;

  // Host clock: untraced repetitions only.
  std::vector<double> wall_per_solution, latencies, untraced_wall,
      traced_wall;
  std::map<std::string, std::vector<double>> layer_values;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    const Rep& r = reps[i];
    if (!res.rep_traced[i]) {
      untraced_wall.push_back(r.wall_ms);
      wall_per_solution.push_back(r.wall_ms /
                                  static_cast<double>(r.latency_ms.size()));
      latencies.insert(latencies.end(), r.latency_ms.begin(),
                       r.latency_ms.end());
      continue;
    }
    traced_wall.push_back(r.wall_ms);
    for (const Metric& m : r.layers.metrics()) {
      layer_values[m.name].push_back(m.value);
    }
  }
  res.host = {
      {"host.wall_ms_per_solution", "ms", median(wall_per_solution)},
      {"host.latency_ms_p50", "ms", percentile(latencies, 0.50)},
      {"host.latency_ms_p99", "ms", percentile(latencies, 0.99)},
      {"host.peak_rss_mib", "MiB", peak_rss_mib()},
  };

  if (!traced) {
    res.metrics = {
        {"setup_s", "s", median(setup_s)},
        {"sim_ms_per_solution", "ms",
         sim0 / 1e3 / static_cast<double>(reps.front().latency_ms.size())},
    };
    return res;
  }
  for (const Metric& m : reps.front().layers.metrics()) {
    res.metrics.push_back({m.name, m.unit, median(layer_values[m.name])});
  }
  res.metrics.insert(res.metrics.end(), res.host.begin(), res.host.end());
  std::vector<double> call_ms, bench_ms;
  for (const Trace::SelfTimes& st : self_times) {
    call_ms.push_back(st.call_ms);
    bench_ms.push_back(st.bench_ms);
  }
  res.metrics.push_back({"trace.spans", "count", median(span_counts)});
  res.metrics.push_back({"trace.call_self_ms", "ms", median(call_ms)});
  res.metrics.push_back({"trace.bench_self_ms", "ms", median(bench_ms)});
  res.metrics.push_back(
      {"trace.overhead_pct", "%",
       100.0 * (median(traced_wall) / median(untraced_wall) - 1.0)});
  return res;
}

std::string metrics_object(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    s += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
         number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return s + "}";
}

std::string result_line(const Result& r) {
  return std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(r.attempted) +
         ", \"failed\": " + std::to_string(r.failed) +
         ", \"metrics\": " + metrics_object(r.metrics) + "}";
}

bool write_json(const std::string& path, const Args& a, const Result& r) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::string reps = "[", traced = "[";
  for (std::size_t i = 0; i < r.rep_wall_ms.size(); ++i) {
    reps += (i == 0 ? "" : ", ") + number(r.rep_wall_ms[i]);
    traced += std::string(i == 0 ? "" : ", ") +
              (r.rep_traced[i] ? "true" : "false");
  }
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
               "\"rep_wall_ms\": %s], \"rep_traced\": %s],\n \"result\": %s,\n"
               " \"host\": %s,\n \"detail\": [",
               a.cfg.workload.c_str(),
               static_cast<unsigned long long>(a.cfg.seed), a.trace ? 1 : 0,
               reps.c_str(), traced.c_str(), result_line(r).c_str(),
               metrics_object(r.host).c_str());
  for (std::size_t i = 0; i < r.detail.size(); ++i) {
    const MatrixDetail& d = r.detail[i];
    const std::pair<const char*, double> phases[] = {
        {"preprocess", d.preprocess_us}, {"symbolic", d.symbolic_us},
        {"levelize", d.levelize_us},     {"numeric", d.numeric_us},
        {"solve", d.solve_us}};
    const auto dominant = std::max_element(
        std::begin(phases), std::end(phases),
        [](const auto& x, const auto& y) { return x.second < y.second; });
    std::fprintf(f,
                 "%s\n  {\"abbr\": \"%s\", \"n\": %d, \"nnz\": %lld, "
                 "\"sim_us\": {\"preprocess\": %s, \"symbolic\": %s, "
                 "\"levelize\": %s, \"numeric\": %s, \"solve\": %s}, "
                 "\"dominant\": \"%s\"}",
                 i == 0 ? "" : ",", d.abbr.c_str(), d.n,
                 static_cast<long long>(d.nnz), number(d.preprocess_us).c_str(),
                 number(d.symbolic_us).c_str(), number(d.levelize_us).c_str(),
                 number(d.numeric_us).c_str(), number(d.solve_us).c_str(),
                 dominant->first);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

/// Checks one emitted metric set against a BENCHMARK.json metric list.
bool same_metrics(const std::string& label, const std::vector<Metric>& got,
                  const json::Array& want) {
  std::map<std::string, std::string> emitted;
  for (const Metric& m : got) emitted[m.name] = m.unit;
  bool ok = emitted.size() == want.size();
  for (const json::Value& w : want) {
    const auto it = emitted.find(w.at("name").as_string());
    if (it == emitted.end() || it->second != w.at("unit").as_string()) {
      std::fprintf(stderr, "[smoke] %s: %s missing or unit differs\n",
                   label.c_str(), w.at("name").as_string().c_str());
      ok = false;
    }
  }
  if (emitted.size() != want.size()) {
    std::fprintf(stderr, "[smoke] %s: emitted %zu metrics, listed %zu\n",
                 label.c_str(), emitted.size(), want.size());
  }
  return ok;
}

int smoke(const std::string& benchmark_json) {
  const json::Value spec = json::parse_file(benchmark_json);
  check_seed0_matches_table2();
  bool ok = true;
  for (const json::Value& w : spec.at("workloads").as_array()) {
    for (const bool traced : {false, true}) {
      Config cfg;
      cfg.workload = w.at("name").as_string();
      cfg.quick = true;
      Trace trace;
      WallTimer t;
      const Result r = run_workload(cfg, 0, traced, trace);
      const std::string label = cfg.workload + (traced ? " traced" : "");
      const bool names = same_metrics(
          label, r.metrics,
          spec.at(traced ? "per_layer" : "end_to_end").as_array());
      std::printf("[smoke] %-24s %5.1fs attempted=%llu failed=%llu %s\n",
                  label.c_str(), t.seconds(),
                  static_cast<unsigned long long>(r.attempted),
                  static_cast<unsigned long long>(r.failed),
                  r.correct && names ? "ok" : "FAIL");
      ok = ok && r.correct && names && r.attempted > 0;
    }
  }
  return ok ? 0 : 1;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  a.cfg.workload.clear();
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (k == "--quick") {
      a.cfg.quick = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    if (k == "--workload") {
      a.cfg.workload = v;
    } else if (k == "--seed") {
      a.cfg.seed = std::stoull(v);
    } else if (k == "--seconds") {
      a.seconds = std::stod(v);
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v == "1";
    } else if (k == "--json-out") {
      a.json_out = v;
    } else if (k == "--trace-out") {
      a.trace_out = v;
    } else if (k == "--smoke") {
      a.smoke = v;
    } else {
      return std::nullopt;
    }
  }
  if (a.smoke.empty() && a.cfg.workload.empty()) return std::nullopt;
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<Args> args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception&) {
    args.reset();
  }
  if (!args) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload W --seed N --seconds S "
                 "--trace 0|1 [--json-out F] [--trace-out F] [--quick]\n"
                 "       e2e_bench --smoke BENCHMARK.json\n");
    return 2;
  }
  try {
    if (!args->smoke.empty()) return smoke(args->smoke);
    // Kernel bodies run on one pool thread except in suite-fillreduce,
    // whose GPU-parallel preprocessing kernels are the only ones wide
    // enough to gain from the default width (1.6x); elsewhere a wider
    // pool loses more to barriers than it gains (newton-refactor runs 2x
    // slower on 4 threads). Set before anything creates the global pool;
    // simulated time does not depend on the pool.
    if (args->cfg.workload != "suite-fillreduce") {
      setenv("E2ELU_THREADS", "1", 1);
    }
    if (args->cfg.seed == 0) check_seed0_matches_table2();
    Trace trace;
    const Result r = run_workload(args->cfg, args->seconds, args->trace, trace);
    if (!args->json_out.empty() && !write_json(args->json_out, *args, r)) {
      std::fprintf(stderr, "[e2e] cannot write %s\n", args->json_out.c_str());
      return 1;
    }
    if (!args->trace_out.empty() && !trace.write_chrome(args->trace_out)) {
      std::fprintf(stderr, "[e2e] cannot write %s\n", args->trace_out.c_str());
      return 1;
    }
    std::printf("%s\n", result_line(r).c_str());
    return r.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "[e2e] error: %s\n", e.what());
    return 1;
  }
}
