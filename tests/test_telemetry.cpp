// Telemetry layer (telemetry/ + trace/metrics histograms): log-bucket
// histogram exactness on known distributions, bucket-bound invariants,
// JSON export -> parse-back round trips (buckets and per-tenant labels),
// the trace.dropped_spans counter, per-tenant SLO accounting, the
// phase-tiling invariant (per-phase histogram sums tile end-to-end job
// latency), the outlier flight recorder's triggers and incident files,
// the dashboard renderers, and concurrent histogram recording from the
// FactorService worker pool (the TSan target).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/sparse_lu.hpp"
#include "fault/fault.hpp"
#include "matrix/generators.hpp"
#include "service/factor_service.hpp"
#include "service/structure_hash.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "telemetry/dashboard.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/job_report.hpp"
#include "telemetry/slo.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu {
namespace {

using service::FactorService;
using service::FactorServiceOptions;
using service::JobResult;
using telemetry::FlightRecorder;
using telemetry::FlightRecorderOptions;
using telemetry::JobReport;
using telemetry::SloOptions;
using telemetry::SloTracker;
using trace::Histogram;
using trace::HistogramSnapshot;
using trace::MetricsRegistry;

Csr telemetry_matrix(std::uint64_t seed = 0xbeef) {
  return gen_circuit(400, 5.0, 3, 16, seed);
}

std::vector<value_t> rhs_for(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = static_cast<value_t>(rng.next_double(-1.0, 1.0));
  return b;
}

FactorServiceOptions service_options() {
  FactorServiceOptions opt;
  opt.workers = 1;
  opt.deterministic = true;
  opt.pipeline.device = gpusim::DeviceSpec::v100_with_memory(64u << 20);
  opt.pipeline.match_diagonal = false;
  return opt;
}

/// Scratch directory for incident files, wiped on entry.
std::string fresh_dir(const char* name) {
  const std::string dir = std::string("/tmp/e2elu_test_") + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// ----------------------------------------------------------- histogram --

TEST(Telemetry, HistogramPercentilesExactOnBucketBounds) {
  // 100 values, the k-th sitting exactly on bucket k's upper bound: with
  // one record per bucket, the nearest-rank quantile lands on a known
  // bound and must read back exactly.
  Histogram h;
  for (int k = 1; k <= 100; ++k) h.record(Histogram::bucket_upper(k));

  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.min(), Histogram::bucket_upper(1));
  EXPECT_DOUBLE_EQ(h.max(), Histogram::bucket_upper(100));
  EXPECT_DOUBLE_EQ(h.p50(), Histogram::bucket_upper(50));
  EXPECT_DOUBLE_EQ(h.p90(), Histogram::bucket_upper(90));
  EXPECT_DOUBLE_EQ(h.p99(), Histogram::bucket_upper(99));
  EXPECT_DOUBLE_EQ(h.quantile(0.0), Histogram::bucket_upper(1));
  EXPECT_DOUBLE_EQ(h.quantile(1.0), Histogram::bucket_upper(100));

  double sum = 0;
  for (int k = 1; k <= 100; ++k) sum += Histogram::bucket_upper(k);
  EXPECT_DOUBLE_EQ(h.sum(), sum);
}

TEST(Telemetry, HistogramBucketBoundsInvariant) {
  // The defining invariant: bucket_for(v) is the smallest b with
  // v <= bucket_upper(b) — values on a bound go DOWN into that bucket,
  // values just above go up, libm rounding notwithstanding.
  for (int b = 1; b < Histogram::kBuckets - 1; ++b) {
    const double upper = Histogram::bucket_upper(b);
    EXPECT_EQ(Histogram::bucket_for(upper), b) << "on-bound value, b=" << b;
    const double above =
        std::nextafter(upper, std::numeric_limits<double>::infinity());
    EXPECT_EQ(Histogram::bucket_for(above), b + 1) << "just above, b=" << b;
  }
  // Bucket 0 absorbs everything at or below 1 (and the degenerate cases).
  EXPECT_EQ(Histogram::bucket_for(0.0), 0);
  EXPECT_EQ(Histogram::bucket_for(1.0), 0);
  EXPECT_EQ(Histogram::bucket_for(0.25), 0);
  // The last bucket absorbs the tail.
  EXPECT_EQ(Histogram::bucket_for(1e300), Histogram::kBuckets - 1);
}

TEST(Telemetry, HistogramQuantilesWithinOneBucketOfTruth) {
  // Off-bound values: the answer must be within one bucket's relative
  // width (2^(1/8) ~ 9%) of the true quantile.
  Histogram h;
  for (int k = 1; k <= 1000; ++k) h.record(static_cast<double>(k));
  const double width = std::pow(2.0, 1.0 / Histogram::kSubBuckets);
  EXPECT_GE(h.p50(), 500.0 / width);
  EXPECT_LE(h.p50(), 500.0 * width);
  EXPECT_GE(h.p99(), 990.0 / width);
  EXPECT_LE(h.p99(), 990.0 * width);
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(Telemetry, LabeledNamesRoundTrip) {
  const std::string name =
      trace::labeled("service.job_us", "tenant", "pwr-grid");
  EXPECT_EQ(name, "service.job_us{tenant=pwr-grid}");
  std::string base, key, value;
  ASSERT_TRUE(trace::parse_label(name, base, key, value));
  EXPECT_EQ(base, "service.job_us");
  EXPECT_EQ(key, "tenant");
  EXPECT_EQ(value, "pwr-grid");
  EXPECT_FALSE(trace::parse_label("service.job_us", base, key, value));
}

// ------------------------------------------------- export round trips --

TEST(Telemetry, HistogramJsonExportParsesBackExactly) {
  MetricsRegistry reg;  // private registry: no cross-test interference
  reg.counter("service.jobs").add(3);
  reg.gauge("service.cache.resident_bytes").set(12345.5);
  Histogram& h =
      reg.histogram(trace::labeled("service.job_us", "tenant", "acme"));
  const std::vector<double> values = {10.0, 100.0, 1000.0, 1000.0};
  for (const double v : values) h.record(v);

  std::ostringstream os;
  reg.write_json(os);
  const json::Value doc = json::parse(os.str());

  EXPECT_DOUBLE_EQ(doc.at("counters").at("service.jobs").as_number(), 3.0);
  EXPECT_DOUBLE_EQ(
      doc.at("gauges").at("service.cache.resident_bytes").as_number(),
      12345.5);

  // The per-tenant label survives as the series name.
  const json::Value& hist =
      doc.at("histograms").at("service.job_us{tenant=acme}");
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_DOUBLE_EQ(hist.at("count").as_number(), 4.0);
  EXPECT_DOUBLE_EQ(hist.at("sum").as_number(), snap.sum);
  EXPECT_DOUBLE_EQ(hist.at("min").as_number(), snap.min);
  EXPECT_DOUBLE_EQ(hist.at("max").as_number(), snap.max);
  EXPECT_DOUBLE_EQ(hist.at("p50").as_number(), snap.p50());
  EXPECT_DOUBLE_EQ(hist.at("p99").as_number(), snap.p99());

  // Sparse [upper, count] pairs reconstruct the dense bucket array.
  std::vector<std::uint64_t> dense(snap.buckets.size(), 0);
  for (const json::Value& pair : hist.at("buckets").as_array()) {
    ASSERT_EQ(pair.as_array().size(), 2u);
    const double upper = pair.as_array()[0].as_number();
    const auto count =
        static_cast<std::uint64_t>(pair.as_array()[1].as_number());
    const int b = Histogram::bucket_for(upper);
    EXPECT_DOUBLE_EQ(Histogram::bucket_upper(b), upper);
    dense[static_cast<std::size_t>(b)] = count;
  }
  EXPECT_EQ(dense, snap.buckets);
}

TEST(Telemetry, DroppedSpansSurfaceInMetricsExport) {
  // Ring overwrites must be visible in the artifact: a wrapped recording
  // that silently exports as complete data would hide real span loss.
  const std::string path = "/tmp/e2elu_test_dropped_metrics.json";
  std::filesystem::remove(path);
  MetricsRegistry::global().clear();

  trace::TraceConfig cfg;
  cfg.ring_capacity = 4;
  cfg.metrics_path = path;
  trace::Tracer::instance().enable(cfg);
  trace::Tracer::instance().clear();
  // A fresh thread gets a fresh ring sized by the active config.
  std::thread worker([] {
    for (int i = 0; i < 10; ++i) {
      TRACE_SPAN("overflowing", {{"i", i}});
    }
  });
  worker.join();
  const std::vector<std::string> written =
      trace::Tracer::instance().write_artifacts();
  trace::Tracer::instance().disable();
  trace::Tracer::instance().clear();

  ASSERT_EQ(written.size(), 1u);
  const json::Value doc = json::parse_file(path);
  // 10 spans through 4 slots: 6 overwritten, and the export says so.
  EXPECT_DOUBLE_EQ(doc.at("counters").at("trace.dropped_spans").as_number(),
                   6.0);
}

// ------------------------------------------------------------------ SLO --

TEST(Telemetry, SloTracksViolationsAndErrorBudget) {
  MetricsRegistry::global().clear();
  SloOptions opts;
  opts.latency_threshold_us = 100.0;
  opts.target = 0.9;
  SloTracker slo(opts);

  JobReport fast;
  fast.tenant = "acme";
  fast.total_us = 50.0;
  for (int k = 0; k < 9; ++k) EXPECT_FALSE(slo.observe(fast));

  JobReport slow = fast;
  slow.total_us = 500.0;
  EXPECT_TRUE(slo.observe(slow));

  // 10 jobs at target 0.9 allow exactly one violation: budget spent.
  const auto state = slo.snapshot().at("acme");
  EXPECT_EQ(state.jobs, 10u);
  EXPECT_EQ(state.violations, 1u);
  EXPECT_DOUBLE_EQ(state.error_budget, 0.0);
  EXPECT_EQ(MetricsRegistry::global()
                .counters_snapshot()
                .at("service.tenant.acme.slo_violations"),
            1u);
  EXPECT_DOUBLE_EQ(MetricsRegistry::global().gauges_snapshot().at(
                       "service.tenant.acme.error_budget"),
                   0.0);

  // A failed job violates regardless of latency.
  JobReport failed = fast;
  failed.failed = true;
  EXPECT_TRUE(slo.observe(failed));
  EXPECT_LT(slo.snapshot().at("acme").error_budget, 0.0);
}

// -------------------------------------------------- service histograms --

TEST(Telemetry, PhaseHistogramSumsTileEndToEndLatency) {
  MetricsRegistry::global().clear();
  {
    FactorService svc(service_options());
    const Csr a = telemetry_matrix();
    // One cold build, three warm replays, all with a solve — every phase
    // histogram gets traffic.
    for (int round = 0; round < 4; ++round) {
      const Csr drifted =
          round == 0
              ? a
              : gen_value_drift(a, 0.1, static_cast<std::uint64_t>(round));
      svc.submit(drifted, rhs_for(a.n, 7), "acme", 0).get();
    }
  }

  const auto hists = MetricsRegistry::global().histograms_snapshot();
  const auto sum_of = [&](const char* name) {
    const auto it = hists.find(name);
    return it == hists.end() ? 0.0 : it->second.sum;
  };
  const double phases =
      sum_of("service.queue_wait_us") + sum_of("service.cache_lookup_us") +
      sum_of("service.cold_build_us") + sum_of("service.warm_replay_us") +
      sum_of("service.solve_us") + sum_of("service.job_other_us");
  const double total = sum_of("service.job_us");
  ASSERT_GT(total, 0.0);
  // Exact by construction, up to floating-point reassociation.
  EXPECT_NEAR(phases, total, 1e-9 * total);

  // Route counts: 1 cold, 3 warm, 4 solves, 4 end-to-end.
  EXPECT_EQ(hists.at("service.job_us").count, 4u);
  EXPECT_EQ(hists.at("service.cold_build_us").count, 1u);
  EXPECT_EQ(hists.at("service.warm_replay_us").count, 3u);
  EXPECT_EQ(hists.at("service.solve_us").count, 4u);
  // Per-tenant labels carry the same traffic.
  EXPECT_EQ(
      hists.at(trace::labeled("service.job_us", "tenant", "acme")).count, 4u);
}

TEST(Telemetry, JobResultCarriesItsReport) {
  MetricsRegistry::global().clear();
  FactorService svc(service_options());
  const Csr a = telemetry_matrix(0x77);

  // A lost levelization launch costs the cold build one retry.
  const JobResult cold = [&] {
    fault::ScopedPlan plan("launch=levelize@1");
    return svc.submit(a, rhs_for(a.n, 3), "acme", 2).get();
  }();
  const JobReport& r = cold.report;
  EXPECT_EQ(r.recovery_retries, 1);
  EXPECT_EQ(r.job_id, cold.job_id);
  EXPECT_EQ(r.tenant, "acme");
  EXPECT_EQ(r.priority, 2);
  EXPECT_EQ(r.n, a.n);
  EXPECT_EQ(r.nnz, a.nnz());
  EXPECT_EQ(r.structure_hash, service::structure_hash(a));
  EXPECT_FALSE(r.cache_hit);
  EXPECT_FALSE(r.failed);
  EXPECT_GT(r.build_us, 0.0);
  EXPECT_GT(r.solve_us, 0.0);
  EXPECT_DOUBLE_EQ(r.replay_us, 0.0);
  EXPECT_GE(r.queue_wait_us, 0.0);
  EXPECT_GE(r.other_us, 0.0);
  // The tiling invariant holds per job, exactly.
  EXPECT_DOUBLE_EQ(r.total_us, r.queue_wait_us + r.cache_lookup_us +
                                   r.build_us + r.replay_us + r.solve_us +
                                   r.other_us);
  EXPECT_EQ(r.sim_us, cold.sim_us);
  EXPECT_EQ(r.launches, cold.launches);
  EXPECT_GT(r.device.sim_total_us(), 0.0);

  const JobResult warm =
      svc.submit(gen_value_drift(a, 0.1, 5), std::nullopt, "acme", 0).get();
  EXPECT_TRUE(warm.report.cache_hit);
  EXPECT_TRUE(warm.report.replayed);
  EXPECT_GT(warm.report.replay_us, 0.0);
  EXPECT_DOUBLE_EQ(warm.report.build_us, 0.0);
  EXPECT_DOUBLE_EQ(warm.report.solve_us, 0.0);
  // The clean replay reports its own recovery, not the cold build's.
  EXPECT_EQ(warm.report.recovery_retries, 0);
}

TEST(Telemetry, PreprocessSubPhasesTileExactly) {
  MetricsRegistry::global().clear();
  FactorServiceOptions opt = service_options();
  // All three sub-phases get traffic: destroyed diagonal (matching),
  // min-degree ordering, equilibration — on the GPU-parallel path.
  opt.pipeline.match_diagonal = true;
  opt.pipeline.ordering = Ordering::MinDegree;
  opt.pipeline.preprocess.mode = PreprocessMode::GpuParallel;
  opt.pipeline.preprocess.equilibrate = true;
  FactorService svc(opt);

  Coo coo;
  coo.n = 300;
  for (index_t i = 0; i < coo.n; ++i) {
    coo.add(i, (i + 1) % coo.n, 3.0 + i % 7);
    coo.add(i, (i + 9) % coo.n, 1.0);
    coo.add(i, (i * 13 + 4) % coo.n, 0.5);
  }
  const Csr a = coo_to_csr(coo);

  const JobResult cold = svc.submit(a, std::nullopt, "acme", 0).get();
  const JobReport& r = cold.report;
  EXPECT_GT(r.preprocess_match_us, 0.0);
  EXPECT_GT(r.preprocess_order_us, 0.0);
  EXPECT_GT(r.preprocess_scale_us, 0.0);
  EXPECT_GE(r.preprocess_other_us, 0.0);
  // The sub-phases tile the preprocess total exactly, by construction.
  EXPECT_DOUBLE_EQ(r.preprocess_total_us,
                   r.preprocess_match_us + r.preprocess_order_us +
                       r.preprocess_scale_us + r.preprocess_other_us);
  // ... and the preprocess stage is contained in the cold build, so the
  // top-level tiling invariant is untouched.
  EXPECT_LE(r.preprocess_total_us, r.build_us);
  EXPECT_DOUBLE_EQ(r.total_us, r.queue_wait_us + r.cache_lookup_us +
                                   r.build_us + r.replay_us + r.solve_us +
                                   r.other_us);

  // Warm replays skip preprocessing entirely: all sub-phase fields zero.
  // (Manual value drift: gen_value_drift needs a structural diagonal,
  // which this fixture deliberately lacks.)
  Csr drifted = a;
  for (auto& v : drifted.values) v *= 1.0001;
  const JobResult warm =
      svc.submit(drifted, std::nullopt, "acme", 0).get();
  ASSERT_TRUE(warm.report.replayed);
  EXPECT_DOUBLE_EQ(warm.report.preprocess_total_us, 0.0);
  EXPECT_DOUBLE_EQ(warm.report.preprocess_match_us, 0.0);
  EXPECT_DOUBLE_EQ(warm.report.preprocess_order_us, 0.0);
  EXPECT_DOUBLE_EQ(warm.report.preprocess_scale_us, 0.0);
  EXPECT_DOUBLE_EQ(warm.report.preprocess_other_us, 0.0);

  // The histograms saw exactly the one cold build.
  const auto hists = MetricsRegistry::global().histograms_snapshot();
  EXPECT_EQ(hists.at("service.preprocess_match_us").count, 1u);
  EXPECT_EQ(hists.at("service.preprocess_order_us").count, 1u);
  EXPECT_EQ(hists.at("service.preprocess_scale_us").count, 1u);
}

// -------------------------------------------------------- flight recorder --

TEST(FlightRecorder, LatencyOutlierTriggersIncidentDump) {
  MetricsRegistry::global().clear();
  FlightRecorderOptions opts;
  opts.ring = 8;
  opts.min_samples = 16;
  opts.outlier_factor = 4.0;
  opts.dir = fresh_dir("fr_latency");
  FlightRecorder fr(opts);

  JobReport normal;
  normal.tenant = "acme";
  normal.total_us = 100.0;
  for (std::uint64_t k = 0; k < 20; ++k) {
    normal.job_id = k;
    EXPECT_FALSE(fr.observe(normal).has_value());
  }
  EXPECT_EQ(fr.incidents(), 0u);

  JobReport slow = normal;
  slow.job_id = 99;
  slow.total_us = 100000.0;
  const auto path = fr.observe(slow);
  ASSERT_TRUE(path.has_value());
  EXPECT_EQ(fr.incidents(), 1u);

  const json::Value doc = json::parse_file(*path);
  EXPECT_EQ(doc.at("incident").at("reason").as_string(), "latency_outlier");
  EXPECT_DOUBLE_EQ(doc.at("incident").at("job_id").as_number(), 99.0);
  EXPECT_GT(doc.at("incident").at("threshold_us").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(doc.at("report").at("total_us").as_number(), 100000.0);
  // The ring context rode along, bounded at the configured size.
  EXPECT_EQ(doc.at("recent").as_array().size(), 8u);
  EXPECT_EQ(fr.recent().size(), 8u);
  EXPECT_EQ(fr.recent().back().job_id, 99u);
}

TEST(FlightRecorder, FailureAlwaysTriggersAndCapRespected) {
  MetricsRegistry::global().clear();
  FlightRecorderOptions opts;
  opts.dir = fresh_dir("fr_cap");
  opts.max_incidents = 1;
  FlightRecorder fr(opts);

  JobReport failed;
  failed.tenant = "acme";
  failed.failed = true;
  failed.error = "synthetic";
  failed.job_id = 1;
  EXPECT_TRUE(fr.observe(failed).has_value());  // even with zero samples
  failed.job_id = 2;
  EXPECT_FALSE(fr.observe(failed).has_value());  // capped, still counted
  EXPECT_EQ(fr.incidents(), 2u);
  EXPECT_EQ(MetricsRegistry::global().counters_snapshot().at(
                "service.incidents.error"),
            2u);
}

// Pins the zero-threshold guard: p99 * outlier_factor is 0 both before
// any history exists and when every prior job had zero latency. Neither
// situation may flag the next job as a "latency outlier" — the trigger
// requires a strictly positive threshold in addition to min_samples.
TEST(FlightRecorder, ZeroThresholdNeverFlagsLatency) {
  MetricsRegistry::global().clear();
  FlightRecorderOptions opts;
  opts.dir = fresh_dir("fr_zero_threshold");
  opts.min_samples = 0;  // disarm the sample-count guard on purpose
  opts.outlier_factor = 4.0;
  FlightRecorder fr(opts);

  // Empty history: p99 = 0, threshold = 0 — even a huge first job must
  // not flag, since there is no bar to compare it against yet.
  JobReport first;
  first.tenant = "acme";
  first.job_id = 1;
  first.total_us = 12345.0;
  EXPECT_FALSE(fr.observe(first).has_value());
  EXPECT_EQ(fr.incidents(), 0u);
}

TEST(FlightRecorder, AllZeroHistoryKeepsThresholdDisarmed) {
  MetricsRegistry::global().clear();
  FlightRecorderOptions opts;
  opts.dir = fresh_dir("fr_zero_history");
  opts.min_samples = 0;  // disarm the sample-count guard on purpose
  opts.outlier_factor = 4.0;
  FlightRecorder fr(opts);

  // All-zero-latency priors keep the p99 — and so the threshold — at 0.
  // threshold > 0 is the guard: a zero threshold must never flag,
  // however large the newcomer.
  JobReport zero;
  zero.tenant = "acme";
  zero.total_us = 0.0;
  for (std::uint64_t k = 2; k < 10; ++k) {
    zero.job_id = k;
    EXPECT_FALSE(fr.observe(zero).has_value());
  }
  JobReport huge;
  huge.tenant = "acme";
  huge.job_id = 99;
  huge.total_us = 1e9;
  EXPECT_FALSE(fr.observe(huge).has_value());
  EXPECT_EQ(fr.incidents(), 0u);

  // Failures bypass the latency threshold entirely — a zero threshold
  // must not suppress error incidents.
  JobReport failed;
  failed.tenant = "acme";
  failed.failed = true;
  failed.error = "synthetic";
  failed.job_id = 100;
  EXPECT_TRUE(fr.observe(failed).has_value());
}

TEST(FlightRecorder, MinSamplesGuardHoldsBeforeHistoryFills) {
  MetricsRegistry::global().clear();
  FlightRecorderOptions opts;
  opts.dir = fresh_dir("fr_min_samples");
  opts.min_samples = 16;
  opts.outlier_factor = 2.0;
  FlightRecorder fr(opts);

  JobReport normal;
  normal.tenant = "acme";
  normal.total_us = 100.0;
  for (std::uint64_t k = 0; k < 5; ++k) {
    normal.job_id = k;
    fr.observe(normal);
  }
  // 5 priors < min_samples: even a 1000x outlier stays unflagged.
  JobReport slow = normal;
  slow.job_id = 50;
  slow.total_us = 100000.0;
  EXPECT_FALSE(fr.observe(slow).has_value());
  EXPECT_EQ(fr.incidents(), 0u);
}

TEST(FlightRecorder, FaultedJobProducesParseableIncidentWithPhaseSpans) {
  MetricsRegistry::global().clear();
  trace::Tracer::instance().enable({});
  trace::Tracer::instance().clear();

  FactorServiceOptions opts = service_options();
  opts.pipeline.recovery.enabled = false;  // the fault surfaces structured
  opts.recorder.dir = fresh_dir("fr_fault");
  const Csr a = telemetry_matrix(0x99);

  {
    FactorService svc(opts);
    fault::ScopedPlan plan("pivot_zero=5");
    auto future = svc.submit(a, std::nullopt, "acme", 0);
    EXPECT_THROW(future.get(), FactorError);
  }
  trace::Tracer::instance().disable();
  trace::Tracer::instance().clear();

  // Exactly one incident file, named for the job.
  std::vector<std::string> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(opts.recorder.dir)) {
    files.push_back(entry.path().string());
  }
  ASSERT_EQ(files.size(), 1u);
  const json::Value doc = json::parse_file(files[0]);

  EXPECT_EQ(doc.at("incident").at("reason").as_string(), "error");
  EXPECT_EQ(doc.at("incident").at("tenant").as_string(), "acme");
  const json::Value& report = doc.at("report");
  EXPECT_TRUE(report.at("failed").as_bool());
  EXPECT_EQ(report.at("error_kind").as_string(), "ZeroPivot");
  std::ostringstream hash;
  hash << "0x" << std::hex << service::structure_hash(a);
  EXPECT_EQ(report.at("structure_hash").as_string(), hash.str());

  // The armed fault plan and its triggered event ride along for offline
  // replay.
  EXPECT_EQ(doc.at("fault_plan").at("plan").as_string(), "pivot_zero=5");
  ASSERT_GE(doc.at("fault_plan").at("events").as_array().size(), 1u);
  EXPECT_EQ(doc.at("fault_plan")
                .at("events")
                .as_array()[0]
                .at("kind")
                .as_string(),
            "pivot");

  // Span subtree: the job root plus every depth-1 phase the failed job
  // ran (cache probe, then the cold build that died).
  bool saw_root = false, saw_lookup = false, saw_factorize = false;
  for (const json::Value& span : doc.at("spans").as_array()) {
    const std::string& name = span.at("name").as_string();
    const double depth = span.at("depth").as_number();
    if (name == "service.job" && depth == 0) saw_root = true;
    if (name == "service.cache_lookup" && depth == 1) saw_lookup = true;
    if (name == "service.factorize" && depth == 1) saw_factorize = true;
  }
  EXPECT_TRUE(saw_root);
  EXPECT_TRUE(saw_lookup);
  EXPECT_TRUE(saw_factorize);
}

// ------------------------------------------------------------ dashboard --

TEST(Telemetry, DashboardRendersTenantsFromRegistrySnapshots) {
  MetricsRegistry reg;
  reg.counter("service.jobs").add(5);
  reg.counter("service.tenant.acme.jobs").add(5);
  reg.counter("service.tenant.acme.slo_violations").add(1);
  reg.gauge("service.tenant.acme.error_budget").set(0.5);
  reg.counter("service.cache_hits").add(4);
  reg.counter("service.cache_misses").add(1);
  Histogram& h =
      reg.histogram(trace::labeled("service.job_us", "tenant", "acme"));
  for (int k = 0; k < 5; ++k) h.record(100.0);

  std::ostringstream text;
  telemetry::render_dashboard(text, reg, /*json=*/false);
  EXPECT_NE(text.str().find("acme"), std::string::npos);

  std::ostringstream js;
  telemetry::render_dashboard(js, reg, /*json=*/true);
  const json::Value doc = json::parse(js.str());
  const json::Value& dash = doc.at("dashboard");
  EXPECT_DOUBLE_EQ(dash.at("jobs").as_number(), 5.0);
  EXPECT_DOUBLE_EQ(dash.at("cache_hits").as_number(), 4.0);
  ASSERT_EQ(dash.at("tenants").as_array().size(), 1u);
  const json::Value& tenant = dash.at("tenants").as_array()[0];
  EXPECT_EQ(tenant.at("tenant").as_string(), "acme");
  EXPECT_DOUBLE_EQ(tenant.at("jobs").as_number(), 5.0);
  EXPECT_DOUBLE_EQ(tenant.at("p99_us").as_number(), h.p99());
  EXPECT_DOUBLE_EQ(tenant.at("slo_violations").as_number(), 1.0);
  EXPECT_DOUBLE_EQ(tenant.at("error_budget").as_number(), 0.5);

  // Tenant names are client input: a quote and a newline stay escaped,
  // so the frame is still one line of valid JSON.
  const std::string odd = "a\"b\nc";
  reg.histogram(trace::labeled("service.job_us", "tenant", odd)).record(50.0);
  std::ostringstream js2;
  telemetry::render_dashboard(js2, reg, /*json=*/true);
  const std::string frame = js2.str();
  ASSERT_FALSE(frame.empty());
  EXPECT_EQ(frame.back(), '\n');
  for (std::size_t k = 0; k + 1 < frame.size(); ++k) {
    EXPECT_GE(static_cast<unsigned char>(frame[k]), 0x20) << "byte " << k;
  }
  const json::Value doc2 = json::parse(frame);
  bool found = false;
  for (const json::Value& t : doc2.at("dashboard").at("tenants").as_array()) {
    found = found || t.at("tenant").as_string() == odd;
  }
  EXPECT_TRUE(found);
}

TEST(Telemetry, DashboardExporterRendersFinalFrame) {
  MetricsRegistry reg;
  reg.counter("service.jobs").add(1);
  std::ostringstream os;
  telemetry::DashboardOptions opts;
  opts.interval_s = 0.01;
  opts.json = true;
  opts.out = &os;
  {
    telemetry::DashboardExporter exporter(opts, reg);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // At least one periodic frame plus the final frame; every line is one
  // self-contained JSON object.
  std::istringstream lines(os.str());
  std::string line;
  int frames = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    ++frames;
    EXPECT_NO_THROW({
      const json::Value frame = json::parse(line);
      EXPECT_DOUBLE_EQ(frame.at("dashboard").at("jobs").as_number(), 1.0);
    });
  }
  EXPECT_GE(frames, 2);
}

TEST(Telemetry, DashboardEnvParsing) {
  setenv("E2ELU_DASHBOARD", "2.5:json", 1);
  telemetry::DashboardOptions opts = telemetry::dashboard_options_from_env();
  EXPECT_DOUBLE_EQ(opts.interval_s, 2.5);
  EXPECT_TRUE(opts.json);
  setenv("E2ELU_DASHBOARD", "3", 1);
  opts = telemetry::dashboard_options_from_env();
  EXPECT_DOUBLE_EQ(opts.interval_s, 3.0);
  EXPECT_FALSE(opts.json);
  unsetenv("E2ELU_DASHBOARD");
  opts = telemetry::dashboard_options_from_env();
  EXPECT_DOUBLE_EQ(opts.interval_s, 0.0);
}

// ---------------------------------------------------------- concurrency --

TEST(Telemetry, ConcurrentRecordingFromWorkerPool) {
  // The TSan hammer: four workers and three submitter threads drive
  // histogram recording, SLO accounting, and the flight-recorder ring
  // concurrently, while this thread reads snapshots mid-flight.
  MetricsRegistry::global().clear();
  FactorServiceOptions opts = service_options();
  opts.workers = 4;
  opts.slo.latency_threshold_us = 1.0;  // every job "violates": max churn
  constexpr int kTenants = 3;
  constexpr int kJobsPerTenant = 12;
  {
    FactorService svc(opts);
    std::vector<Csr> patterns;
    for (int t = 0; t < kTenants; ++t) {
      patterns.push_back(gen_circuit(120, 4.0, 2, 8,
                                     0x100 + static_cast<std::uint64_t>(t)));
    }
    std::vector<std::thread> submitters;
    for (int t = 0; t < kTenants; ++t) {
      submitters.emplace_back([&, t] {
        const std::string tenant = "tenant-" + std::to_string(t);
        for (int j = 0; j < kJobsPerTenant; ++j) {
          svc.submit(gen_value_drift(patterns[static_cast<std::size_t>(t)],
                                     0.1, static_cast<std::uint64_t>(j)),
                     std::nullopt, tenant, 0)
              .get();
        }
      });
    }
    // Concurrent reads: quantiles and registry snapshots under recording.
    for (int k = 0; k < 20; ++k) {
      (void)MetricsRegistry::global().histogram("service.job_us").p99();
      (void)MetricsRegistry::global().histograms_snapshot();
      (void)svc.recorder().running_p99_us();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    for (std::thread& t : submitters) t.join();
  }

  const auto hists = MetricsRegistry::global().histograms_snapshot();
  constexpr std::uint64_t kTotal =
      static_cast<std::uint64_t>(kTenants) * kJobsPerTenant;
  EXPECT_EQ(hists.at("service.job_us").count, kTotal);
  EXPECT_EQ(hists.at("service.queue_wait_us").count, kTotal);
  for (int t = 0; t < kTenants; ++t) {
    const std::string tenant = "tenant-" + std::to_string(t);
    EXPECT_EQ(
        hists.at(trace::labeled("service.job_us", "tenant", tenant)).count,
        static_cast<std::uint64_t>(kJobsPerTenant));
    EXPECT_EQ(MetricsRegistry::global().counters_snapshot().at(
                  "service.tenant." + tenant + ".slo_violations"),
              static_cast<std::uint64_t>(kJobsPerTenant));
  }
}

}  // namespace
}  // namespace e2elu
