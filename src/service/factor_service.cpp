#include "service/factor_service.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "numeric/numeric.hpp"
#include "service/structure_hash.hpp"
#include "support/check.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu::service {

namespace {

/// Accumulates this scope's wall time into one JobReport phase field —
/// through exceptions too, so a failed build still attributes its time.
class PhaseTimer {
 public:
  explicit PhaseTimer(double& out)
      : out_(out), start_(trace::Tracer::instance().now_us()) {}
  ~PhaseTimer() { out_ += trace::Tracer::instance().now_us() - start_; }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  double& out_;
  double start_;
};

/// Fills the report's failure fields from the (already wrapped) error.
void note_failure(telemetry::JobReport& report, std::exception_ptr error) {
  report.failed = true;
  try {
    std::rethrow_exception(error);
  } catch (const FactorError& e) {
    report.error = e.what();
    report.error_kind = fault_kind_name(e.kind());
  } catch (const std::exception& e) {
    report.error = e.what();
  } catch (...) {
    report.error = "unknown error";
  }
}

/// Every failure surfaces through the job's future as a structured
/// FactorError so tenants can match on kind/phase; raw device and numeric
/// exceptions are wrapped, anything else keeps its type (caller bugs
/// should look like caller bugs).
std::exception_ptr wrap_error(std::exception_ptr error) {
  try {
    std::rethrow_exception(error);
  } catch (const FactorError&) {
    return error;
  } catch (const gpusim::OutOfDeviceMemory& e) {
    return std::make_exception_ptr(
        FactorError(FaultKind::DeviceOutOfMemory, "service", e.what()));
  } catch (const gpusim::LaunchFailure& e) {
    return std::make_exception_ptr(
        FactorError(FaultKind::LaunchFailed, "service", e.what()));
  } catch (const numeric::ZeroPivotError& e) {
    return std::make_exception_ptr(FactorError(FaultKind::ZeroPivot, "service",
                                               e.what(), e.column()));
  } catch (...) {
    return error;
  }
}

}  // namespace

FactorService::FactorService(FactorServiceOptions options)
    : opt_(std::move(options)),
      slo_(opt_.slo),
      recorder_(opt_.recorder),
      cache_(opt_.cache),
      queue_(opt_.max_queue),
      paused_(opt_.start_paused) {
  E2ELU_CHECK_MSG(opt_.workers >= 1, "FactorService needs at least 1 worker");
  telemetry::DashboardOptions dopts = telemetry::dashboard_options_from_env();
  if (dopts.interval_s <= 0 && opt_.dashboard_interval_s > 0) {
    dopts.interval_s = opt_.dashboard_interval_s;
    dopts.json = opt_.dashboard_json;
  }
  if (dopts.interval_s > 0) {
    dashboard_ = std::make_unique<telemetry::DashboardExporter>(dopts);
  }
  if (opt_.deterministic) {
    worker_pools_.reserve(opt_.workers);
    for (std::size_t w = 0; w < opt_.workers; ++w) {
      worker_pools_.push_back(std::make_unique<ThreadPool>(1));
    }
  }
  workers_.reserve(opt_.workers);
  for (std::size_t w = 0; w < opt_.workers; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

FactorService::~FactorService() {
  {
    std::lock_guard<std::mutex> lock(pause_mutex_);
    closing_ = true;
    paused_ = false;
  }
  cv_pause_.notify_all();
  queue_.close();
  for (std::thread& t : workers_) t.join();
  // After the workers: the dashboard's final frame then covers every job.
  dashboard_.reset();
}

std::future<JobResult> FactorService::submit(
    Csr a, std::optional<std::vector<value_t>> rhs, const std::string& tenant,
    int priority) {
  TRACE_SPAN("service.admission",
             {{"n", a.n}, {"nnz", a.nnz()}, {"priority", priority}});
  validate(a);
  E2ELU_CHECK_MSG(!a.values.empty(), "submit: matrix has no values");
  if (rhs.has_value()) {
    E2ELU_CHECK_MSG(rhs->size() == static_cast<std::size_t>(a.n),
                    "submit: rhs size " << rhs->size()
                                        << " does not match matrix order "
                                        << a.n);
  }

  Job job;
  job.id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  job.tenant = tenant;
  job.priority = priority;
  job.a = std::move(a);
  job.rhs = std::move(rhs);
  job.submitted_us = trace::Tracer::instance().now_us();
  std::future<JobResult> future = job.promise.get_future();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = tenants_.try_emplace(tenant);
    if (inserted) it->second.quota = opt_.tenant_quota;
    TenantState& state = it->second;
    if (state.in_flight >= state.quota) {
      ++state.stats.quota_rejections;
      ++stats_.quota_rejections;
      trace::MetricsRegistry::global()
          .counter("service.quota_rejections")
          .add(1);
      trace::MetricsRegistry::global()
          .counter("service.tenant." + tenant + ".rejected")
          .add(1);
      throw FactorError(FaultKind::QuotaExceeded, "admission",
                        "tenant '" + tenant + "' has " +
                            std::to_string(state.in_flight) +
                            " jobs in flight (quota " +
                            std::to_string(state.quota) + ")");
    }
    ++state.in_flight;
    ++state.stats.submitted;
    ++stats_.submitted;
    ++pending_;
  }

  // Backpressure: blocks while the queue is at capacity, so a saturated
  // service throttles producers instead of buffering unboundedly.
  if (!queue_.push(std::move(job), priority)) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      TenantState& state = tenants_[tenant];
      --state.in_flight;
      --state.stats.submitted;
      --stats_.submitted;
      --pending_;
    }
    cv_idle_.notify_all();
    throw FactorError(FaultKind::Rejected, "admission",
                      "service is shutting down");
  }
  auto& registry = trace::MetricsRegistry::global();
  registry.counter("service.jobs").add(1);
  registry.counter("service.tenant." + tenant + ".jobs").add(1);
  registry.histogram("service.queue_depth")
      .record(static_cast<double>(queue_.size()));
  return future;
}

void FactorService::set_tenant_quota(const std::string& tenant,
                                     std::size_t max_in_flight) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = tenants_.try_emplace(tenant);
  it->second.quota = max_in_flight;
}

void FactorService::pause() {
  std::lock_guard<std::mutex> lock(pause_mutex_);
  paused_ = true;
}

void FactorService::resume() {
  {
    std::lock_guard<std::mutex> lock(pause_mutex_);
    paused_ = false;
  }
  cv_pause_.notify_all();
}

void FactorService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [&] { return pending_ == 0; });
}

FactorServiceStats FactorService::stats() const {
  FactorServiceStats s;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    s = stats_;
  }
  s.max_queue_depth = queue_.max_depth();
  s.cache = cache_.stats();
  return s;
}

TenantStats FactorService::tenant_stats(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = tenants_.find(tenant);
  return it == tenants_.end() ? TenantStats{} : it->second.stats;
}

void FactorService::worker_loop(std::size_t worker_id) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(pause_mutex_);
      cv_pause_.wait(lock, [&] { return !paused_ || closing_; });
    }
    std::optional<Job> slot = queue_.pop();
    if (!slot.has_value()) return;  // closed and fully drained
    Job job = std::move(*slot);

    const double popped_us = trace::Tracer::instance().now_us();
    telemetry::JobReport report;
    report.job_id = job.id;
    report.tenant = job.tenant;
    report.priority = job.priority;
    report.n = job.a.n;
    report.nnz = job.a.nnz();
    report.structure_hash = structure_hash(job.a);
    report.submitted_at_us = job.submitted_us;
    report.queue_wait_us = popped_us - job.submitted_us;

    try {
      JobResult result = run_job(job, worker_id, report);
      finalize_report(report);
      result.report = report;
      // Span capture from this worker's own trace ring: the job's spans
      // (service.job downward) all start at or after the queue pop.
      recorder_.observe(report,
                        trace::Tracer::armed()
                            ? trace::Tracer::instance().collect_current_thread(
                                  popped_us)
                            : std::vector<trace::SpanRecord>{});
      finish_job(job, std::move(result));
    } catch (...) {
      std::exception_ptr error = wrap_error(std::current_exception());
      note_failure(report, error);
      finalize_report(report);
      recorder_.observe(report,
                        trace::Tracer::armed()
                            ? trace::Tracer::instance().collect_current_thread(
                                  popped_us)
                            : std::vector<trace::SpanRecord>{});
      fail_job(job, error);
    }
  }
}

JobResult FactorService::run_job(Job& job, std::size_t worker_id,
                                 telemetry::JobReport& report) {
  TRACE_SPAN("service.job", {{"n", job.a.n},
                             {"nnz", job.a.nnz()},
                             {"priority", job.priority}});
  JobResult r;
  r.job_id = job.id;
  r.tenant = job.tenant;
  r.priority = job.priority;

  // Big-job route: the pattern cache cannot help a first-time pattern of
  // this size, and one device serves it slowest — factor it across the
  // group. Bypasses the cache entirely (group-resident shards are not a
  // cacheable single-device plan).
  const bool sharded =
      opt_.sharding.enabled && job.a.n >= opt_.sharding.min_n;
  PatternCache::EntryPtr entry;
  if (!sharded && opt_.cache_enabled) {
    TRACE_SPAN("service.cache_lookup");
    PhaseTimer timer(report.cache_lookup_us);
    entry = cache_.lookup(job.a);
    trace::MetricsRegistry::global()
        .counter(entry ? "service.cache_hits" : "service.cache_misses")
        .add(1);
    std::lock_guard<std::mutex> lock(mutex_);
    ++(entry ? stats_.cache_hits : stats_.cache_misses);
  }

  if (sharded) {
    r = run_sharded(job, worker_id, report);
  } else if (entry) {
    // Warm path: numeric-only replay through the cached plan. The entry
    // mutex keeps each plan single-flight — refactorize() mutates the
    // cached skeleton in place.
    report.cache_hit = true;
    PhaseTimer timer(report.replay_us);
    std::lock_guard<std::mutex> entry_lock(entry->mutex);
    TRACE_SPAN("service.replay", entry->engine->device(),
               {{"n", job.a.n},
                {"hits", entry->hits.load(std::memory_order_relaxed)}});
    refactor::RefactorReport rep;
    try {
      rep = entry->engine->refactorize(job.a);
    } catch (...) {
      // The engine may be mid-rebuild (a fallback that itself failed):
      // unlink it so the next same-pattern job rebuilds cleanly instead
      // of replaying through a half-updated plan.
      cache_.remove(entry);
      throw;
    }
    r.cache_hit = true;
    r.replayed = rep.reused;
    r.demoted = rep.fell_back;
    r.launches = rep.device.launches();
    r.sim_us = rep.total_sim_us();
    r.factors = entry->engine->factors();
    report.device = rep.device;
    report.recovery_retries = rep.recovery_retries;
    if (rep.fell_back) {
      cache_.refresh_footprint(*entry);
      trace::MetricsRegistry::global().counter("service.demotions").add(1);
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.demotions;
    }
  } else {
    r = run_cold(job, worker_id, report);
  }

  if (job.rhs.has_value()) {
    TRACE_SPAN("service.solve", {{"n", job.a.n}});
    PhaseTimer timer(report.solve_us);
    r.x = SparseLU::solve(r.factors, *job.rhs);
  }
  report.replayed = r.replayed;
  report.demoted = r.demoted;
  report.launches = r.launches;
  report.sim_us = r.sim_us;
  if (!r.replayed) {
    // Cold, sharded and demoted jobs report their build's counters. A
    // reused replay keeps its own retries (the cached factors still carry
    // the cold build's), and it neither replans nor perturbs.
    report.symbolic_replans = r.factors.symbolic_replans;
    report.pivot_perturbations = r.factors.pivot_perturbations;
    report.recovery_retries = r.factors.recovery_retries;
  }
  return r;
}

JobResult FactorService::run_cold(Job& job, std::size_t worker_id,
                                  telemetry::JobReport& report) {
  PhaseTimer timer(report.build_us);
  JobResult r;
  r.job_id = job.id;
  r.tenant = job.tenant;
  r.priority = job.priority;

  Options popt = opt_.pipeline;
  if (opt_.deterministic) popt.pool = worker_pools_[worker_id].get();
  if (opt_.cache_enabled && opt_.fuse_replays) {
    popt.numeric.fusion.enabled = true;
  }

  if (opt_.cache_enabled) {
    // Pre-build pressure relief: clear LRU plans until the symbolic
    // estimate fits, so the build starts with headroom instead of
    // discovering pressure mid-allocation.
    const std::size_t evicted =
        cache_.evict_for(PatternCache::estimate_footprint(job.a));
    if (evicted > 0) {
      trace::MetricsRegistry::global()
          .counter("service.pressure_evictions")
          .add(evicted);
    }
  }

  // Full pipeline through a fresh Refactorizer (so the resulting plan is
  // cacheable). Allocation failures release LRU plans and retry — under
  // injected or transient memory pressure the job recovers instead of
  // failing; a genuinely too-large problem exhausts the bounded attempts
  // and surfaces as FactorError{DeviceOutOfMemory}.
  std::unique_ptr<refactor::Refactorizer> engine;
  constexpr int kMaxBuildAttempts = 3;
  for (int attempt = 1;; ++attempt) {
    try {
      TRACE_SPAN("service.factorize",
                 {{"n", job.a.n}, {"nnz", job.a.nnz()}, {"attempt", attempt}});
      engine = std::make_unique<refactor::Refactorizer>(job.a, popt,
                                                        opt_.refactor);
      break;
    } catch (const gpusim::OutOfDeviceMemory&) {
      if (attempt >= kMaxBuildAttempts) throw;
    } catch (const FactorError& e) {
      if (e.kind() != FaultKind::DeviceOutOfMemory ||
          attempt >= kMaxBuildAttempts) {
        throw;
      }
    }
    if (opt_.cache_enabled) {
      // Evict to the headroom the build actually needs, like the
      // pre-build path: a cache full of many small entries would
      // otherwise exhaust the retry budget one entry at a time. The ask
      // is capped at the whole budget so a build whose estimate exceeds
      // it (uncacheable-sized) still clears the most headroom the cache
      // can offer; when the estimate already fits — the OOM came from
      // elsewhere — one LRU entry still goes so each retry makes
      // forward progress.
      const std::size_t need =
          std::min(PatternCache::estimate_footprint(job.a),
                   cache_.memory_budget_bytes());
      if (cache_.evict_for(need) == 0) {
        cache_.evict_lru();
      }
    }
    trace::MetricsRegistry::global().counter("service.build_retries").add(1);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.build_retries;
    }
  }

  // Snapshot the result before the cache takes the engine: once inserted,
  // another worker may lock the entry and replay new values through it.
  r.launches = engine->factors().device_stats.launches();
  r.sim_us = engine->factors().total_sim_us();
  r.factors = engine->factors();
  report.device = engine->factors().device_stats;
  record_preprocess_breakdown(r.factors, report);
  if (opt_.cache_enabled) cache_.insert(job.a, std::move(engine));
  return r;
}

void FactorService::record_preprocess_breakdown(
    const FactorResult& f, telemetry::JobReport& report) {
  report.preprocess_match_us = f.preprocess_match.wall_ms * 1000.0;
  report.preprocess_order_us = f.preprocess_order.wall_ms * 1000.0;
  report.preprocess_scale_us = f.preprocess_scale.wall_ms * 1000.0;
  // The sub-phases are disjoint subintervals of the preprocess stage;
  // other is the measured remainder (permutation application, patching),
  // and the total is re-formed as the exact sum so the sub-tiling
  // invariant holds bit-for-bit like the top-level one.
  const double sum = report.preprocess_match_us + report.preprocess_order_us +
                     report.preprocess_scale_us;
  report.preprocess_other_us =
      std::max(0.0, f.preprocess.wall_ms * 1000.0 - sum);
  report.preprocess_total_us = sum + report.preprocess_other_us;

  auto& reg = trace::MetricsRegistry::global();
  if (report.preprocess_match_us > 0) {
    reg.histogram("service.preprocess_match_us")
        .record(report.preprocess_match_us);
  }
  if (report.preprocess_order_us > 0) {
    reg.histogram("service.preprocess_order_us")
        .record(report.preprocess_order_us);
  }
  if (report.preprocess_scale_us > 0) {
    reg.histogram("service.preprocess_scale_us")
        .record(report.preprocess_scale_us);
  }
}

JobResult FactorService::run_sharded(Job& job, std::size_t worker_id,
                                     telemetry::JobReport& report) {
  PhaseTimer timer(report.build_us);
  JobResult r;
  r.job_id = job.id;
  r.tenant = job.tenant;
  r.priority = job.priority;

  Options popt = opt_.pipeline;
  if (opt_.deterministic) popt.pool = worker_pools_[worker_id].get();

  sharding::ShardingOptions sopt = opt_.sharding.options;
  sopt.num_devices = opt_.sharding.devices;

  TRACE_SPAN("service.sharded_factorize", {{"n", job.a.n},
                                           {"nnz", job.a.nnz()},
                                           {"devices", sopt.num_devices}});
  sharding::ShardedFactorizer engine(popt, sopt);
  sharding::ShardReport srep;
  r.factors = engine.factorize(job.a, srep);
  r.sharded = true;
  r.launches = r.factors.device_stats.launches();
  r.sim_us = r.factors.total_sim_us();
  report.device = r.factors.device_stats;
  record_preprocess_breakdown(r.factors, report);
  report.sharded = true;
  report.sharded_devices = srep.devices_used;

  trace::MetricsRegistry::global().counter("service.sharded_jobs").add(1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.sharded_jobs;
  }
  return r;
}

void FactorService::finalize_report(telemetry::JobReport& report) {
  const double wall_total =
      trace::Tracer::instance().now_us() - report.submitted_at_us;
  const double measured = report.queue_wait_us + report.cache_lookup_us +
                          report.build_us + report.replay_us +
                          report.solve_us;
  report.other_us = std::max(0.0, wall_total - measured);
  // total_us is the exact sum of the six phase fields — the tiling
  // invariant the phase histograms inherit (tests sum them back up).
  report.total_us = report.queue_wait_us + report.cache_lookup_us +
                    report.build_us + report.replay_us + report.solve_us +
                    report.other_us;

  auto& reg = trace::MetricsRegistry::global();
  const auto record = [&](const char* base, double v) {
    reg.histogram(base).record(v);
    reg.histogram(trace::labeled(base, "tenant", report.tenant)).record(v);
  };
  // Phases record only when they ran, so each histogram's count is the
  // number of jobs that took that path; zero-valued skipped phases would
  // not change the sums the tiling test checks, only pollute the counts.
  record("service.queue_wait_us", report.queue_wait_us);
  if (opt_.cache_enabled) {
    record("service.cache_lookup_us", report.cache_lookup_us);
  }
  if (!report.cache_hit && report.build_us > 0) {
    record("service.cold_build_us", report.build_us);
  }
  if (report.cache_hit) record("service.warm_replay_us", report.replay_us);
  if (report.solve_us > 0) record("service.solve_us", report.solve_us);
  record("service.job_other_us", report.other_us);
  record("service.job_us", report.total_us);
  record("service.job_sim_us", report.sim_us);
  record("service.job_launches", static_cast<double>(report.launches));

  slo_.observe(report);
}

// Accounting precedes promise resolution in both paths, so a client that
// observed its future resolve sees stats that already include its job.
void FactorService::finish_job(Job& job, JobResult result) {
  result.completed_seq =
      completed_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  retire_job(job.tenant, /*failed=*/false, result.replayed);
  job.promise.set_value(std::move(result));
}

void FactorService::fail_job(Job& job, std::exception_ptr error) {
  trace::MetricsRegistry::global().counter("service.failures").add(1);
  trace::MetricsRegistry::global()
      .counter("service.tenant." + job.tenant + ".failures")
      .add(1);
  retire_job(job.tenant, /*failed=*/true, /*replayed=*/false);
  job.promise.set_exception(error);
}

void FactorService::retire_job(const std::string& tenant, bool failed,
                               bool replayed) {
  if (replayed) {
    trace::MetricsRegistry::global()
        .counter("service.tenant." + tenant + ".replays")
        .add(1);
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    TenantState& state = tenants_[tenant];
    --state.in_flight;
    if (failed) {
      ++state.stats.failed;
      ++stats_.failed;
    } else {
      ++state.stats.completed;
      ++stats_.completed;
      if (replayed) {
        ++state.stats.replays;
        ++stats_.replays;
      }
    }
    --pending_;
    if (pending_ == 0) cv_idle_.notify_all();
  }
}

}  // namespace e2elu::service
