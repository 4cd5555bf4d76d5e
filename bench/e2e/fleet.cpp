// service-fleet: the only concurrent path. A FactorService (2
// deterministic workers, 64 MiB device, sharded route for n >= 4096 on 4
// devices) serves 2 closed-loop clients on a fixed schedule, 200 jobs a
// repetition, each with a right-hand side. Per client and 20 of its jobs:
// 14 warm resubmits of three tenants' patterns (cache hit, numeric
// replay), 5 "mayfly" jobs with a fresh n = 1200 pattern (miss, insert,
// LRU evict) and 1 bulk blocked-planar mesh with n = 8000 (sharded route;
// the cost model degrades these meshes to one device). The cache budget
// holds the three warm plans plus about eight cold ones, far fewer than
// the 50 mayflies of a repetition, so every mayfly misses; warm plans are
// primed in set-up.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>

#include "matrix/generators.hpp"
#include "service/factor_service.hpp"
#include "support/timer.hpp"
#include "workload.hpp"
#include "workloads.hpp"

namespace e2elu::e2e {

namespace {

constexpr std::size_t kClients = 2;
constexpr std::size_t kColdPlans = 8;  ///< cache room beyond the warm plans

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(const Config& cfg) {
    const std::uint64_t seed = cfg.seed;
    const Tenant tenants[] = {
        {"pwr-grid", gen_circuit(1200, 6.0, 3, 24, derive_seed(0x11, seed))},
        {"rf-filter", gen_circuit(800, 5.0, 2, 16, derive_seed(0x22, seed))},
        {"sram-array", gen_circuit(1600, 5.5, 4, 32, derive_seed(0x33, seed))},
    };
    const std::size_t jobs = cfg.quick ? 40 : 200;
    // Each client's own 20-job cycle holds 14 warm jobs cycling through
    // all three tenants, 5 mayflies and 1 bulk job. Every tenant is then
    // looked up by each client at least every 4 of its jobs, while a cycle
    // inserts at most 2 mayflies per client in that span: with room for 8
    // cold plans a warm plan is never the LRU victim, however the two
    // clients interleave, and routing stays deterministic.
    std::size_t warm[kClients] = {};
    for (std::size_t j = 0; j < jobs; ++j) {
      Job job;
      const std::size_t client = j % kClients;
      const std::size_t slot = (j / kClients) % 20;
      if (slot == 19) {
        job.kind = Kind::Bulk;
        job.tenant = "bulk";
        job.a = gen_blocked_planar(8000, 100, 3.0, 4,
                                   derive_seed(0xb01c + j, seed));
      } else if (slot % 4 == 3 || slot == 18) {
        job.kind = Kind::Mayfly;
        job.tenant = "mayfly";
        job.a = gen_circuit(1200, 6.0, 3, 24, derive_seed(0x5150 + j, seed));
      } else {
        const Tenant& t =
            tenants[(warm[client]++ + client) % std::size(tenants)];
        job.tenant = t.name;
        // Small step ids keep gen_value_drift's phase well resolved.
        job.a = gen_value_drift(t.pattern, 0.1, seed % 1000 * 1000 + j + 1);
      }
      job.b = multiply(job.a,
                       random_vector(job.a.n, derive_seed(0xf1ee7 + j, seed)));
      jobs_.push_back(std::move(job));
    }

    service::FactorServiceOptions opt;
    opt.workers = 2;
    opt.deterministic = true;
    opt.pipeline.device = gpusim::DeviceSpec::v100_with_memory(64u << 20);
    opt.pipeline.match_diagonal = false;
    opt.sharding.enabled = true;
    opt.sharding.devices = 4;
    opt.sharding.min_n = 4096;
    // Size the budget from real plan footprints (the pre-build estimate
    // runs ~3x low), built as the service's cold path builds them.
    Options plan = opt.pipeline;
    plan.numeric.fusion.enabled = opt.fuse_replays;
    const auto footprint = [&](const Csr& a) {
      return refactor::Refactorizer(a, plan).device_footprint_bytes();
    };
    const auto mayfly =
        std::find_if(jobs_.begin(), jobs_.end(),
                     [](const Job& x) { return x.kind == Kind::Mayfly; });
    std::size_t budget = kColdPlans * footprint(mayfly->a);
    for (const Tenant& t : tenants) budget += footprint(t.pattern);
    opt.cache.memory_budget_bytes = budget;
    service_ = std::make_unique<service::FactorService>(opt);
    for (const Tenant& t : tenants) {
      service_->submit(t.pattern, std::nullopt, t.name).get();
    }
  }

  Rep run(Trace* trace, int parent) override {
    const service::FactorServiceStats before = service_->stats();
    std::vector<Outcome> out(jobs_.size());
    const std::uint64_t first_op = ops_;
    ops_ += jobs_.size();
    WallTimer rep_timer;
    const auto client = [&](std::size_t first) {
      for (std::size_t j = first; j < jobs_.size(); j += kClients) {
        const std::uint64_t op = first_op + j + 1;
        const Scope op_span(trace, "job", parent, op, false);
        Outcome& o = out[j];
        Csr a = jobs_[j].a;
        std::vector<value_t> b = jobs_[j].b;
        WallTimer timer;
        try {
          {
            const Scope s(trace, "submit_wait", op_span.id(), op, true);
            o.result = service_->submit(std::move(a), std::move(b),
                                        jobs_[j].tenant)
                           .get();
            o.latency_ms = timer.millis();
          }
          const Scope s(trace, "check", op_span.id(), op, false);
          o.ok = o.result.x.has_value() &&
                 solved(jobs_[j].a, *o.result.x, jobs_[j].b);
          // Keep the accounting, drop the factors.
          o.result.factors.l = {};
          o.result.factors.u = {};
          o.result.x.reset();
        } catch (const std::exception& e) {
          o.latency_ms = timer.millis();
          o.error = e.what();
        }
      }
    };
    {
      std::jthread second(client, 1);
      client(0);
    }
    Rep rep;
    rep.wall_ms = rep_timer.millis();

    Layers& l = rep.layers;
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const Outcome& o = out[j];
      rep.latency_ms.push_back(o.latency_ms);
      if (!o.ok) {
        std::fprintf(
            stderr, "[e2e] job %zu (%s) failed: %s\n", j,
            jobs_[j].tenant.c_str(),
            o.error.empty() ? "residual above 1e-10" : o.error.c_str());
        ++rep.failed;
        continue;
      }
      const service::JobResult& r = o.result;
      const telemetry::JobReport& rp = r.report;
      const Kind kind = jobs_[j].kind;
      const bool routed =
          kind == Kind::Bulk     ? r.sharded
          : kind == Kind::Mayfly ? !r.cache_hit && !r.sharded
                                 : r.cache_hit && r.replayed;
      if (!routed || !report_tiles(rp) ||
          (!r.cache_hit && !phases_tile(r.factors))) {
        std::fprintf(stderr,
                     "[e2e] job %zu (%s): routed=%d report_tiles=%d "
                     "phases_tile=%d\n",
                     j, jobs_[j].tenant.c_str(), routed, report_tiles(rp),
                     r.cache_hit || phases_tile(r.factors));
        ++rep.violations;
      }
      l.jobs += 1;
      l.cache_hits += r.cache_hit ? 1 : 0;
      l.queue_wait_us += rp.queue_wait_us;
      l.lookup_us += rp.cache_lookup_us;
      l.build_us += rp.build_us;
      l.replay_us += rp.replay_us;
      l.job_solve_us += rp.solve_us;
      l.job_other_us += rp.other_us;
      l.job_total_us += rp.total_us;
      l.job_sim_us += r.sim_us;
      l.sim_us += r.sim_us;
      l.add_device(rp.device);
      l.solve_wall_ms += rp.solve_us / 1e3;
      if (r.cache_hit) {
        // A warm replay counts whole (value scatter included) as numeric.
        l.numeric.sim_us += r.sim_us;
        l.numeric.wall_ms += rp.replay_us / 1e3;
        l.numeric.launches += static_cast<double>(r.launches);
      } else {
        l.add_factorization(r.factors, rp.build_us / 1e3);
      }
      if (r.sharded) {
        l.sharded_jobs += 1;
        l.sharded_devices += rp.sharded_devices;
        l.sharded_total_us += rp.total_us;
        l.sharded_sim_us += r.sim_us;
      }
    }
    const service::FactorServiceStats after = service_->stats();
    l.evictions =
        static_cast<double>(after.cache.evictions - before.cache.evictions);
    l.demotions = static_cast<double>(after.demotions - before.demotions);
    l.build_retries =
        static_cast<double>(after.build_retries - before.build_retries);
    return rep;
  }

 private:
  enum class Kind { Warm, Mayfly, Bulk };
  struct Tenant {
    std::string name;
    Csr pattern;
  };
  struct Job {
    Kind kind = Kind::Warm;
    std::string tenant;
    Csr a;
    std::vector<value_t> b;
  };
  struct Outcome {
    service::JobResult result;
    double latency_ms = 0;
    bool ok = false;
    std::string error;
  };

  std::vector<Job> jobs_;
  std::unique_ptr<service::FactorService> service_;
  std::uint64_t ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_fleet(const Config& cfg) {
  return std::make_unique<FleetWorkload>(cfg);
}

}  // namespace e2elu::e2e
