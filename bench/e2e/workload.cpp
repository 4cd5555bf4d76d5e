#include "workload.hpp"

#include <algorithm>
#include <cmath>

namespace e2elu::e2e {

std::unique_ptr<Workload> make_workload(const Config& cfg) {
  if (cfg.workload == "suite-default") return make_suite(cfg, false);
  if (cfg.workload == "suite-fillreduce") return make_suite(cfg, true);
  if (cfg.workload == "newton-refactor") return make_newton(cfg);
  if (cfg.workload == "service-fleet") return make_fleet(cfg);
  throw Error("unknown workload '" + cfg.workload + "'");
}

bool solved(const Csr& a, std::span<const value_t> x,
            std::span<const value_t> b) {
  const double r = SparseLU::residual(a, x, b);
  return std::isfinite(r) && r <= 1e-10;
}

bool phases_tile(const FactorResult& f) {
  const double sum = f.preprocess.sim_us + f.symbolic.sim_us +
                     f.levelize.sim_us + f.numeric.sim_us;
  const PhaseReport& m = f.preprocess_match;
  const PhaseReport& o = f.preprocess_order;
  const PhaseReport& s = f.preprocess_scale;
  return f.total_sim_us() == sum &&
         m.sim_us + o.sim_us + s.sim_us <= f.preprocess.sim_us * (1 + 1e-12) &&
         m.ops + o.ops + s.ops <= f.preprocess.ops;
}

bool report_tiles(const telemetry::JobReport& r) {
  const auto close = [](double x, double y) {
    return std::abs(x - y) <= 1e-9 * std::max(1.0, std::abs(y));
  };
  return close(r.queue_wait_us + r.cache_lookup_us + r.build_us +
                   r.replay_us + r.solve_us + r.other_us,
               r.total_us) &&
         close(r.preprocess_match_us + r.preprocess_order_us +
                   r.preprocess_scale_us + r.preprocess_other_us,
               r.preprocess_total_us);
}

}  // namespace e2elu::e2e
