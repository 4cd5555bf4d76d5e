#include "layers.hpp"

namespace e2elu::e2e {

namespace {

double pct(double part, double whole) {
  return whole == 0 ? 0.0 : 100.0 * part / whole;
}

double ratio(double part, double whole) {
  return whole == 0 ? 0.0 : part / whole;
}

}  // namespace

void Layers::Phase::add(const PhaseReport& p) {
  sim_us += p.sim_us;
  wall_ms += p.wall_ms;
  ops += static_cast<double>(p.ops);
  launches += static_cast<double>(p.launches);
}

void Layers::add_factorization(const FactorResult& f, double call_wall_ms) {
  preprocess.add(f.preprocess);
  match.add(f.preprocess_match);
  order.add(f.preprocess_order);
  symbolic.add(f.symbolic);
  levelize.add(f.levelize);
  numeric.add(f.numeric);
  fill_nnz += static_cast<double>(f.fill_nnz);
  chunks += f.symbolic_chunks;
  replans += f.symbolic_replans;
  levels += f.num_levels;
  fused_levels += f.fused_levels;
  pivot_perturbations += f.pivot_perturbations;
  recovery_retries += f.recovery_retries;
  core_other_wall_ms += call_wall_ms - f.preprocess.wall_ms -
                        f.symbolic.wall_ms - f.levelize.wall_ms -
                        f.numeric.wall_ms;
}

void Layers::add_device(const gpusim::DeviceStats& d) {
  device.host_launches += d.host_launches;
  device.device_launches += d.device_launches;
  device.h2d_bytes += d.h2d_bytes;
  device.fused_launches += d.fused_launches;
  device.sim_kernel_us += d.sim_kernel_us;
  device.sim_launch_us += d.sim_launch_us;
  device.sim_transfer_us += d.sim_transfer_us;
  device.sim_occupancy_us += d.sim_occupancy_us;
}

std::vector<Metric> Layers::metrics() const {
  return {
      {"preprocess.sim_ms", "ms", preprocess.sim_us / 1e3},
      {"preprocess.wall_ms", "ms", preprocess.wall_ms},
      {"preprocess.ops", "count", preprocess.ops},
      {"preprocess.launches", "count", preprocess.launches},
      {"preprocess.match_pct", "%", pct(match.sim_us, preprocess.sim_us)},
      {"preprocess.order_pct", "%", pct(order.sim_us, preprocess.sim_us)},
      {"preprocess.fill_nnz", "count", fill_nnz},
      {"symbolic.sim_ms", "ms", symbolic.sim_us / 1e3},
      {"symbolic.wall_ms", "ms", symbolic.wall_ms},
      {"symbolic.ops", "count", symbolic.ops},
      {"symbolic.launches", "count", symbolic.launches},
      {"symbolic.chunks", "count", chunks},
      {"symbolic.replans", "count", replans},
      {"scheduling.levelize.sim_ms", "ms", levelize.sim_us / 1e3},
      {"scheduling.levelize.wall_ms", "ms", levelize.wall_ms},
      {"scheduling.levelize.levels", "count", levels},
      {"scheduling.fusion.fused_levels", "count", fused_levels},
      {"numeric.sim_ms", "ms", numeric.sim_us / 1e3},
      {"numeric.wall_ms", "ms", numeric.wall_ms},
      {"numeric.ops", "count", numeric.ops},
      {"numeric.launches", "count", numeric.launches},
      {"numeric.pivot_perturbations", "count", pivot_perturbations},
      {"gpusim.kernel_ms", "ms", device.sim_kernel_us / 1e3},
      {"gpusim.launch_ms", "ms", device.sim_launch_us / 1e3},
      {"gpusim.transfer_ms", "ms", device.sim_transfer_us / 1e3},
      {"gpusim.h2d_mib", "MiB",
       static_cast<double>(device.h2d_bytes) / (1 << 20)},
      {"gpusim.host_launches", "count",
       static_cast<double>(device.host_launches)},
      {"gpusim.device_launches", "count",
       static_cast<double>(device.device_launches)},
      {"gpusim.fused_launches", "count",
       static_cast<double>(device.fused_launches)},
      {"gpusim.occupancy", "ratio",
       ratio(device.sim_occupancy_us, device.sim_kernel_us)},
      {"solve.wall_ms", "ms", solve_wall_ms},
      {"solve.bind_pct", "%", pct(bind_wall_ms, solve_wall_ms)},
      {"solve.sim_pct", "%", pct(solve_sim_us, sim_us)},
      {"refactor.reuse_ratio", "ratio", ratio(refactor_reused, refactor_calls)},
      {"refactor.fallbacks", "count", refactor_fallbacks},
      {"refactor.scatter_pct", "%",
       pct(refactor_scatter_sim_us, refactor_sim_us)},
      {"service.cache_hit_ratio", "ratio", ratio(cache_hits, jobs)},
      {"service.evictions", "count", evictions},
      {"service.demotions", "count", demotions},
      {"service.build_retries", "count", build_retries},
      {"service.queue_wait_pct", "%", pct(queue_wait_us, job_total_us)},
      {"service.lookup_pct", "%", pct(lookup_us, job_total_us)},
      {"service.build_pct", "%", pct(build_us, job_total_us)},
      {"service.replay_pct", "%", pct(replay_us, job_total_us)},
      {"service.solve_pct", "%", pct(job_solve_us, job_total_us)},
      {"service.other_pct", "%", pct(job_other_us, job_total_us)},
      {"sharding.devices_used", "count", ratio(sharded_devices, sharded_jobs)},
      {"sharding.latency_pct", "%", pct(sharded_total_us, job_total_us)},
      {"sharding.sim_pct", "%", pct(sharded_sim_us, job_sim_us)},
      {"core.other_wall_ms", "ms", core_other_wall_ms},
      {"core.recovery_retries", "count", recovery_retries},
  };
}

}  // namespace e2elu::e2e
