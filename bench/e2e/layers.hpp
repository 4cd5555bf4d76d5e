// Per-layer accounting of one benchmark repetition.
//
// The bench touches no layer: every number here is read from the
// accounting the public calls already return (FactorResult PhaseReports,
// RefactorReport, JobResult.report, gpusim::DeviceStats deltas) or timed
// around those calls. Layers are named after the src/ modules.
#pragma once

#include <string>
#include <vector>

#include "core/sparse_lu.hpp"
#include "gpusim/device.hpp"

namespace e2elu::e2e {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct Layers {
  struct Phase {
    double sim_us = 0, wall_ms = 0, ops = 0, launches = 0;
    void add(const PhaseReport& p);
  };

  // Full pipeline runs (factorize, plan builds, cold service builds).
  Phase preprocess, match, order, symbolic, levelize, numeric;
  double fill_nnz = 0, chunks = 0, replans = 0, levels = 0, fused_levels = 0;
  double pivot_perturbations = 0, recovery_retries = 0;
  double core_other_wall_ms = 0;  ///< factorize wall beyond its phases

  gpusim::DeviceStats device;  ///< summed device deltas

  // Solutions.
  double sim_us = 0;         ///< all simulated time of the repetition
  double solve_sim_us = 0;   ///< device triangular solves
  double solve_wall_ms = 0;  ///< solver build/rebind + solve
  double bind_wall_ms = 0;   ///< solver build or rebind alone

  // Refactorizer driven directly by the bench.
  double refactor_calls = 0, refactor_reused = 0, refactor_fallbacks = 0;
  double refactor_sim_us = 0, refactor_scatter_sim_us = 0;

  // FactorService jobs: JobReport phases tile each job's latency.
  double jobs = 0, cache_hits = 0, evictions = 0, demotions = 0;
  double build_retries = 0;
  double queue_wait_us = 0, lookup_us = 0, build_us = 0, replay_us = 0;
  double job_solve_us = 0, job_other_us = 0, job_total_us = 0;
  double job_sim_us = 0;
  double sharded_jobs = 0, sharded_devices = 0, sharded_total_us = 0;
  double sharded_sim_us = 0;

  /// One full pipeline run that took `call_wall_ms` on the host.
  void add_factorization(const FactorResult& f, double call_wall_ms);
  void add_device(const gpusim::DeviceStats& d);

  /// Per-layer metrics, named as in BENCHMARK.json (trace.* excluded).
  std::vector<Metric> metrics() const;
};

}  // namespace e2elu::e2e
