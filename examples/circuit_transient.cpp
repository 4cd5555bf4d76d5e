// Circuit transient simulation — the paper's motivating application
// (SPICE-style solvers factorize once per operating point and then
// back-substitute for many time steps).
//
// Part 1: the classic workload. We build an RC ladder network with rail
// (hub) nodes, factorize its conductance matrix once with the end-to-end
// GPU pipeline, then run a transient sweep where only the right-hand side
// (source currents) changes — each step is two triangular solves against
// the cached factors.
//
// Part 2: the production workload. In a real Newton/transient loop the
// conductance *values* change every step (device models re-linearize,
// temperature drifts) while the connectivity is fixed. The refactorization
// engine caches the permutations, symbolic pattern, and level schedule
// from one full factorization and re-runs only the numeric phase per step.
//
// Part 3: the many-client workload. Measurement threads (noise analysis,
// corner sweeps, Monte Carlo samples) each want solves against the current
// operating point. They submit through the SolverService, which coalesces
// concurrent right-hand sides into micro-batches — one level sweep per
// batch instead of per vector — while the Newton loop keeps rebinding the
// service to freshly refactorized values.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <future>
#include <thread>
#include <vector>

#include "core/sparse_lu.hpp"
#include "matrix/generators.hpp"
#include "refactor/refactor.hpp"
#include "solve/pipeline_solver.hpp"
#include "solve/service.hpp"
#include "support/timer.hpp"

using namespace e2elu;

int main() {
  const index_t n = 8'000;
  const Csr g = gen_circuit(n, 6.0, /*num_hubs=*/4, /*hub_degree=*/32, 2024);

  Options options;
  options.device = gpusim::DeviceSpec::v100_with_memory(256u << 20);
  SparseLU lu(options);

  WallTimer factor_timer;
  const FactorResult f = lu.factorize(g);
  std::printf("conductance matrix: n=%d nnz=%lld fill=%lld (%.1fx), "
              "factorized in %.0f ms wall\n",
              n, static_cast<long long>(g.nnz()),
              static_cast<long long>(f.fill_nnz),
              static_cast<double>(f.fill_nnz) / g.nnz(),
              factor_timer.millis());

  // Worst residual across every sampled step, in every part; the example
  // exits nonzero if any solve drifts past the bound.
  double worst_residual = 0;

  // Transient loop: a 1 kHz source drives node 0; watch node n-1 settle.
  const int steps = 200;
  std::vector<value_t> b(static_cast<std::size_t>(n), 0);
  WallTimer solve_timer;
  double checksum = 0;
  for (int t = 0; t < steps; ++t) {
    b[0] = std::sin(2.0 * M_PI * t / 64.0);        // AC source
    b[n / 2] = 0.5;                                // DC bias
    const std::vector<value_t> v = SparseLU::solve(f, b);
    checksum += v[n - 1];
    if (t % 50 == 0) {
      const double residual = SparseLU::residual(g, v, b);
      worst_residual = std::max(worst_residual, residual);
      std::printf("  step %3d: v[0]=%+.4f  v[n/2]=%+.4f  v[n-1]=%+.6f "
                  "(residual %.2e)\n",
                  t, v[0], v[n / 2], v[n - 1], residual);
    }
  }
  std::printf("%d transient steps in %.0f ms (%.2f ms/step); checksum %.6f\n",
              steps, solve_timer.millis(), solve_timer.millis() / steps,
              checksum);

  // ---- Part 2: temperature-drifting conductances (value-varying,
  // pattern-fixed Newton loop through the refactorization engine).
  std::printf("\ntemperature-drifting Newton loop (pattern-reuse "
              "refactorization):\n");
  refactor::Refactorizer refac(g, options);
  const double full_sim_us = refac.factors().total_sim_us();

  gpusim::Device solver_device(options.device);
  solve::PipelineSolver solver(solver_device, refac.factors());

  const int newton_steps = 40;
  WallTimer newton_timer;
  double drift_checksum = 0;
  for (int t = 1; t <= newton_steps; ++t) {
    // Conductances drift with the simulated die temperature ramp; the
    // sparsity pattern (circuit connectivity) never changes.
    const double temperature_swing = 0.02 + 0.08 * t / newton_steps;
    const Csr g_t = gen_value_drift(g, temperature_swing,
                                    static_cast<std::uint64_t>(t));
    const refactor::RefactorReport rep = refac.refactorize(g_t);
    solver.rebind(refac.factors());

    b[0] = std::sin(2.0 * M_PI * t / 64.0);
    b[n / 2] = 0.5;
    const std::vector<value_t> v = solver.solve(b);
    drift_checksum += v[n - 1];
    if (t % 10 == 0 || t == 1) {
      const double residual = SparseLU::residual(g_t, v, b);
      worst_residual = std::max(worst_residual, residual);
      std::printf("  step %3d: %s sim %.0f us (full pipeline %.0f us, "
                  "%.1fx less), pivot growth %.2f, residual %.2e\n",
                  t, rep.reused ? "refactorize" : "fallback",
                  rep.total_sim_us(), full_sim_us,
                  full_sim_us / rep.total_sim_us(), rep.pivot_growth,
                  residual);
    }
  }
  const refactor::RefactorStats& rs = refac.stats();
  std::printf("%d Newton steps in %.0f ms: %llu refactorized, %llu stability "
              "fallbacks; reuse-path sim total %.0f us; checksum %.6f\n",
              newton_steps, newton_timer.millis(),
              static_cast<unsigned long long>(rs.reused),
              static_cast<unsigned long long>(rs.stability_fallbacks),
              rs.reused_sim_us, drift_checksum);

  // ---- Part 3: concurrent measurement clients through the SolverService,
  // with the Newton loop rebinding refactorized values under them.
  std::printf("\nconcurrent measurement clients (micro-batching "
              "SolverService):\n");
  gpusim::Device service_device(options.device);
  solve::SolverServiceOptions sopt;
  sopt.max_batch = 32;
  sopt.max_wait_us = 500;
  {
    solve::SolverService service(service_device, refac.factors(), sopt);
    constexpr int kClients = 4;
    constexpr int kSolvesPerClient = 40;
    WallTimer service_timer;
    std::vector<std::thread> clients;
    std::vector<double> client_sums(kClients, 0.0);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        // Each client sweeps its own source phase — distinct right-hand
        // sides arriving concurrently with the other clients'.
        std::vector<value_t> bc(static_cast<std::size_t>(n), 0);
        std::vector<std::future<std::vector<value_t>>> pending;
        for (int k = 0; k < kSolvesPerClient; ++k) {
          bc[0] = std::sin(2.0 * M_PI * (k + 0.25 * c) / 64.0);
          bc[n / 2] = 0.25 * (c + 1);
          pending.push_back(service.submit(bc));
        }
        for (auto& fut : pending) client_sums[c] += fut.get()[n - 1];
      });
    }
    // Meanwhile the operating point keeps moving: refactorize and rebind
    // mid-stream. In-flight batches finish on the factors they started
    // with; later batches see the update.
    for (int t = 1; t <= 4; ++t) {
      const Csr g_t = gen_value_drift(g, 0.02, 1000u + t);
      refac.refactorize(g_t);
      service.rebind(refac.factors());
    }
    for (auto& c : clients) c.join();
    double sum = 0;
    for (const double s : client_sums) sum += s;
    const solve::SolverServiceStats ss = service.stats();
    std::printf("%d clients x %d solves in %.0f ms: %llu requests in %llu "
                "micro-batches (mean %.1f rhs/batch), %llu kernel launches "
                "saved, %llu rebinds, peak queue %zu; checksum %.6f\n",
                kClients, kSolvesPerClient, service_timer.millis(),
                static_cast<unsigned long long>(ss.requests),
                static_cast<unsigned long long>(ss.batches), ss.mean_batch(),
                static_cast<unsigned long long>(ss.launches_saved),
                static_cast<unsigned long long>(ss.rebinds),
                ss.max_queue_depth, sum);
    if (!std::isfinite(sum)) {
      std::printf("FAIL: service checksum is not finite\n");
      return 1;
    }
  }
  if (!(worst_residual <= 1e-8) || !std::isfinite(checksum) ||
      !std::isfinite(drift_checksum)) {
    std::printf("FAIL: worst sampled residual %.3e exceeds 1e-8 or a "
                "checksum is not finite\n",
                worst_residual);
    return 1;
  }
  return 0;
}
