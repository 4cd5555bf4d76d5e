// ext_solve_throughput: batched multi-RHS triangular solves vs. the
// one-RHS-at-a-time path — the launch-amortization case for the
// SolverService (solve/pipeline_solver.hpp, solve/service.hpp).
//
//   ./build/bench/ext_solve_throughput [n]
//
// A circuit-class matrix is factorized once; a fixed population of
// right-hand sides is then solved at batch sizes B in {1, 4, 16, 64, 256}.
// Each cluster of a sweep (a fused run of narrow levels, or one wide
// level) costs one kernel launch regardless of how many right-hand sides
// ride it, so simulated launch time per RHS should
// collapse ~1/B while per-(row, rhs) kernel work stays constant — and
// every batched result must be bit-identical to the sequential
// PipelineSolver::solve of the same vector.
//
// Acceptance (exit code): sim_launch_us per RHS at B=64 is < 10% of B=1,
// with all sweeps bit-identical. Part 2 drives the same population
// through the SolverService from concurrent producer threads and reports
// its micro-batching counters.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "matrix/generators.hpp"
#include "solve/pipeline_solver.hpp"
#include "solve/service.hpp"
#include "support/rng.hpp"
#include "trace/metrics.hpp"

using namespace e2elu;

namespace {

std::vector<value_t> rhs_block(index_t n, index_t num_rhs,
                               std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> block(static_cast<std::size_t>(n) * num_rhs);
  for (auto& v : block) v = static_cast<value_t>(rng.next_double(-1.0, 1.0));
  return block;
}

}  // namespace

int main(int argc, char** argv) {
  bench::TraceSession trace_session;
  const index_t n = argc >= 2 ? static_cast<index_t>(std::atol(argv[1])) : 3000;
  constexpr index_t kTotalRhs = 256;
  const std::vector<index_t> batch_sizes = {1, 4, 16, 64, 256};

  const Csr a = gen_circuit(n, 4.0, /*num_hubs=*/2, /*hub_degree=*/16, 2025);
  Options opt;
  opt.device = gpusim::DeviceSpec::v100_with_memory(256u << 20);
  const FactorResult f = SparseLU(opt).factorize(a);

  gpusim::Device dev(opt.device);
  const solve::PipelineSolver solver(dev, f);
  const index_t launches = static_cast<index_t>(solver.launches_per_batch());

  std::printf("=== ext_solve_throughput: batched cluster sweeps, n=%d "
              "nnz=%lld, %d launches per solve, %d right-hand sides ===\n",
              a.n, static_cast<long long>(a.nnz()), launches, kTotalRhs);

  const std::vector<value_t> population = rhs_block(a.n, kTotalRhs, 404);

  // Sequential ground truth (and its launch bill), one solve per RHS.
  std::vector<value_t> x_seq(population.size());
  const auto seq_before = dev.snapshot();
  for (index_t r = 0; r < kTotalRhs; ++r) {
    const std::vector<value_t> b(
        population.begin() + static_cast<std::ptrdiff_t>(r) * a.n,
        population.begin() + static_cast<std::ptrdiff_t>(r + 1) * a.n);
    const std::vector<value_t> x = solver.solve(b);
    std::copy(x.begin(), x.end(),
              x_seq.begin() + static_cast<std::ptrdiff_t>(r) * a.n);
  }
  const gpusim::DeviceStats seq_delta = dev.stats().since(seq_before);

  std::printf("%8s %10s %14s %16s %10s %10s\n", "B", "launches",
              "sim_launch_us", "launch_us/rhs", "vs B=1", "bitexact");
  bench::print_rule(74);

  auto& registry = trace::MetricsRegistry::global();
  double per_rhs_b1 = 0, per_rhs_b64 = 0;
  bool all_identical = true;
  for (const index_t batch : batch_sizes) {
    const auto before = dev.snapshot();
    std::vector<value_t> x_batched(population.size());
    for (index_t r0 = 0; r0 < kTotalRhs; r0 += batch) {
      const index_t width = std::min(batch, kTotalRhs - r0);
      const std::span<const value_t> chunk(
          population.data() + static_cast<std::size_t>(r0) * a.n,
          static_cast<std::size_t>(width) * a.n);
      const std::vector<value_t> x = solver.solve_many(chunk, width);
      std::copy(x.begin(), x.end(),
                x_batched.begin() + static_cast<std::ptrdiff_t>(r0) * a.n);
    }
    const gpusim::DeviceStats delta = dev.stats().since(before);
    const bool identical =
        std::memcmp(x_batched.data(), x_seq.data(),
                    x_seq.size() * sizeof(value_t)) == 0;
    all_identical = all_identical && identical;

    const double per_rhs = delta.sim_launch_us / kTotalRhs;
    if (batch == 1) per_rhs_b1 = per_rhs;
    if (batch == 64) per_rhs_b64 = per_rhs;
    char gauge_name[64];
    std::snprintf(gauge_name, sizeof(gauge_name),
                  "solve_throughput.launch_us_per_rhs.b%d", batch);
    registry.gauge(gauge_name).set(per_rhs);

    std::printf("%8d %10llu %14.1f %16.4f %9.1fx %10s\n", batch,
                static_cast<unsigned long long>(delta.host_launches),
                delta.sim_launch_us, per_rhs,
                per_rhs_b1 == 0 ? 0.0 : per_rhs_b1 / per_rhs,
                identical ? "yes" : "NO");
  }
  bench::print_rule(74);
  std::printf("sequential baseline: %llu launches, %.1f sim_launch_us "
              "(%.4f us/rhs), kernel %.1f us\n",
              static_cast<unsigned long long>(seq_delta.host_launches),
              seq_delta.sim_launch_us, seq_delta.sim_launch_us / kTotalRhs,
              seq_delta.sim_kernel_us);

  // ---- Part 2: the same population through the SolverService, submitted
  // from concurrent producers and coalesced into micro-batches.
  gpusim::Device service_dev(opt.device);
  solve::SolverServiceOptions sopt;
  sopt.max_batch = 64;
  sopt.max_wait_us = 500;
  {
    solve::SolverService service(service_dev, f, sopt);
    constexpr int kProducers = 8;
    std::vector<std::thread> producers;
    std::vector<std::vector<std::future<std::vector<value_t>>>> futures(
        kProducers);
    for (int t = 0; t < kProducers; ++t) {
      producers.emplace_back([&, t] {
        for (index_t r = t; r < kTotalRhs; r += kProducers) {
          futures[static_cast<std::size_t>(t)].push_back(
              service.submit(std::vector<value_t>(
                  population.begin() + static_cast<std::ptrdiff_t>(r) * a.n,
                  population.begin() +
                      static_cast<std::ptrdiff_t>(r + 1) * a.n)));
        }
      });
    }
    for (auto& p : producers) p.join();
    bool service_identical = true;
    for (int t = 0; t < kProducers; ++t) {
      std::size_t k = 0;
      for (index_t r = t; r < kTotalRhs; r += kProducers, ++k) {
        const std::vector<value_t> x =
            futures[static_cast<std::size_t>(t)][k].get();
        service_identical =
            service_identical &&
            std::memcmp(x.data(),
                        x_seq.data() + static_cast<std::size_t>(r) * a.n,
                        x.size() * sizeof(value_t)) == 0;
      }
    }
    const solve::SolverServiceStats stats = service.stats();
    std::printf("\nSolverService (%d producers, max_batch=%d, "
                "max_wait=%uus): %llu requests in %llu batches "
                "(mean %.1f), %llu launches saved, peak queue %zu, "
                "bit-identical: %s\n",
                kProducers, sopt.max_batch, sopt.max_wait_us,
                static_cast<unsigned long long>(stats.requests),
                static_cast<unsigned long long>(stats.batches),
                stats.mean_batch(),
                static_cast<unsigned long long>(stats.launches_saved),
                stats.max_queue_depth, service_identical ? "yes" : "NO");
    all_identical = all_identical && service_identical;
    bench::print_device_stats("  service", service_dev.stats());
  }

  const double ratio = per_rhs_b1 == 0 ? 1.0 : per_rhs_b64 / per_rhs_b1;
  std::printf("\nlaunch time per RHS at B=64: %.1f%% of B=1 (target < 10%%) "
              "— %s\n", 100.0 * ratio, ratio < 0.10 ? "PASS" : "FAIL");
  std::printf("all batched results bit-identical to sequential: %s\n",
              all_identical ? "PASS" : "FAIL");
  return ratio < 0.10 && all_identical ? 0 : 1;
}
