// Batched multi-RHS triangular solves (solve_many) and the
// micro-batching SolverService (solve/service.hpp): bit-exact equivalence
// with the sequential solve path, per-(row, rhs) ops accounting, launch
// amortization, producer/rebind concurrency, and the solve_refined
// early-exit regression.

#include <gtest/gtest.h>

#include <future>
#include <thread>
#include <vector>

#include "core/sparse_lu.hpp"
#include "matrix/generators.hpp"
#include "solve/pipeline_solver.hpp"
#include "solve/service.hpp"
#include "support/rng.hpp"

namespace e2elu::solve {
namespace {

Options pipeline_options() {
  Options opt;
  opt.device = gpusim::DeviceSpec::v100_with_memory(64u << 20);
  return opt;
}

std::vector<value_t> rhs(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = static_cast<value_t>(rng.next_double(-1.0, 1.0));
  return b;
}

/// Column-major n x num_rhs block of distinct right-hand sides.
std::vector<value_t> rhs_block(index_t n, index_t num_rhs,
                               std::uint64_t seed) {
  std::vector<value_t> block;
  block.reserve(static_cast<std::size_t>(n) * num_rhs);
  for (index_t r = 0; r < num_rhs; ++r) {
    const std::vector<value_t> b = rhs(n, seed + static_cast<std::uint64_t>(r));
    block.insert(block.end(), b.begin(), b.end());
  }
  return block;
}

std::vector<value_t> column(const std::vector<value_t>& block, index_t n,
                            index_t r) {
  const auto begin = block.begin() + static_cast<std::ptrdiff_t>(r) * n;
  return std::vector<value_t>(begin, begin + n);
}

class BatchedSweep : public ::testing::TestWithParam<int> {};

TEST_P(BatchedSweep, SolveManyIsBitIdenticalToLoopedSolve) {
  Csr a;
  switch (GetParam()) {
    case 0: a = gen_grid2d(15, 15); break;
    case 1: a = gen_banded(250, 8, 5.0, 41); break;
    case 2: a = gen_circuit(250, 4.0, 2, 16, 42); break;
    default: a = gen_blocked_planar(256, 32, 3.2, 4, 43); break;
  }
  const Options opt = pipeline_options();
  const FactorResult f = SparseLU(opt).factorize(a);
  gpusim::Device dev(opt.device);
  const PipelineSolver solver(dev, f);

  for (const index_t num_rhs : {1, 3, 8}) {
    const std::vector<value_t> block = rhs_block(a.n, num_rhs, 70);
    const std::vector<value_t> x = solver.solve_many(block, num_rhs);
    ASSERT_EQ(x.size(), block.size());
    for (index_t r = 0; r < num_rhs; ++r) {
      const std::vector<value_t> x_seq = solver.solve(column(block, a.n, r));
      for (index_t i = 0; i < a.n; ++i) {
        // Bit-exact: batching reorders launches, never arithmetic.
        ASSERT_EQ(x[static_cast<std::size_t>(r) * a.n + i], x_seq[i])
            << "B=" << num_rhs << " rhs=" << r << " i=" << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, BatchedSweep, ::testing::Values(0, 1, 2, 3));

TEST(BatchedPipelineSolver, BatchWiderThanMatrixOrder) {
  const Csr a = gen_banded(24, 3, 4.0, 17);
  const Options opt = pipeline_options();
  const FactorResult f = SparseLU(opt).factorize(a);
  gpusim::Device dev(opt.device);
  const PipelineSolver solver(dev, f);

  const index_t num_rhs = a.n + 5;  // B > n: more columns than rows
  const std::vector<value_t> block = rhs_block(a.n, num_rhs, 90);
  const std::vector<value_t> x = solver.solve_many(block, num_rhs);
  for (index_t r = 0; r < num_rhs; ++r) {
    const std::vector<value_t> x_seq = solver.solve(column(block, a.n, r));
    for (index_t i = 0; i < a.n; ++i) {
      ASSERT_EQ(x[static_cast<std::size_t>(r) * a.n + i], x_seq[i]);
    }
  }
}

TEST(BatchedPipelineSolver, EmptyBatchIsANoop) {
  const Csr a = gen_banded(30, 3, 4.0, 19);
  const Options opt = pipeline_options();
  const FactorResult f = SparseLU(opt).factorize(a);
  gpusim::Device dev(opt.device);
  const PipelineSolver solver(dev, f);
  const auto launches_before = dev.stats().host_launches;
  EXPECT_TRUE(solver.solve_many({}, 0).empty());
  EXPECT_EQ(dev.stats().host_launches, launches_before);
}

TEST(BatchedTriangularSolver, OpsCountOncePerRowAndRhs) {
  // The PR2 delta-tiling invariant extended to batching: a B-wide batch
  // must report exactly B times the work items of one solve(), i.e. one
  // item per (row element, rhs).
  const Csr a = gen_banded(200, 6, 5.0, 23);
  Options opt = pipeline_options();
  opt.ordering = Ordering::None;
  opt.match_diagonal = false;
  const FactorResult f = SparseLU(opt).factorize(a);
  gpusim::Device dev(opt.device);
  const TriangularSolver lower(dev, f.l, /*lower=*/true);
  ASSERT_LT(lower.num_clusters(), lower.num_levels());  // fused sweeps

  std::vector<value_t> x = rhs(a.n, 31);
  lower.solve(x);
  const std::uint64_t ops_one = lower.ops();
  ASSERT_GT(ops_one, 0u);

  const index_t num_rhs = 5;
  std::vector<value_t> block = rhs_block(a.n, num_rhs, 33);
  lower.solve_many(block, num_rhs);
  EXPECT_EQ(lower.ops() - ops_one,
            static_cast<std::uint64_t>(num_rhs) * ops_one);
}

TEST(BatchedPipelineSolver, OneLaunchPerClusterRegardlessOfBatchWidth) {
  const Csr a = gen_blocked_planar(256, 32, 3.2, 4, 47);
  const Options opt = pipeline_options();
  const FactorResult f = SparseLU(opt).factorize(a);
  gpusim::Device dev(opt.device);
  const PipelineSolver solver(dev, f);

  const index_t num_rhs = 16;
  const std::vector<value_t> block = rhs_block(a.n, num_rhs, 51);

  const auto before = dev.snapshot();
  (void)solver.solve_many(block, num_rhs);
  const auto batch_delta = dev.stats().since(before);
  EXPECT_EQ(batch_delta.host_launches, solver.launches_per_batch());
  EXPECT_EQ(solver.launches_per_batch(),
            static_cast<std::uint64_t>(solver.lu().lower().num_clusters() +
                                       solver.lu().upper().num_clusters()));
  EXPECT_LT(solver.launches_per_batch(),
            static_cast<std::uint64_t>(solver.lu().lower().num_levels() +
                                       solver.lu().upper().num_levels()));

  const auto before_seq = dev.snapshot();
  for (index_t r = 0; r < num_rhs; ++r) {
    (void)solver.solve(column(block, a.n, r));
  }
  const auto seq_delta = dev.stats().since(before_seq);
  EXPECT_EQ(seq_delta.host_launches,
            static_cast<std::uint64_t>(num_rhs) * solver.launches_per_batch());
  // Same per-(row,rhs) work, 1/num_rhs the launch overhead.
  EXPECT_EQ(batch_delta.kernel_ops, seq_delta.kernel_ops);
  EXPECT_LT(batch_delta.sim_launch_us, seq_delta.sim_launch_us / 8);
}

TEST(SolverService, ResultsBitIdenticalToSequentialSolve) {
  const Csr a = gen_circuit(200, 4.0, 2, 12, 61);
  const Options opt = pipeline_options();
  const FactorResult f = SparseLU(opt).factorize(a);

  gpusim::Device service_dev(opt.device);
  SolverServiceOptions sopt;
  sopt.max_batch = 8;
  sopt.max_wait_us = 100;
  SolverService service(service_dev, f, sopt);

  gpusim::Device ref_dev(opt.device);
  const PipelineSolver reference(ref_dev, f);

  std::vector<std::future<std::vector<value_t>>> futures;
  for (int k = 0; k < 20; ++k) {
    futures.push_back(service.submit(rhs(a.n, 100 + k)));
  }
  for (int k = 0; k < 20; ++k) {
    const std::vector<value_t> x = futures[static_cast<std::size_t>(k)].get();
    const std::vector<value_t> x_seq = reference.solve(rhs(a.n, 100 + k));
    ASSERT_EQ(x.size(), x_seq.size());
    for (index_t i = 0; i < a.n; ++i) ASSERT_EQ(x[i], x_seq[i]) << "k=" << k;
  }
  const SolverServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests, 20u);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_LE(stats.batches, 20u);
}

TEST(SolverService, ConcurrentProducersWithInterleavedRebind) {
  const Csr a = gen_circuit(150, 4.0, 2, 10, 71);
  const Options opt = pipeline_options();
  const FactorResult f = SparseLU(opt).factorize(a);
  const FactorResult f_alt = f;  // same values: rebind must not perturb

  gpusim::Device service_dev(opt.device);
  SolverServiceOptions sopt;
  sopt.max_batch = 4;
  sopt.max_wait_us = 50;
  sopt.max_queue = 8;  // small bound so producers hit backpressure
  SolverService service(service_dev, f, sopt);

  gpusim::Device ref_dev(opt.device);
  const PipelineSolver reference(ref_dev, f);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 25;
  std::vector<std::vector<std::future<std::vector<value_t>>>> futures(
      kThreads);
  std::vector<std::thread> producers;
  for (int t = 0; t < kThreads; ++t) {
    producers.emplace_back([&, t] {
      for (int k = 0; k < kPerThread; ++k) {
        futures[static_cast<std::size_t>(t)].push_back(
            service.submit(rhs(a.n, 1000u + 100u * t + k)));
      }
    });
  }
  // Rebind mid-flight, repeatedly, against in-flight batches. The factor
  // values are identical, so every result must still be bit-identical to
  // the sequential reference whatever the interleaving.
  for (int r = 0; r < 10; ++r) {
    service.rebind(r % 2 == 0 ? f_alt : f);
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  for (auto& p : producers) p.join();

  for (int t = 0; t < kThreads; ++t) {
    for (int k = 0; k < kPerThread; ++k) {
      const std::vector<value_t> x =
          futures[static_cast<std::size_t>(t)][static_cast<std::size_t>(k)]
              .get();
      const std::vector<value_t> expected =
          reference.solve(rhs(a.n, 1000u + 100u * t + k));
      for (index_t i = 0; i < a.n; ++i) {
        ASSERT_EQ(x[i], expected[i]) << "t=" << t << " k=" << k;
      }
    }
  }
  const SolverServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(stats.rebinds, 10u);
  EXPECT_LE(stats.max_queue_depth, sopt.max_queue);
}

TEST(SolverService, RebindSwitchesToNewFactorValues) {
  const Csr a = gen_banded(120, 5, 4.0, 81);
  const Options opt = pipeline_options();
  const FactorResult f = SparseLU(opt).factorize(a);
  FactorResult f2 = f;  // same pattern, different values
  for (auto& v : f2.u.values) v *= 2.0;

  gpusim::Device service_dev(opt.device);
  SolverService service(service_dev, f);
  const std::vector<value_t> b = rhs(a.n, 83);
  const std::vector<value_t> x1 = service.submit(b).get();

  service.drain();
  service.rebind(f2);
  const std::vector<value_t> x2 = service.submit(b).get();

  gpusim::Device ref_dev(opt.device);
  const PipelineSolver ref2(ref_dev, f2);
  const std::vector<value_t> expected = ref2.solve(b);
  for (index_t i = 0; i < a.n; ++i) {
    ASSERT_EQ(x2[i], expected[i]);
    ASSERT_NE(x1[i], x2[i]);  // the rebind visibly changed the answer
  }
}

TEST(SolverService, BoundedQueueDrainsEverythingUnderPressure) {
  const Csr a = gen_banded(80, 4, 4.0, 91);
  const Options opt = pipeline_options();
  const FactorResult f = SparseLU(opt).factorize(a);

  gpusim::Device service_dev(opt.device);
  SolverServiceOptions sopt;
  sopt.max_batch = 2;
  sopt.max_wait_us = 0;  // drain immediately, maximizing queue churn
  sopt.max_queue = 2;
  SolverService service(service_dev, f, sopt);

  gpusim::Device ref_dev(opt.device);
  const PipelineSolver reference(ref_dev, f);

  std::vector<std::future<std::vector<value_t>>> futures;
  for (int k = 0; k < 30; ++k) {
    futures.push_back(service.submit(rhs(a.n, 500 + k)));
  }
  for (int k = 0; k < 30; ++k) {
    const std::vector<value_t> x = futures[static_cast<std::size_t>(k)].get();
    const std::vector<value_t> expected = reference.solve(rhs(a.n, 500 + k));
    for (index_t i = 0; i < a.n; ++i) ASSERT_EQ(x[i], expected[i]);
  }
  EXPECT_LE(service.stats().max_queue_depth, 2u);
}

TEST(SolverService, StatsCountEveryBatchBeforeItsFuturesResolve) {
  // A client whose future has resolved must read stats() that include its
  // batch: the service counts a batch before resolving any of its futures.
  // A fresh service per round puts each batch on a new drainer thread,
  // whose first metric records are its slowest.
  const Csr a = gen_banded(40, 3, 4.0, 93);
  const Options opt = pipeline_options();
  const FactorResult f = SparseLU(opt).factorize(a);
  gpusim::Device dev(opt.device);
  SolverServiceOptions sopt;
  sopt.max_batch = 4;
  sopt.max_wait_us = 0;
  const std::vector<value_t> b = rhs(a.n, 97);
  for (int round = 0; round < 300; ++round) {
    SolverService service(dev, f, sopt);
    (void)service.submit(b).get();
    const SolverServiceStats s = service.stats();
    ASSERT_EQ(s.requests, 1u) << "round " << round;
    ASSERT_EQ(s.batches, 1u) << "round " << round;
    ASSERT_LE(s.mean_batch(), static_cast<double>(sopt.max_batch))
        << "round " << round;
  }
}

TEST(SolverService, RejectsWrongSizeRhs) {
  const Csr a = gen_banded(50, 4, 4.0, 95);
  const Options opt = pipeline_options();
  const FactorResult f = SparseLU(opt).factorize(a);
  gpusim::Device dev(opt.device);
  SolverService service(dev, f);
  EXPECT_THROW(service.submit(std::vector<value_t>(10)), Error);
}

TEST(SolveRefined, ConvergedSystemExitsAfterOneSweepPair) {
  // Regression for the unconditional max_iters loop: with exact factors
  // the initial solve already meets tol, so no correction solves (and no
  // extra triangular sweeps) may run.
  const Csr a = gen_circuit(200, 4.0, 2, 12, 99);
  const Options opt = pipeline_options();
  const FactorResult f = SparseLU(opt).factorize(a);
  gpusim::Device dev(opt.device);
  const PipelineSolver solver(dev, f);
  const std::vector<value_t> b = rhs(a.n, 7);

  const auto launches_before = dev.stats().host_launches;
  RefineReport rep;
  const std::vector<value_t> x =
      solver.solve_refined(a, b, /*max_iters=*/10, /*tol=*/1e-12, &rep);
  const auto launches = dev.stats().host_launches - launches_before;

  EXPECT_TRUE(rep.converged);
  EXPECT_EQ(rep.iterations, 0);
  EXPECT_LT(rep.residual_inf, 1e-12);
  // Exactly one lower+upper sweep pair: the early exit skipped all ten
  // correction iterations (each of which would add another pair).
  EXPECT_EQ(launches,
            static_cast<std::uint64_t>(solver.lu().lower().num_clusters() +
                                       solver.lu().upper().num_clusters()));
  EXPECT_LT(SparseLU::residual(a, x, b), 1e-10);
}

TEST(SolveRefined, PerturbedFactorsConvergeAndReportIterations) {
  const Csr a = gen_banded(200, 7, 5.0, 103);
  Options opt = pipeline_options();
  opt.ordering = Ordering::None;
  opt.match_diagonal = false;
  const FactorResult f = SparseLU(opt).factorize(a);
  FactorResult f_bad = f;
  for (auto& v : f_bad.u.values) v *= (1.0 + 1e-5);

  gpusim::Device dev(opt.device);
  const PipelineSolver solver(dev, f_bad);
  const std::vector<value_t> b = rhs(a.n, 11);

  const auto launches_before = dev.stats().host_launches;
  RefineReport rep;
  const std::vector<value_t> x =
      solver.solve_refined(a, b, /*max_iters=*/10, /*tol=*/1e-13, &rep);
  const auto launches = dev.stats().host_launches - launches_before;

  EXPECT_TRUE(rep.converged);
  EXPECT_GE(rep.iterations, 1);
  EXPECT_LT(rep.iterations, 10);  // early exit, not the full budget
  EXPECT_LT(rep.residual_inf, 1e-13);
  const std::uint64_t sweep_pair =
      static_cast<std::uint64_t>(solver.lu().lower().num_clusters() +
                                 solver.lu().upper().num_clusters());
  EXPECT_EQ(launches,
            (1 + static_cast<std::uint64_t>(rep.iterations)) * sweep_pair);
  EXPECT_LT(SparseLU::residual(a, x, b), 1e-11);
}

}  // namespace
}  // namespace e2elu::solve
