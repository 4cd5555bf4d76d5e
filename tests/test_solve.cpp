// Level-scheduled triangular solves and the pipeline solver.

#include <gtest/gtest.h>

#include <cmath>

#include "core/sparse_lu.hpp"
#include "matrix/convert.hpp"
#include "matrix/generators.hpp"
#include "solve/triangular.hpp"
#include "support/rng.hpp"

namespace e2elu::solve {
namespace {

struct Factored {
  Csr a;
  FactorResult f;
};

Factored factor(Csr a) {
  Options opt;
  // Identity ordering so L U x = b solves the original system directly.
  opt.ordering = Ordering::None;
  opt.match_diagonal = false;
  opt.device = gpusim::DeviceSpec::v100_with_memory(64u << 20);
  Factored out;
  out.a = std::move(a);
  out.f = SparseLU(opt).factorize(out.a);
  return out;
}

std::vector<value_t> rhs(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = static_cast<value_t>(rng.next_double(-1.0, 1.0));
  return b;
}

class SolverSweep : public ::testing::TestWithParam<int> {};

TEST_P(SolverSweep, GpuSolveMatchesSequentialSubstitution) {
  Csr a;
  switch (GetParam()) {
    case 0: a = gen_grid2d(15, 15); break;
    case 1: a = gen_banded(250, 8, 5.0, 41); break;
    case 2: a = gen_circuit(250, 4.0, 2, 16, 42); break;
    default: a = gen_blocked_planar(256, 32, 3.2, 4, 43); break;
  }
  Factored fx = factor(a);

  gpusim::Device dev(gpusim::DeviceSpec::v100_with_memory(64u << 20));
  const LuSolver solver(dev, fx.f.l, fx.f.u);
  const std::vector<value_t> b = rhs(a.n, 7);
  const std::vector<value_t> x_gpu = solver.solve(b);
  const std::vector<value_t> x_seq = SparseLU::solve(fx.f, b);
  ASSERT_EQ(x_gpu.size(), x_seq.size());
  for (std::size_t i = 0; i < x_gpu.size(); ++i) {
    EXPECT_NEAR(x_gpu[i], x_seq[i], 1e-10) << "i=" << i;
  }
  EXPECT_LT(SparseLU::residual(fx.a, x_gpu, b), 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Kinds, SolverSweep, ::testing::Values(0, 1, 2, 3));

TEST(TriangularSolver, LevelCountsBoundedByMatrixDepth) {
  // A blocked matrix: each block's chain caps the level depth; levels
  // must be far fewer than n.
  Csr a = gen_blocked_planar(512, 64, 3.2, 4, 9);
  Factored fx = factor(a);
  gpusim::Device dev(gpusim::DeviceSpec::v100_with_memory(64u << 20));
  const TriangularSolver lower(dev, fx.f.l, true);
  EXPECT_LE(lower.num_levels(), 64 + 1);
  EXPECT_GT(lower.num_levels(), 1);
}

TEST(TriangularSolver, SolvesRunLevelParallelKernels) {
  Csr a = gen_blocked_planar(512, 64, 3.2, 4, 9);
  Factored fx = factor(a);
  gpusim::Device dev(gpusim::DeviceSpec::v100_with_memory(64u << 20));
  const LuSolver solver(dev, fx.f.l, fx.f.u);
  const auto launches_before = dev.stats().host_launches;
  solver.solve(rhs(a.n, 3));
  const auto launches = dev.stats().host_launches - launches_before;
  // One launch per cluster per factor — far fewer than 2n row launches,
  // and fewer than one per level: the narrow levels fuse.
  EXPECT_EQ(launches,
            static_cast<std::uint64_t>(solver.lower().num_clusters() +
                                       solver.upper().num_clusters()));
  EXPECT_LT(solver.lower().num_clusters(), solver.lower().num_levels());
  EXPECT_LT(solver.upper().num_clusters(), solver.upper().num_levels());
}

TEST(TriangularSolver, RejectsMissingDiagonal) {
  Csr l(2);
  l.row_ptr = {0, 1, 2};
  l.col_idx = {0, 0};  // row 1 lacks (1,1)
  l.values = {1.0, 0.5};
  gpusim::Device dev(gpusim::DeviceSpec::v100_with_memory(1u << 20));
  EXPECT_THROW(TriangularSolver(dev, l, true), Error);
}

}  // namespace
}  // namespace e2elu::solve

#include "solve/pipeline_solver.hpp"

namespace e2elu::solve {
namespace {

TEST(PipelineSolver, HandlesPermutedFactorizations) {
  // Full pipeline with matching + ordering: the solver must undo both
  // permutations.
  Coo coo;
  coo.n = 120;
  Rng rng(21);
  for (index_t i = 0; i < coo.n; ++i) {
    coo.add(i, (i + 3) % coo.n, 5.0);  // strong shifted "diagonal"
    coo.add(i, (i * 7 + 1) % coo.n, 1.0);
    coo.add(i, (i * 13 + 5) % coo.n, 0.5);
  }
  const Csr a = coo_to_csr(coo);
  Options opt;
  opt.ordering = Ordering::MinDegree;
  opt.match_diagonal = true;
  opt.device = gpusim::DeviceSpec::v100_with_memory(64u << 20);
  const FactorResult f = SparseLU(opt).factorize(a);

  gpusim::Device dev(opt.device);
  const PipelineSolver solver(dev, f);
  const std::vector<value_t> b = rhs(a.n, 8);
  const std::vector<value_t> x = solver.solve(b);
  EXPECT_LT(SparseLU::residual(a, x, b), 1e-9);

  const std::vector<value_t> xr = solver.solve_refined(a, b);
  EXPECT_LE(SparseLU::residual(a, xr, b), 1e-11);
}

TEST(PipelineSolver, MatchesHostSolveExactly) {
  const Csr a = gen_circuit(300, 4.0, 2, 20, 33);
  Options opt;
  opt.device = gpusim::DeviceSpec::v100_with_memory(64u << 20);
  const FactorResult f = SparseLU(opt).factorize(a);
  gpusim::Device dev(opt.device);
  const PipelineSolver solver(dev, f);
  const std::vector<value_t> b = rhs(a.n, 9);
  const std::vector<value_t> x_dev = solver.solve(b);
  const std::vector<value_t> x_host = SparseLU::solve(f, b);
  for (std::size_t i = 0; i < x_dev.size(); ++i) {
    EXPECT_NEAR(x_dev[i], x_host[i], 1e-11);
  }
}

}  // namespace
}  // namespace e2elu::solve
