// Refactorization engine (refactor/refactor.hpp): pattern-reuse numeric
// re-factorization must produce the same factors as a fresh end-to-end
// run, reject pattern changes, fall back on stability violations, and
// keep bound solvers valid across calls.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/sparse_lu.hpp"
#include "matrix/generators.hpp"
#include "refactor/refactor.hpp"
#include "solve/pipeline_solver.hpp"
#include "support/rng.hpp"

namespace e2elu {
namespace {

std::vector<value_t> rhs(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = static_cast<value_t>(rng.next_double(-1.0, 1.0));
  return b;
}

Csr test_matrix() { return gen_circuit(600, 5.0, 3, 24, 0xbeef); }

// Pattern-only preprocessing so the cached permutations and a fresh
// factorization of a same-pattern matrix are identical — the setting in
// which factor values can be compared position by position.
Options pattern_only_options() {
  Options opt;
  opt.device = gpusim::DeviceSpec::v100_with_memory(64u << 20);
  opt.match_diagonal = false;
  return opt;
}

void expect_values_close(const std::vector<value_t>& a,
                         const std::vector<value_t>& b,
                         double rel_tol = 1e-9) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double scale = std::max({std::abs(a[k]), std::abs(b[k]), 1.0});
    ASSERT_NEAR(a[k], b[k], rel_tol * scale) << "position " << k;
  }
}

TEST(Refactorizer, MatchesFromScratchFactorization) {
  const Csr a = test_matrix();
  const Options opt = pattern_only_options();
  refactor::Refactorizer refac(a, opt);

  for (std::uint64_t step = 1; step <= 3; ++step) {
    const Csr a_t = gen_value_drift(a, 0.1, step);
    const refactor::RefactorReport rep = refac.refactorize(a_t);
    EXPECT_TRUE(rep.reused);
    EXPECT_FALSE(rep.fell_back);
    EXPECT_GT(rep.pivot_growth, 0.0);
    EXPECT_GT(rep.min_pivot, 0.0);

    const FactorResult fresh = SparseLU(opt).factorize(a_t);
    ASSERT_EQ(refac.factors().row_perm, fresh.row_perm);
    ASSERT_EQ(refac.factors().col_perm, fresh.col_perm);
    expect_values_close(refac.factors().l.values, fresh.l.values);
    expect_values_close(refac.factors().u.values, fresh.u.values);
  }
  EXPECT_EQ(refac.stats().calls, 3u);
  EXPECT_EQ(refac.stats().reused, 3u);
  EXPECT_EQ(refac.stats().stability_fallbacks, 0u);
}

TEST(Refactorizer, ReusePathIsCheaperThanFullPipeline) {
  const Csr a = test_matrix();
  refactor::Refactorizer refac(a, pattern_only_options());
  const double full_sim = refac.factors().total_sim_us();

  const refactor::RefactorReport rep =
      refac.refactorize(gen_value_drift(a, 0.05, 1));
  ASSERT_TRUE(rep.reused);
  // The reuse path skips preprocessing, symbolic, and levelization — it
  // must be well under the full pipeline even before the <50% bench bar.
  EXPECT_LT(rep.total_sim_us(), full_sim);
}

TEST(Refactorizer, SecondCallUploadsOnlyValues) {
  const Csr a = test_matrix();
  refactor::Refactorizer refac(a, pattern_only_options());
  const refactor::RefactorReport rep =
      refac.refactorize(gen_value_drift(a, 0.05, 1));
  ASSERT_TRUE(rep.reused);
  // Structure buffers are device-resident; a refactorize ships exactly the
  // CSC values array and nothing else.
  EXPECT_EQ(rep.device.h2d_bytes,
            refac.factors().l.values.size() * sizeof(value_t) +
                refac.factors().u.values.size() * sizeof(value_t) -
                static_cast<std::size_t>(a.n) * sizeof(value_t));
}

TEST(Refactorizer, RejectsPatternMismatchByDefault) {
  const Csr a = test_matrix();
  refactor::Refactorizer refac(a, pattern_only_options());

  // Same order, different connectivity.
  const Csr other = gen_circuit(600, 5.0, 3, 24, 0xfeed);
  ASSERT_FALSE(same_pattern(a, other));
  EXPECT_THROW(refac.refactorize(other), Error);
  // A wrong-order matrix is a mismatch too, not an out-of-bounds access.
  EXPECT_THROW(refac.refactorize(gen_circuit(500, 5.0, 3, 24, 0xbeef)),
               Error);
  // The cache survives a rejected call: a matching matrix still reuses.
  EXPECT_TRUE(refac.refactorize(gen_value_drift(a, 0.05, 1)).reused);
}

TEST(Refactorizer, StabilityMonitorTriggersFallback) {
  const Csr a = test_matrix();
  // A threshold no real elimination can satisfy: element growth is always
  // > 1e-30, so every reuse attempt trips the monitor deterministically.
  refactor::RefactorOptions ropt;
  ropt.max_pivot_growth = 1e-30;
  refactor::Refactorizer refac(a, pattern_only_options(), ropt);

  const Csr a_t = gen_value_drift(a, 0.1, 1);
  const refactor::RefactorReport rep = refac.refactorize(a_t);
  EXPECT_FALSE(rep.reused);
  EXPECT_TRUE(rep.fell_back);
  EXPECT_STREQ(rep.fallback_reason, "stability monitor");
  EXPECT_EQ(refac.stats().stability_fallbacks, 1u);

  // The fallback is a fresh end-to-end factorization of a_t: the factors
  // must be correct, not the abandoned reuse attempt.
  const std::vector<value_t> b = rhs(a.n, 11);
  EXPECT_LT(SparseLU::residual(a_t, SparseLU::solve(refac.factors(), b), b),
            1e-8);

  const FactorResult fresh = SparseLU(pattern_only_options()).factorize(a_t);
  expect_values_close(refac.factors().u.values, fresh.u.values);
}

TEST(Refactorizer, PipelineSolverRebindSolvesUpdatedSystem) {
  const Csr a = test_matrix();
  const Options opt = pattern_only_options();
  refactor::Refactorizer refac(a, opt);

  gpusim::Device solver_device(opt.device);
  solve::PipelineSolver solver(solver_device, refac.factors());
  const std::vector<value_t> b = rhs(a.n, 13);
  ASSERT_LT(SparseLU::residual(a, solver.solve(b), b), 1e-8);

  for (std::uint64_t step = 1; step <= 3; ++step) {
    const Csr a_t = gen_value_drift(a, 0.15, step);
    ASSERT_TRUE(refac.refactorize(a_t).reused);
    solver.rebind(refac.factors());
    const std::vector<value_t> x = solver.solve(b);
    const double res = SparseLU::residual(a_t, x, b);
    EXPECT_LT(res, 1e-8) << "step " << step;

    // Same accuracy class as solving against a from-scratch factorization.
    const FactorResult fresh = SparseLU(opt).factorize(a_t);
    const double res_fresh =
        SparseLU::residual(a_t, SparseLU::solve(fresh, b), b);
    EXPECT_LT(res, std::max(10.0 * res_fresh, 1e-12)) << "step " << step;
  }
}

TEST(Refactorizer, SparseFormatMatricesRefactorizeToo) {
  // Exercise the sparse-binary-search numeric path through the engine:
  // format decisions are cached, so a matrix the pipeline factorizes with
  // the sparse format must re-run with it as well.
  const Csr a = gen_blocked_planar(4000, 100, 3.2, 4, 31);
  Options opt;
  opt.ordering = Ordering::None;
  opt.match_diagonal = false;
  opt.device = gpusim::DeviceSpec::v100_with_memory(
      static_cast<std::size_t>(120) * 4000 * sizeof(value_t));
  refactor::Refactorizer refac(a, opt);
  ASSERT_TRUE(refac.factors().used_sparse_numeric);

  const Csr a_t = gen_value_drift(a, 0.1, 2);
  ASSERT_TRUE(refac.refactorize(a_t).reused);
  const FactorResult fresh = SparseLU(opt).factorize(a_t);
  expect_values_close(refac.factors().u.values, fresh.u.values);
}

}  // namespace
}  // namespace e2elu
