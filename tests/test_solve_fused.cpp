// Fused (sync-free) triangular solves: every device solve clusters its
// narrow levels into ready-flag launches. Bit-identity with the host
// solve on all Table 2 stand-ins (1- and 4-thread pools, with and without
// equilibration), batch and ops accounting, streaming on cluster
// boundaries under a budget, the abort protocol, and the chain-vs-charged
// cost pair every fused launch records.

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "core/sparse_lu.hpp"
#include "matrix/convert.hpp"
#include "matrix/suite.hpp"
#include "solve/pipeline_solver.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu::solve {
namespace {

std::vector<value_t> rhs(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = static_cast<value_t>(rng.next_double(-1.0, 1.0));
  return b;
}

bool same_bits(const std::vector<value_t>& a, const std::vector<value_t>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)) == 0;
}

Options device_options() {
  Options opt;
  opt.device = gpusim::DeviceSpec::v100_with_memory(64u << 20);
  return opt;
}

const std::vector<SuiteEntry>& small_suite() {
  static const std::vector<SuiteEntry> suite = table2_suite(512);
  return suite;
}

/// A tridiagonal matrix in natural order: every L and U row depends on
/// its neighbour, so each factor levelizes into n width-1 levels and
/// clusters into ceil(n / max_cluster_columns) fused launches, each one
/// long dependency chain.
FactorResult chain_factors(index_t n) {
  Coo coo;
  coo.n = n;
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 4.0 + 0.001 * (i % 7));
    if (i > 0) coo.add(i, i - 1, -1.0);
    if (i + 1 < n) coo.add(i, i + 1, -0.5);
  }
  Options opt = device_options();
  opt.ordering = Ordering::None;
  opt.match_diagonal = false;
  return SparseLU(opt).factorize(coo_to_csr(coo));
}

class FusedSuite : public ::testing::TestWithParam<int> {};

TEST_P(FusedSuite, BitIdenticalToHostSolveOnOneAndFourThreads) {
  const SuiteEntry& e = small_suite()[static_cast<std::size_t>(GetParam())];
  const Options opt = device_options();
  const FactorResult f = SparseLU(opt).factorize(e.matrix);
  const std::vector<value_t> b = rhs(e.matrix.n, 5);
  const std::vector<value_t> host = SparseLU::solve(f, b);
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    gpusim::Device dev(opt.device);
    dev.use_pool(pool);
    const PipelineSolver solver(dev, f);
    EXPECT_TRUE(same_bits(solver.solve(b), host))
        << e.abbr << " on " << threads << " threads";
    // Not vacuous: narrow levels dominate these factors, so they fuse.
    EXPECT_GT(dev.stats().fused_launches, 0u) << e.abbr;
  }
}

INSTANTIATE_TEST_SUITE_P(Table2, FusedSuite, ::testing::Range(0, 18),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return small_suite()[static_cast<std::size_t>(
                                                    info.param)]
                               .abbr;
                         });

TEST(FusedSolve, EquilibratedFactorsSolveExactlyLikeTheHost) {
  // Both device front-ends undo the equilibration scales exactly as
  // SparseLU::solve does: row scale before L, column scale after U.
  for (const SuiteEntry& e : table2_suite(64)) {
    if (e.abbr != "OT2" && e.abbr != "R15") continue;
    Options opt = device_options();
    opt.preprocess.equilibrate = true;
    const FactorResult f = SparseLU(opt).factorize(e.matrix);
    ASSERT_TRUE(f.scaling.enabled()) << e.abbr;

    constexpr index_t kRhs = 3;
    std::vector<value_t> block;
    std::vector<std::vector<value_t>> host;
    for (index_t r = 0; r < kRhs; ++r) {
      const std::vector<value_t> b = rhs(e.matrix.n, 40 + r);
      block.insert(block.end(), b.begin(), b.end());
      host.push_back(SparseLU::solve(f, b));
      EXPECT_LT(SparseLU::residual(e.matrix, host.back(), b), 1e-10);
    }
    for (const std::size_t threads : {1u, 4u}) {
      ThreadPool pool(threads);
      gpusim::Device dev(opt.device);
      dev.use_pool(pool);
      const PipelineSolver solver(dev, f);
      const std::vector<value_t> x = solver.solve_many(block, kRhs);
      for (index_t r = 0; r < kRhs; ++r) {
        const std::vector<value_t> b(
            block.begin() + static_cast<std::ptrdiff_t>(r) * e.matrix.n,
            block.begin() + static_cast<std::ptrdiff_t>(r + 1) * e.matrix.n);
        const std::vector<value_t> xr(
            x.begin() + static_cast<std::ptrdiff_t>(r) * e.matrix.n,
            x.begin() + static_cast<std::ptrdiff_t>(r + 1) * e.matrix.n);
        EXPECT_TRUE(same_bits(solver.solve(b), host[r]))
            << e.abbr << " single, rhs " << r << ", " << threads << " threads";
        EXPECT_TRUE(same_bits(xr, host[r]))
            << e.abbr << " batched, rhs " << r << ", " << threads
            << " threads";
      }
    }
  }
}

TEST(FusedSolve, BatchEqualsSingleSolvesAndCountsOpsPerRhs) {
  const SuiteEntry& ot2 = small_suite()[11];
  ASSERT_EQ(ot2.abbr, "OT2");
  const Options opt = device_options();
  const FactorResult f = SparseLU(opt).factorize(ot2.matrix);
  const index_t n = f.n;
  ThreadPool pool(4);
  gpusim::Device dev(opt.device);
  dev.use_pool(pool);
  const PipelineSolver solver(dev, f);
  const TriangularSolver& lower = solver.lu().lower();
  const TriangularSolver& upper = solver.lu().upper();
  ASSERT_LT(lower.num_clusters(), lower.num_levels());

  constexpr index_t kRhs = 6;
  std::vector<value_t> block;
  for (index_t r = 0; r < kRhs; ++r) {
    const std::vector<value_t> b = rhs(n, 60 + r);
    block.insert(block.end(), b.begin(), b.end());
  }
  const std::uint64_t lo0 = lower.ops(), up0 = upper.ops();
  (void)solver.solve(std::vector<value_t>(block.begin(), block.begin() + n));
  const std::uint64_t lower_one = lower.ops() - lo0;
  const std::uint64_t upper_one = upper.ops() - up0;

  const std::uint64_t lo1 = lower.ops(), up1 = upper.ops();
  const gpusim::DeviceStats before = dev.snapshot();
  const std::vector<value_t> x = solver.solve_many(block, kRhs);
  const gpusim::DeviceStats delta = dev.stats().since(before);
  EXPECT_EQ(lower.ops() - lo1, kRhs * lower_one);
  EXPECT_EQ(upper.ops() - up1, kRhs * upper_one);
  EXPECT_EQ(delta.host_launches, solver.launches_per_batch());
  EXPECT_EQ(solver.launches_per_batch(),
            static_cast<std::uint64_t>(lower.num_clusters() +
                                       upper.num_clusters()));
  EXPECT_GT(delta.fused_launches, 0u);

  for (index_t r = 0; r < kRhs; ++r) {
    const auto col = block.begin() + static_cast<std::ptrdiff_t>(r) * n;
    const std::vector<value_t> xr(
        x.begin() + static_cast<std::ptrdiff_t>(r) * n,
        x.begin() + static_cast<std::ptrdiff_t>(r + 1) * n);
    EXPECT_TRUE(same_bits(xr, solver.solve(std::vector<value_t>(col, col + n))))
        << "rhs " << r;
  }
}

TEST(FusedSolve, StreamedSolveChunksOnClusterBoundariesWithinBudget) {
  const FactorResult f = chain_factors(9000);
  const std::size_t l_bytes =
      static_cast<std::size_t>(f.l.nnz()) * (sizeof(value_t) + sizeof(index_t));
  ThreadPool pool(4);
  gpusim::Device dev(device_options().device);
  dev.use_pool(pool);
  const LuSolver resident(dev, f.l, f.u);
  ASSERT_EQ(resident.lower().num_clusters(), 3);  // 4096 + 4096 + 808 rows
  ASSERT_EQ(resident.upper().num_clusters(), 3);
  const std::vector<value_t> b = rhs(f.n, 3);
  const std::vector<value_t> x0 = resident.solve(b);

  // budget / 2 per chunk holds one cluster but not two: every cluster
  // ships as its own chunk and runs as its own fused launch.
  // budget / 8 per chunk holds none: clusters split at level boundaries
  // so that no chunk outgrows its share of the budget.
  for (const std::size_t budget : {l_bytes, l_bytes / 4}) {
    LuSolver streamed(dev, f.l, f.u);
    streamed.set_stream_options(
        {.enabled = true, .budget_bytes = budget, .prefetch_ahead = 1});
    const gpusim::DeviceStats before = dev.snapshot();
    EXPECT_TRUE(same_bits(streamed.solve(b), x0)) << "budget " << budget;
    const gpusim::DeviceStats delta = dev.stats().since(before);
    for (const TriangularSolver* s : {&streamed.lower(), &streamed.upper()}) {
      const SolveStreamStats& st = s->stream_stats();
      EXPECT_GE(st.chunks, 3u) << "budget " << budget;
      EXPECT_GT(st.prefetches, 0u);
      EXPECT_LE(st.max_chunk_bytes * 2, budget) << "budget " << budget;
    }
    if (budget == l_bytes) {
      EXPECT_EQ(delta.host_launches, 6u);
      EXPECT_EQ(delta.fused_launches, 6u);
    } else {
      EXPECT_GT(delta.host_launches, 6u);
    }
  }
}

TEST(FusedSolve, ZeroDiagonalInsideFusedClusterThrowsWithoutHanging) {
  const FactorResult f = chain_factors(3000);
  Csr u = f.u;
  // Row 1500's pivot sits mid-chain: rows below it finished, rows above it
  // spin on its flag when it throws.
  for (offset_t k = u.row_ptr[1500]; k < u.row_ptr[1501]; ++k) {
    if (u.col_idx[k] == 1500) u.values[k] = 0;
  }
  ThreadPool pool(4);
  gpusim::Device dev(device_options().device);
  dev.use_pool(pool);
  const TriangularSolver upper(dev, u, /*lower=*/false);
  ASSERT_EQ(upper.num_clusters(), 1);
  std::vector<value_t> x = rhs(f.n, 9);
  EXPECT_THROW(upper.solve(x), Error);
  std::vector<value_t> block = rhs(f.n * 4, 10);
  EXPECT_THROW(upper.solve_many(block, 4), Error);
}

TEST(FusedSolve, RecordsChainNextToChargedTimeOnEveryFusedLaunch) {
  // One dependency chain per cluster: the longest chain is all of the
  // launch's ops, run at one block's rate, while the charge spreads the
  // same ops over a full device (each cluster has >= 160 blocks) — the
  // ratio is exactly max_concurrent_blocks. That is the fused rule's
  // optimism, made visible.
  const FactorResult f = chain_factors(9000);
  auto& registry = trace::MetricsRegistry::global();
  std::vector<trace::HistogramSnapshot> chains;
  for (const std::size_t threads : {1u, 4u}) {
    ThreadPool pool(threads);
    gpusim::Device dev(device_options().device);
    dev.use_pool(pool);
    const TriangularSolver lower(dev, f.l, /*lower=*/true);
    registry.clear();
    std::vector<value_t> x = rhs(f.n, 4);
    lower.solve(x);
    const trace::HistogramSnapshot chain =
        registry.histogram("model.fusion.chain_us").snapshot();
    const trace::HistogramSnapshot charged =
        registry.histogram("model.fusion.charged_us").snapshot();
    EXPECT_EQ(chain.count, 3u);
    EXPECT_EQ(charged.count, 3u);
    ASSERT_GT(charged.sum, 0);
    EXPECT_NEAR(chain.sum / charged.sum,
                device_options().device.max_concurrent_blocks, 1e-9 * 160);
    chains.push_back(chain);
  }
  // Exact and scheduling-independent: predecessors retire before a block
  // reads their chain.
  EXPECT_EQ(chains[0].sum, chains[1].sum);
  EXPECT_EQ(chains[0].max, chains[1].max);
}

TEST(FusedSolve, ClusterSpansCarryTheCostPair) {
  const FactorResult f = chain_factors(3000);
  gpusim::Device dev(device_options().device);
  const TriangularSolver lower(dev, f.l, /*lower=*/true);
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.enable();
  tracer.clear();
  std::vector<value_t> x = rhs(f.n, 4);
  lower.solve(x);
  tracer.disable();
  const std::vector<trace::SpanRecord> spans = tracer.collect();
  tracer.clear();
  int clusters = 0;
  for (const trace::SpanRecord& s : spans) {
    if (std::string(s.name) != "solve.cluster") continue;
    ++clusters;
    double chain = -1, charged = -1;
    for (std::uint32_t a = 0; a < s.num_attrs; ++a) {
      const std::string key = s.attrs[a].key;
      if (key == "chain_us") chain = s.attrs[a].value.f;
      if (key == "charged_us") charged = s.attrs[a].value.f;
    }
    EXPECT_GT(chain, 0);
    EXPECT_GT(charged, 0);
    EXPECT_NEAR(charged, s.delta.sim_kernel_us, 1e-9 * charged);
  }
  EXPECT_EQ(clusters, 1);
}

}  // namespace
}  // namespace e2elu::solve
