// The sync-free levelization (scheduling::levelize_sync_free): one launch,
// one block per vertex, the same LevelSchedule as sequential Kahn — on the
// column DAG under both dependency rules, on both triangular-solve
// orientations, on pure chains and n = 1, on 1- and 4-worker pools — plus
// its launch budget, its chain-vs-charge record, and the levelize phase's
// ops accounting inside SparseLU.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/sparse_lu.hpp"
#include "gpusim/device.hpp"
#include "matrix/convert.hpp"
#include "matrix/generators.hpp"
#include "scheduling/levelize.hpp"
#include "scheduling/ready_flags.hpp"
#include "solve/triangular.hpp"
#include "support/thread_pool.hpp"
#include "symbolic/symbolic.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu::scheduling {
namespace {

const gpusim::DeviceSpec kSpec =
    gpusim::DeviceSpec::v100_with_memory(64u << 20);

Csr fixture(int kind) {
  switch (kind) {
    case 0: return gen_grid2d(18, 18);
    case 1: return gen_banded(400, 9, 5.0, 21);
    case 2: return gen_circuit(400, 4.0, 3, 25, 22);
    default: return gen_near_planar(400, 3.5, 5, 23);
  }
}

const char* fixture_name(int kind) {
  static const char* const names[] = {"grid", "banded", "circuit",
                                      "near_planar"};
  return names[kind];
}

/// A tridiagonal matrix in natural order: every column (and every L and U
/// row) depends on its neighbour, so each DAG is one chain of n levels.
Csr chain_matrix(index_t n) {
  Coo coo;
  coo.n = n;
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 4.0);
    if (i > 0) coo.add(i, i - 1, -1.0);
    if (i + 1 < n) coo.add(i, i + 1, -0.5);
  }
  return coo_to_csr(coo);
}

DependencyGraph column_dag(const Csr& a,
                           DependencyRule rule = DependencyRule::Symmetrized) {
  return build_dependency_graph(symbolic::symbolic_reference(a).filled, rule);
}

void expect_same_schedule(const LevelSchedule& got,
                          const LevelSchedule& want) {
  EXPECT_EQ(got.level, want.level);
  EXPECT_EQ(got.level_ptr, want.level_ptr);
  EXPECT_EQ(got.level_cols, want.level_cols);
}

/// Runs `levelize(dev)` on a fresh device over a pool of `threads` workers
/// and checks the budget: exactly one host launch, no child launches.
template <class Levelize>
LevelSchedule one_launch(std::size_t threads, Levelize&& levelize) {
  ThreadPool pool(threads);
  gpusim::Device dev(kSpec);
  dev.use_pool(pool);
  LevelSchedule s = levelize(dev);
  EXPECT_EQ(dev.stats().host_launches, 1u);
  EXPECT_EQ(dev.stats().device_launches, 0u);
  return s;
}

/// The column DAG's levelization, through one_launch.
LevelSchedule column_levels(std::size_t threads, const DependencyGraph& g) {
  return one_launch(
      threads, [&](gpusim::Device& dev) { return levelize_sync_free(dev, g); });
}

/// Kahn's reference for a triangular solve: edge j -> i for every strict
/// entry (i, j) of the factor's triangle.
DependencyGraph solve_graph(const Csr& factor, bool lower) {
  Csr strict(factor.n);
  for (index_t i = 0; i < factor.n; ++i) {
    for (index_t j : factor.row_cols(i)) {
      if (lower ? j < i : j > i) strict.col_idx.push_back(j);
    }
    strict.row_ptr[i + 1] = static_cast<offset_t>(strict.col_idx.size());
  }
  const Csr t = transpose(strict);
  DependencyGraph g;
  g.n = factor.n;
  g.adj_ptr = t.row_ptr;
  g.adj = t.col_idx;
  return g;
}

/// Both solve orientations of `f` against Kahn, on 1 and 4 workers: the
/// upper solve claims rows in descending order (ascending would leave a
/// one-worker pool spinning on row 0 forever).
void expect_solve_orientations_match_kahn(const FactorResult& f) {
  for (const bool lower : {true, false}) {
    const Csr& factor = lower ? f.l : f.u;
    const DependencyGraph g = solve_graph(factor, lower);
    const LevelSchedule kahn = levelize_sequential(g);
    validate_schedule(g, kahn);
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(lower ? "lower" : "upper") + " solve, " +
                   std::to_string(threads) + " workers");
      const LevelSchedule s = one_launch(threads, [&](gpusim::Device& dev) {
        return levelize_sync_free(
            dev, factor.row_ptr, factor.col_idx,
            lower ? ClaimOrder::Ascending : ClaimOrder::Descending);
      });
      validate_schedule(g, s);
      expect_same_schedule(s, kahn);

      ThreadPool pool(threads);
      gpusim::Device dev(kSpec);
      dev.use_pool(pool);
      const solve::TriangularSolver solver(dev, factor, lower);
      EXPECT_EQ(solver.num_levels(), kahn.num_levels());
      EXPECT_EQ(dev.stats().device_launches, 0u);
    }
  }
}

Options device_options() {
  Options opt;
  opt.device = kSpec;
  return opt;
}

class ColumnDag
    : public ::testing::TestWithParam<std::tuple<int, DependencyRule>> {};

TEST_P(ColumnDag, EqualsKahnOnOneAndFourWorkers) {
  const auto [kind, rule] = GetParam();
  const DependencyGraph g = column_dag(fixture(kind), rule);
  const LevelSchedule kahn = levelize_sequential(g);
  for (const std::size_t threads : {1u, 4u}) {
    SCOPED_TRACE(std::to_string(threads) + " workers");
    const LevelSchedule s = column_levels(threads, g);
    validate_schedule(g, s);
    expect_same_schedule(s, kahn);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SyncFreeLevelize, ColumnDag,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::Values(DependencyRule::Symmetrized,
                                         DependencyRule::DoubleU)),
    [](const ::testing::TestParamInfo<ColumnDag::ParamType>& info) {
      return std::string(fixture_name(std::get<0>(info.param))) +
             (std::get<1>(info.param) == DependencyRule::DoubleU
                  ? "_double_u"
                  : "_symmetrized");
    });

TEST(SyncFreeLevelize, PredecessorListsTransposeTheSuccessorLists) {
  const DependencyGraph g = column_dag(fixture(2), DependencyRule::DoubleU);
  ASSERT_EQ(g.pred_ptr.size(), static_cast<std::size_t>(g.n) + 1);
  ASSERT_EQ(g.pred.size(), g.adj.size());
  std::vector<std::vector<index_t>> want(static_cast<std::size_t>(g.n));
  for (index_t i = 0; i < g.n; ++i) {
    for (offset_t k = g.adj_ptr[i]; k < g.adj_ptr[i + 1]; ++k) {
      want[g.adj[k]].push_back(i);
    }
  }
  for (index_t j = 0; j < g.n; ++j) {
    const std::vector<index_t> got(g.pred.begin() + g.pred_ptr[j],
                                   g.pred.begin() + g.pred_ptr[j + 1]);
    EXPECT_EQ(got, want[j]) << "column " << j;
  }
}

TEST(SyncFreeLevelize, PureChainIsOneLevelPerVertex) {
  constexpr index_t n = 600;
  const DependencyGraph g = column_dag(chain_matrix(n));
  for (const std::size_t threads : {1u, 4u}) {
    const LevelSchedule s = column_levels(threads, g);
    EXPECT_EQ(s.num_levels(), n);
    expect_same_schedule(s, levelize_sequential(g));
  }
}

TEST(SyncFreeLevelize, SingleVertex) {
  const DependencyGraph g = column_dag(chain_matrix(1));
  for (const std::size_t threads : {1u, 4u}) {
    const LevelSchedule s = column_levels(threads, g);
    EXPECT_EQ(s.num_levels(), 1);
    expect_same_schedule(s, levelize_sequential(g));
  }
}

TEST(SyncFreeLevelize, BothSolveOrientationsEqualKahn) {
  for (const int kind : {2, 3}) {
    SCOPED_TRACE(fixture_name(kind));
    expect_solve_orientations_match_kahn(
        SparseLU(device_options()).factorize(fixture(kind)));
  }
}

TEST(SyncFreeLevelize, ChainFactorsLevelizeInBothOrientations) {
  // L and U of a tridiagonal matrix are single chains: the upper one runs
  // against ascending ids, the orientation a one-worker pool deadlocks on
  // unless blocks claim rows in descending order.
  Options opt = device_options();
  opt.ordering = Ordering::None;
  opt.match_diagonal = false;
  const FactorResult f = SparseLU(opt).factorize(chain_matrix(500));
  expect_solve_orientations_match_kahn(f);
}

TEST(SyncFreeLevelize, RecordsItsChainNextToTheCharge) {
  // A pure chain: every block waits on the previous one, so the longest
  // chain is all of the launch's ops at one block's rate, while the charge
  // spreads them over the full grid — exactly max_concurrent_blocks apart.
  const DependencyGraph g = column_dag(chain_matrix(800));
  auto& registry = trace::MetricsRegistry::global();
  registry.clear();
  gpusim::Device dev(kSpec);
  FusedCost cost;
  levelize_sync_free(dev, g, &cost);
  EXPECT_NEAR(cost.chain_us / cost.charged_us, kSpec.max_concurrent_blocks,
              1e-9 * kSpec.max_concurrent_blocks);
  EXPECT_NEAR(cost.charged_us, dev.stats().sim_kernel_us,
              1e-12 * cost.charged_us);
  const trace::HistogramSnapshot chain =
      registry.histogram("model.levelize.chain_us").snapshot();
  const trace::HistogramSnapshot charged =
      registry.histogram("model.levelize.charged_us").snapshot();
  EXPECT_EQ(chain.count, 1u);
  EXPECT_EQ(charged.count, 1u);
  EXPECT_DOUBLE_EQ(chain.sum, cost.chain_us);
  EXPECT_DOUBLE_EQ(charged.sum, cost.charged_us);
  // model.fusion.* keeps meaning numeric and solve clusters only.
  EXPECT_EQ(registry.histogram("model.fusion.chain_us").snapshot().count, 0u);
}

TEST(SyncFreeLevelize, SpanCarriesTheScheduleAndTheCostPair) {
  const DependencyGraph g = column_dag(fixture(2));
  gpusim::Device dev(kSpec);
  trace::Tracer& tracer = trace::Tracer::instance();
  tracer.enable();
  tracer.clear();
  FusedCost cost;
  const LevelSchedule s = levelize_sync_free(dev, g, &cost);
  tracer.disable();
  const std::vector<trace::SpanRecord> spans = tracer.collect();
  tracer.clear();
  int found = 0;
  for (const trace::SpanRecord& r : spans) {
    if (std::string(r.name) != "levelize.sync_free") continue;
    ++found;
    for (std::uint32_t a = 0; a < r.num_attrs; ++a) {
      const std::string key = r.attrs[a].key;
      const trace::AttrValue& v = r.attrs[a].value;
      if (key == "n") EXPECT_EQ(v.i, g.n);
      if (key == "edges") EXPECT_EQ(v.i, g.num_edges());
      if (key == "levels") EXPECT_EQ(v.i, s.num_levels());
      if (key == "chain_us") EXPECT_DOUBLE_EQ(v.f, cost.chain_us);
      if (key == "charged_us") EXPECT_DOUBLE_EQ(v.f, cost.charged_us);
    }
    EXPECT_EQ(r.num_attrs, 5u);
  }
  EXPECT_EQ(found, 1);
}

TEST(SyncFreeLevelize, PipelineLevelizesInTwoHostLaunches) {
  // cons_graph plus the one levelization launch, whatever the level
  // count, and the schedule SparseLU hands numeric is Kahn's.
  for (const int kind : {1, 2}) {
    const Options opt = device_options();
    FactorizationArtifacts artifacts;
    const FactorResult res = SparseLU(opt).factorize(fixture(kind), artifacts);
    EXPECT_EQ(res.levelize.launches, 2u) << fixture_name(kind);
    EXPECT_EQ(res.device_stats.device_launches, 0u) << fixture_name(kind);
    expect_same_schedule(artifacts.schedule,
                         levelize_sequential(build_dependency_graph(
                             artifacts.matrix.pattern, opt.dependency_rule)));
  }
}

TEST(LevelizePhase, PhaseOpsTileTheDeviceKernelOps) {
  // With Serial preprocessing every device op of a factorization belongs
  // to symbolic, levelize (cons_graph included) or numeric.
  const Csr fixtures[] = {gen_circuit(1200, 6, 3, 24, 7),
                          gen_banded(800, 9, 6, 3),
                          gen_near_planar(900, 3.5, 5, 4)};
  for (const Csr& a : fixtures) {
    const FactorResult res = SparseLU(device_options()).factorize(a);
    EXPECT_EQ(res.symbolic.ops + res.levelize.ops + res.numeric.ops,
              res.device_stats.kernel_ops)
        << "n = " << a.n;
  }
}

}  // namespace
}  // namespace e2elu::scheduling
