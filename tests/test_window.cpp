// Out-of-core numeric execution (numeric/factor_window.hpp): window
// grouping invariants, bit-exactness of the windowed executors against
// the fully-resident oracle, over-budget end-to-end factorization,
// transfer/stall accounting, windowed refactorization, and the streaming
// triangular solve.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "charge_pins.hpp"
#include "core/sparse_lu.hpp"
#include "gpusim/device.hpp"
#include "matrix/generators.hpp"
#include "numeric/factor_window.hpp"
#include "numeric/numeric.hpp"
#include "refactor/refactor.hpp"
#include "scheduling/fusion.hpp"
#include "scheduling/levelize.hpp"
#include "solve/triangular.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "symbolic/symbolic.hpp"

namespace e2elu::scheduling {
namespace {

TEST(WindowGroups, PartitionsClustersUnderCapacity) {
  const ClusterSchedule cs = singleton_clusters(10);
  // Clusters of 10, 20, ..., 100 bytes.
  const auto bytes = [](index_t c) {
    return static_cast<std::size_t>((c + 1) * 10);
  };
  const std::vector<index_t> gp = build_window_groups(cs, 60, bytes);
  ASSERT_GE(gp.size(), 2u);
  EXPECT_EQ(gp.front(), 0);
  EXPECT_EQ(gp.back(), 10);
  for (std::size_t g = 0; g + 1 < gp.size(); ++g) {
    EXPECT_LT(gp[g], gp[g + 1]);
    if (gp[g + 1] - gp[g] > 1) {
      std::size_t total = 0;
      for (index_t c = gp[g]; c < gp[g + 1]; ++c) total += bytes(c);
      EXPECT_LE(total, 60u);
    }
  }
  // First group packs 10+20+30 = 60; clusters of 70..100 bytes exceed the
  // capacity and must travel alone.
  EXPECT_EQ(gp[1], 3);
  validate_window_groups(cs, gp, 60, bytes);
}

TEST(WindowGroups, OverweightClusterGetsSolitaryGroup) {
  const ClusterSchedule cs = singleton_clusters(3);
  const auto bytes = [](index_t c) {
    return static_cast<std::size_t>(c == 1 ? 1000 : 10);
  };
  const std::vector<index_t> gp = build_window_groups(cs, 50, bytes);
  // 0 fits; 1 is overweight and travels alone; 2 starts fresh.
  ASSERT_EQ(gp.size(), 4u);
  EXPECT_EQ(gp[1], 1);
  EXPECT_EQ(gp[2], 2);
  validate_window_groups(cs, gp, 50, bytes);
}

TEST(WindowGroups, OversizedCapacityYieldsOneGroup) {
  const ClusterSchedule cs = singleton_clusters(5);
  const auto bytes = [](index_t) { return std::size_t{1}; };
  const std::vector<index_t> gp = build_window_groups(cs, 1u << 20, bytes);
  ASSERT_EQ(gp.size(), 2u);
  EXPECT_EQ(gp[1], 5);
}

}  // namespace
}  // namespace e2elu::scheduling

namespace e2elu::numeric {
namespace {

struct Prepared {
  Csr a;
  FactorMatrix fm;
  scheduling::LevelSchedule schedule;
};

Prepared prepare(Csr a) {
  Prepared p;
  const Csr filled = symbolic::symbolic_reference(a).filled;
  p.fm = FactorMatrix::build(filled, a);
  p.schedule = scheduling::levelize_sequential(
      scheduling::build_dependency_graph(filled));
  p.a = std::move(a);
  return p;
}

/// Total window footprint of every column — the fully-resident baseline
/// the budget is set relative to.
std::size_t total_window_bytes(const FactorMatrix& m) {
  std::size_t total = 0;
  for (index_t j = 0; j < m.n(); ++j) total += window_column_bytes(m, j);
  return total;
}

TEST(WindowPlan, CoversEveryClusterAndCountsRefetches) {
  Prepared p = prepare(gen_circuit(300, 4.0, 3, 16, 41));
  const gpusim::DeviceSpec spec = gpusim::DeviceSpec::v100();
  const LevelPlan plan = build_level_plan(p.fm, p.schedule, spec);
  const std::size_t total = total_window_bytes(p.fm);
  const WindowPlan wp =
      build_window_plan(p.fm, p.schedule, plan.clusters, total / 4, 1);
  ASSERT_GE(wp.num_groups(), 3);
  EXPECT_EQ(wp.first_cluster(0), 0);
  EXPECT_EQ(wp.end_cluster(wp.num_groups() - 1), plan.clusters.num_clusters());
  std::uint64_t cols = 0, refetches = 0;
  for (index_t g = 0; g < wp.num_groups(); ++g) {
    EXPECT_GT(wp.group_bytes[g], 0u);
    EXPECT_GT(wp.group_cols[g], 0u);
    cols += wp.group_cols[g];
    refetches += wp.group_refetches[g];
  }
  // Fetches = one per distinct (group, column) pair; anything beyond one
  // fetch per matrix column is a refetch of a spilled update target.
  EXPECT_EQ(cols, static_cast<std::uint64_t>(p.fm.n()) + refetches);
  // A right-looking factorization split into >= 3 groups must update
  // across a group boundary somewhere.
  EXPECT_GT(refetches, 0u);
}

using pins::ChargePin;

/// Runs one executor fully resident and windowed (serial pool, same
/// kernels in the same order) and requires bitwise-identical factors and
/// each run's device charges equal to its pin.
enum class Path { Sparse, Dense, Replay };

void expect_windowed_bit_identical(const Csr& a, Path path, bool fused,
                                   const ChargePin& resident_pin,
                                   const ChargePin& windowed_pin) {
  ThreadPool serial(1);
  const gpusim::DeviceSpec spec =
      gpusim::DeviceSpec::v100_with_memory(1u << 30);

  NumericStats wstats;
  auto run = [&](bool windowed) {
    Prepared p = prepare(a);
    gpusim::Device dev(spec);
    dev.use_pool(serial);
    NumericOptions opt;
    opt.fusion.enabled = fused;
    // Uncapped, the whole test matrix fuses into one cluster (every
    // level is narrower than the V100 threshold) and the window would
    // have a single atomic unit; cap the cluster size so the fused
    // schedule still yields several window groups.
    if (fused) opt.fusion.max_cluster_columns = 32;
    if (windowed) {
      opt.window.enabled = true;
      // A quarter of the factor footprint: forces several groups.
      opt.window.budget_bytes = std::max<std::size_t>(
          total_window_bytes(p.fm) / 4, 1);
    }
    NumericStats st;
    if (path == Path::Replay) {
      const LevelPlan plan = build_level_plan(p.fm, p.schedule, spec,
                                              opt.fusion);
      const ReplayPlan replay = build_replay_plan(p.fm, p.schedule);
      EXPECT_FALSE(replay.empty());
      DeviceReplayPlan storage(dev, replay);
      st = factorize_replay(dev, p.fm, p.schedule, plan, replay, storage,
                            opt);
    } else if (path == Path::Sparse) {
      st = factorize_sparse_bsearch(dev, p.fm, p.schedule, opt);
    } else {
      st = factorize_dense_window(dev, p.fm, p.schedule, opt);
    }
    if (windowed) {
      wstats = st;
      EXPECT_GT(dev.stats().h2d_bytes, 0u);
      EXPECT_GT(dev.stats().d2h_bytes, 0u);
    } else {
      EXPECT_EQ(st.window_groups, 0u);
    }
    pins::expect_charges(dev.stats(), windowed ? windowed_pin : resident_pin);
    return p.fm.csc.values;
  };

  const std::vector<value_t> base = run(false);
  const std::vector<value_t> windowed = run(true);

  ASSERT_EQ(base.size(), windowed.size());
  EXPECT_EQ(std::memcmp(base.data(), windowed.data(),
                        base.size() * sizeof(value_t)),
            0);
  // The acceptance bar: the window actually scrolled (>= 3 groups) and
  // the accounting is populated.
  EXPECT_GE(wstats.window_groups, 3u);
  EXPECT_GT(wstats.window_evictions, 0u);
  EXPECT_GT(wstats.window_fetch_bytes, 0u);
  EXPECT_GE(wstats.window_stall_us, 0.0);
}

const Csr kMatrix = gen_circuit(250, 4.0, 3, 16, 32);

TEST(WindowedExecution, SparseBitIdenticalToResident) {
  expect_windowed_bit_identical(kMatrix, Path::Sparse, /*fused=*/false,
                                {331, 0, 1378714, 0, 288056, 0, 0,
                                 1779.3856651316721, 1779.3856651316728},
                                {331, 0, 1378714, 0, 11357364, 11357364, 0,
                                 3774.274998465005, 3412.1000527173619});
}

TEST(WindowedExecution, SparseFusedBitIdenticalToResident) {
  expect_windowed_bit_identical(kMatrix, Path::Sparse, /*fused=*/true,
                                {8, 0, 1390299, 8, 288056, 0, 0,
                                 86.191346623687423, 86.191346623687409},
                                {8, 0, 1390299, 8, 456456, 456456, 0,
                                 142.26267995702077, 134.51933819816486});
}

TEST(WindowedExecution, DenseBitIdenticalToResident) {
  expect_windowed_bit_identical(kMatrix, Path::Dense, /*fused=*/false,
                                {831, 0, 2101922, 0, 288056, 0, 0,
                                 3655.5699284761622, 3655.569928476159},
                                {831, 0, 2101922, 0, 11357364, 11357364, 0,
                                 5650.4592618094948, 5592.5372618094898});
}

TEST(WindowedExecution, ReplayBitIdenticalToResident) {
  expect_windowed_bit_identical(kMatrix, Path::Replay, /*fused=*/false,
                                {499, 0, 196836, 0, 810500, 0, 0,
                                 2078.4310096092213, 2078.4310096092254},
                                {499, 0, 196836, 0, 12167864, 11357364, 0,
                                 4097.3250096092215, 3872.7033974550282});
}

TEST(WindowedExecution, ReplayFusedBitIdenticalToResident) {
  expect_windowed_bit_identical(kMatrix, Path::Replay, /*fused=*/true,
                                {8, 0, 208421, 8, 810500, 0, 0,
                                 105.21019965228257, 105.21019965228258},
                                {8, 0, 208421, 8, 1266956, 456456, 0,
                                 185.28619965228259, 179.18841158321038});
}

TEST(WindowedExecution, TinyBudgetStillBitIdentical) {
  // A budget far below any single cluster: every group is overweight and
  // streams with serialized transfers — slow, but still exact.
  ThreadPool serial(1);
  const gpusim::DeviceSpec spec =
      gpusim::DeviceSpec::v100_with_memory(1u << 30);
  auto run = [&](bool windowed) {
    Prepared p = prepare(kMatrix);
    gpusim::Device dev(spec);
    dev.use_pool(serial);
    NumericOptions opt;
    if (windowed) {
      opt.window.enabled = true;
      opt.window.budget_bytes = 64;
    }
    factorize_sparse_bsearch(dev, p.fm, p.schedule, opt);
    return p.fm.csc.values;
  };
  const std::vector<value_t> base = run(false);
  const std::vector<value_t> windowed = run(true);
  ASSERT_EQ(base.size(), windowed.size());
  EXPECT_EQ(std::memcmp(base.data(), windowed.data(),
                        base.size() * sizeof(value_t)),
            0);
}

TEST(WindowedExecution, FactorsWhenResidentPathExceedsDeviceMemory) {
  // Find the resident mirror footprint, then shrink the device below it:
  // the fully-resident path must OOM, the windowed path must finish.
  Prepared probe = prepare(gen_circuit(400, 5.0, 3, 20, 7));
  std::size_t mirror_bytes = 0;
  {
    gpusim::Device big(gpusim::DeviceSpec::v100_with_memory(1u << 30));
    DeviceFactorMatrix mirror(big, probe.fm);
    mirror_bytes = big.allocated_bytes();
  }
  ASSERT_GT(mirror_bytes, 0u);
  const gpusim::DeviceSpec small =
      gpusim::DeviceSpec::v100_with_memory(mirror_bytes / 2);

  {
    Prepared p = prepare(probe.a);
    gpusim::Device dev(small);
    EXPECT_THROW(factorize_sparse_bsearch(dev, p.fm, p.schedule),
                 gpusim::OutOfDeviceMemory);
  }
  {
    Prepared p = prepare(probe.a);
    gpusim::Device dev(small);
    NumericOptions opt;
    opt.window.enabled = true;  // budget 0: sized to the free bytes
    const NumericStats st =
        factorize_sparse_bsearch(dev, p.fm, p.schedule, opt);
    EXPECT_GT(st.window_groups, 0u);
    EXPECT_GT(st.ops, 0u);
    // The arena was released on exit and never exceeded the device.
    EXPECT_EQ(dev.allocated_bytes(), 0u);
  }
}

TEST(WindowedExecution, PrefetchOverlapsComputeOnSparsePath) {
  // With prefetch-ahead, later groups' fetches should already be done
  // (or partly done) when the compute stream reaches them: the stall must
  // be a fraction of the total transfer time, not all of it.
  Prepared p = prepare(gen_circuit(500, 5.0, 3, 20, 99));
  gpusim::Device dev(gpusim::DeviceSpec::v100_with_memory(1u << 30));
  NumericOptions opt;
  opt.window.enabled = true;
  opt.window.budget_bytes = std::max<std::size_t>(
      total_window_bytes(p.fm) / 3, 1);
  opt.window.prefetch_ahead = 1;
  const NumericStats st = factorize_sparse_bsearch(dev, p.fm, p.schedule, opt);
  ASSERT_GE(st.window_groups, 3u);
  EXPECT_GT(st.window_prefetches, 0u);
  EXPECT_LT(st.window_stall_us, dev.stats().sim_transfer_us);
}

TEST(WindowedExecution, EndToEndThroughSparseLu) {
  // The window option flows through the pipeline Options into the numeric
  // phase; the factors must solve like the resident path's.
  const Csr a = gen_circuit(300, 4.0, 3, 16, 5);
  ThreadPool serial(1);
  Options opt;
  opt.device = gpusim::DeviceSpec::v100_with_memory(64u << 20);
  opt.pool = &serial;

  const FactorResult base = SparseLU(opt).factorize(a);
  Options wopt = opt;
  wopt.numeric.window.enabled = true;
  wopt.numeric.window.budget_bytes = 1u << 16;
  const FactorResult windowed = SparseLU(wopt).factorize(a);

  ASSERT_EQ(base.l.values.size(), windowed.l.values.size());
  ASSERT_EQ(base.u.values.size(), windowed.u.values.size());
  EXPECT_EQ(std::memcmp(base.l.values.data(), windowed.l.values.data(),
                        base.l.values.size() * sizeof(value_t)),
            0);
  EXPECT_EQ(std::memcmp(base.u.values.data(), windowed.u.values.data(),
                        base.u.values.size() * sizeof(value_t)),
            0);
}

}  // namespace
}  // namespace e2elu::numeric

namespace e2elu {
namespace {

TEST(WindowedRefactor, ReplaysBitIdenticalWithSmallerFootprint) {
  const Csr a = gen_circuit(400, 5.0, 3, 20, 0xbeef);
  ThreadPool serial(1);
  Options opt;
  opt.device = gpusim::DeviceSpec::v100_with_memory(64u << 20);
  opt.match_diagonal = false;
  opt.pool = &serial;

  refactor::Refactorizer resident(a, opt);
  Options wopt = opt;
  wopt.numeric.window.enabled = true;
  wopt.numeric.window.budget_bytes = 1u << 16;
  refactor::Refactorizer windowed(a, wopt);

  // No resident factor arrays: the windowed engine's footprint is the
  // replay arrays only — what lets the pattern cache hold plans whose
  // factors never fully fit.
  EXPECT_LT(windowed.device_footprint_bytes(),
            resident.device_footprint_bytes());

  for (std::uint64_t step = 1; step <= 2; ++step) {
    const Csr a_t = gen_value_drift(a, 0.1, step);
    const refactor::RefactorReport r1 = resident.refactorize(a_t);
    const refactor::RefactorReport r2 = windowed.refactorize(a_t);
    EXPECT_TRUE(r1.reused);
    EXPECT_TRUE(r2.reused);
    ASSERT_EQ(resident.factors().l.values.size(),
              windowed.factors().l.values.size());
    EXPECT_EQ(std::memcmp(resident.factors().l.values.data(),
                          windowed.factors().l.values.data(),
                          resident.factors().l.values.size() *
                              sizeof(value_t)),
              0);
    EXPECT_EQ(std::memcmp(resident.factors().u.values.data(),
                          windowed.factors().u.values.data(),
                          resident.factors().u.values.size() *
                              sizeof(value_t)),
              0);
  }
}

TEST(StreamingSolve, MatchesResidentSolveExactly) {
  const Csr a = gen_circuit(300, 4.0, 3, 16, 21);
  Options opt;
  opt.device = gpusim::DeviceSpec::v100_with_memory(64u << 20);
  const FactorResult f = SparseLU(opt).factorize(a);

  gpusim::Device dev(opt.device);
  solve::LuSolver resident(dev, f.l, f.u);
  solve::LuSolver streamed(dev, f.l, f.u);
  solve::SolveStreamOptions sopt;
  sopt.enabled = true;
  sopt.budget_bytes = 1u << 14;
  sopt.prefetch_ahead = 2;
  streamed.set_stream_options(sopt);

  Rng rng(77);
  std::vector<value_t> b(static_cast<std::size_t>(a.n));
  for (auto& v : b) v = static_cast<value_t>(rng.next_double(-1.0, 1.0));

  const std::vector<value_t> x0 = resident.solve(b);
  const std::vector<value_t> x1 = streamed.solve(b);
  ASSERT_EQ(x0.size(), x1.size());
  EXPECT_EQ(std::memcmp(x0.data(), x1.data(), x0.size() * sizeof(value_t)),
            0);

  const solve::SolveStreamStats& low = streamed.lower().stream_stats();
  const solve::SolveStreamStats& up = streamed.upper().stream_stats();
  EXPECT_GT(low.chunks + up.chunks, 0u);
  EXPECT_GT(low.fetch_bytes + up.fetch_bytes, 0u);
  EXPECT_GT(low.prefetches + up.prefetches, 0u);
  EXPECT_GE(low.stall_us, 0.0);
  // The resident solver streamed nothing.
  EXPECT_EQ(resident.lower().stream_stats().chunks, 0u);
}

}  // namespace
}  // namespace e2elu
