// Level fusion: the clustering pass and its oracle, classify_level
// boundaries, and fused-vs-unfused bit-exactness across all three numeric
// executors.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>

#include "charge_pins.hpp"
#include "gpusim/device.hpp"
#include "matrix/generators.hpp"
#include "numeric/numeric.hpp"
#include "scheduling/fusion.hpp"
#include "scheduling/levelize.hpp"
#include "support/thread_pool.hpp"
#include "symbolic/symbolic.hpp"
#include "trace/metrics.hpp"

namespace e2elu::scheduling {
namespace {

/// A schedule with the given level widths over columns 0..n-1 in order.
LevelSchedule schedule_with_widths(const std::vector<index_t>& widths) {
  LevelSchedule s;
  s.level_ptr.push_back(0);
  for (std::size_t l = 0; l < widths.size(); ++l) {
    for (index_t k = 0; k < widths[l]; ++k) {
      s.level.push_back(static_cast<index_t>(l));
    }
    s.level_ptr.push_back(s.level_ptr.back() + widths[l]);
  }
  s.level_cols.resize(s.level.size());
  std::iota(s.level_cols.begin(), s.level_cols.end(), 0);
  return s;
}

const gpusim::DeviceSpec kSpec = gpusim::DeviceSpec::v100();

TEST(Fusion, ResolvedThresholdDefaultsToHalfResidency) {
  FusionOptions opt;
  opt.enabled = true;
  EXPECT_EQ(resolved_width_threshold(kSpec, opt),
            kSpec.max_concurrent_blocks / 2);
  opt.width_threshold = 7;
  EXPECT_EQ(resolved_width_threshold(kSpec, opt), 7);
}

TEST(Fusion, DisabledYieldsSingletons) {
  const LevelSchedule s = schedule_with_widths({1, 1, 1, 1});
  const ClusterSchedule c = build_cluster_schedule(s, kSpec, {});
  EXPECT_EQ(c.num_clusters(), 4);
  EXPECT_EQ(c.fused_level_count(), 0);
  for (index_t i = 0; i < c.num_clusters(); ++i) {
    EXPECT_FALSE(c.is_fused(i));
    EXPECT_EQ(c.level_count(i), 1);
  }
}

TEST(Fusion, NarrowRunFusesIntoOneCluster) {
  const LevelSchedule s = schedule_with_widths({1, 2, 3, 1, 1});
  FusionOptions opt;
  opt.enabled = true;
  const ClusterSchedule c = build_cluster_schedule(s, kSpec, opt);
  ASSERT_EQ(c.num_clusters(), 1);
  EXPECT_TRUE(c.is_fused(0));
  EXPECT_EQ(c.fused_level_count(), 5);
}

TEST(Fusion, WideLevelsBreakClusters) {
  // Threshold defaults to 80: the 200-wide levels stay singletons and
  // split the narrow runs around them.
  const LevelSchedule s = schedule_with_widths({200, 1, 1, 200, 1, 1, 1});
  FusionOptions opt;
  opt.enabled = true;
  const ClusterSchedule c = build_cluster_schedule(s, kSpec, opt);
  ASSERT_EQ(c.num_clusters(), 4);
  EXPECT_FALSE(c.is_fused(0));
  EXPECT_TRUE(c.is_fused(1));
  EXPECT_EQ(c.level_count(1), 2);
  EXPECT_FALSE(c.is_fused(2));
  EXPECT_TRUE(c.is_fused(3));
  EXPECT_EQ(c.level_count(3), 3);
}

TEST(Fusion, ShortRunsStayPerLevel) {
  // A lone narrow level between wide ones never reaches min_run.
  const LevelSchedule s = schedule_with_widths({200, 1, 200});
  FusionOptions opt;
  opt.enabled = true;
  const ClusterSchedule c = build_cluster_schedule(s, kSpec, opt);
  EXPECT_EQ(c.num_clusters(), 3);
  EXPECT_EQ(c.fused_level_count(), 0);
}

TEST(Fusion, ColumnCapSplitsLongRuns) {
  const LevelSchedule s =
      schedule_with_widths({50, 50, 50, 50, 50, 50});
  FusionOptions opt;
  opt.enabled = true;
  opt.max_cluster_columns = 120;  // two 50-wide levels fit, three do not
  const ClusterSchedule c = build_cluster_schedule(s, kSpec, opt);
  ASSERT_EQ(c.num_clusters(), 3);
  for (index_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(c.is_fused(i));
    EXPECT_EQ(c.level_count(i), 2);
  }
}

TEST(Fusion, EmptyScheduleClustersToNothing) {
  const LevelSchedule s;
  FusionOptions opt;
  opt.enabled = true;
  const ClusterSchedule c = build_cluster_schedule(s, kSpec, opt);
  EXPECT_EQ(c.num_clusters(), 0);
  EXPECT_EQ(c.fused_level_count(), 0);
  validate_clustering(s, c, kSpec, opt);  // vacuously valid
}

TEST(Fusion, SingleLevelScheduleStaysUnfused) {
  const LevelSchedule s = schedule_with_widths({1});
  FusionOptions opt;
  opt.enabled = true;
  const ClusterSchedule c = build_cluster_schedule(s, kSpec, opt);
  ASSERT_EQ(c.num_clusters(), 1);
  EXPECT_FALSE(c.is_fused(0));
}

TEST(FusionOracle, RejectsTamperedClusterings) {
  const LevelSchedule s = schedule_with_widths({200, 1, 1, 1});
  FusionOptions opt;
  opt.enabled = true;
  const ClusterSchedule good = build_cluster_schedule(s, kSpec, opt);
  validate_clustering(s, good, kSpec, opt);

  // Not a partition: missing tail.
  ClusterSchedule bad = good;
  bad.cluster_ptr.pop_back();
  EXPECT_THROW(validate_clustering(s, bad, kSpec, opt), Error);

  // Fused cluster swallowing a wide level.
  bad.cluster_ptr = {0, 4};
  EXPECT_THROW(validate_clustering(s, bad, kSpec, opt), Error);

  // Fused cluster while fusion is disabled.
  ClusterSchedule fused_tail;
  fused_tail.cluster_ptr = {0, 1, 4};
  EXPECT_THROW(validate_clustering(s, fused_tail, kSpec, FusionOptions{}),
               Error);

  // Cluster overflows the column cap.
  FusionOptions tight = opt;
  tight.max_cluster_columns = 2;
  EXPECT_THROW(validate_clustering(s, fused_tail, kSpec, tight), Error);
}

TEST(ClassifyLevel, BoundaryWidthsAndWeights) {
  // GLU3.0 taxonomy boundaries sit at width 32 and 32 mean sub-columns.
  EXPECT_EQ(classify_level(32, 31.9), LevelType::A);
  EXPECT_EQ(classify_level(1000, 0.0), LevelType::A);
  EXPECT_EQ(classify_level(31, 32.0), LevelType::C);
  EXPECT_EQ(classify_level(1, 1000.0), LevelType::C);
  EXPECT_EQ(classify_level(32, 32.0), LevelType::B);   // wide and heavy
  EXPECT_EQ(classify_level(31, 31.9), LevelType::B);   // narrow and light
  EXPECT_EQ(classify_level(0, 0.0), LevelType::B);     // degenerate
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

scheduling::FusionOptions fusion_on() {
  scheduling::FusionOptions f;
  f.enabled = true;
  return f;
}

using pins::ChargePin;

/// Runs one executor twice — fusion off and on — on a single-worker pool
/// (deterministic block order) and requires bitwise-identical factors, an
/// actual launch reduction, and each run's device charges equal to its pin.
enum class Path { Sparse, Dense, Replay };

void expect_fused_bit_identical(const Csr& a, Path path,
                                const ChargePin& unfused_pin,
                                const ChargePin& fused_pin,
                                std::size_t device_bytes = 1u << 30) {
  ThreadPool serial(1);
  const gpusim::DeviceSpec spec =
      gpusim::DeviceSpec::v100_with_memory(device_bytes);

  auto run = [&](bool fused, std::uint64_t& launches,
                 index_t& fused_levels) {
    Prepared p = prepare(a);
    gpusim::Device dev(spec);
    dev.use_pool(serial);
    NumericOptions opt;
    if (fused) opt.fusion = fusion_on();
    NumericStats st;
    auto& registry = trace::MetricsRegistry::global();
    const std::uint64_t recorded =
        registry.histogram("model.fusion.charged_us").count();
    if (path == Path::Replay) {
      const LevelPlan plan =
          build_level_plan(p.fm, p.schedule, spec, opt.fusion);
      scheduling::validate_clustering(p.schedule, plan.clusters, spec,
                                      opt.fusion);
      const ReplayPlan replay = build_replay_plan(p.fm, p.schedule);
      EXPECT_FALSE(replay.empty());
      DeviceReplayPlan storage(dev, replay);
      st = factorize_replay(dev, p.fm, p.schedule, plan, replay, storage);
    } else if (path == Path::Sparse) {
      st = factorize_sparse_bsearch(dev, p.fm, p.schedule, opt);
    } else {
      st = factorize_dense_window(dev, p.fm, p.schedule, opt);
    }
    launches = dev.stats().host_launches;
    fused_levels = st.fused_levels;
    // Every fused launch records its chain next to its charged time.
    EXPECT_EQ(registry.histogram("model.fusion.charged_us").count() - recorded,
              dev.stats().fused_launches);
    EXPECT_EQ(registry.histogram("model.fusion.chain_us").count() - recorded,
              dev.stats().fused_launches);
    if (fused) {
      EXPECT_GT(st.fused_levels, 0);
      EXPECT_GT(st.fused_clusters, 0);
      EXPECT_EQ(dev.stats().fused_levels,
                static_cast<std::uint64_t>(st.fused_levels));
    } else {
      EXPECT_EQ(st.fused_levels, 0);
      EXPECT_EQ(dev.stats().fused_launches, 0u);
    }
    pins::expect_charges(dev.stats(), fused ? fused_pin : unfused_pin);
    // Returning the factored values for the memcmp below.
    return p.fm.csc.values;
  };

  std::uint64_t launches_base = 0, launches_fused = 0;
  index_t fl_base = 0, fl_fused = 0;
  const std::vector<value_t> base = run(false, launches_base, fl_base);
  const std::vector<value_t> fused = run(true, launches_fused, fl_fused);

  ASSERT_EQ(base.size(), fused.size());
  EXPECT_EQ(std::memcmp(base.data(), fused.data(),
                        base.size() * sizeof(value_t)),
            0);
  EXPECT_LT(launches_fused, launches_base);
}

// Circuit matrices levelize into the deep narrow schedules fusion exists
// for; the banded chain below is the worst case (every level width 1).
TEST(FusedExecution, SparseBitIdenticalToUnfused) {
  expect_fused_bit_identical(gen_circuit(250, 4.0, 3, 16, 32), Path::Sparse,
                             {331, 0, 1378714, 0, 288056, 0, 0,
                              1779.3856651316721, 1779.3856651316728},
                             {1, 0, 1390299, 1, 288056, 0, 0,
                              35.567033943311621, 35.567033943311621});
}

TEST(FusedExecution, DenseBitIdenticalToUnfused) {
  expect_fused_bit_identical(gen_circuit(250, 4.0, 3, 16, 32), Path::Dense,
                             {831, 0, 2101922, 0, 288056, 0, 0,
                              3655.5699284761622, 3655.569928476159},
                             {3, 0, 232091, 1, 288056, 0, 0,
                              37.267098261311993, 37.267098261311993});
}

TEST(FusedExecution, ReplayBitIdenticalToUnfused) {
  expect_fused_bit_identical(gen_circuit(250, 4.0, 3, 16, 32), Path::Replay,
                             {499, 0, 196836, 0, 810500, 0, 0,
                              2078.4310096092213, 2078.4310096092254},
                             {1, 0, 208421, 1, 810500, 0, 0,
                              72.675348090709704, 72.675348090709704});
}

TEST(FusedExecution, AllWidthOneChainFusesAndStaysBitIdentical) {
  // Tridiagonal: a strict dependency chain, n levels of width 1 — the
  // deepest possible schedule relative to n, one fused cluster end to end.
  Coo coo;
  coo.n = 64;
  for (index_t i = 0; i < coo.n; ++i) {
    coo.add(i, i, 4.0 + 0.01 * i);
    if (i > 0) {
      coo.add(i, i - 1, 1.0 + 0.002 * i);
      coo.add(i - 1, i, 1.0 - 0.003 * i);
    }
  }
  const Csr chain = coo_to_csr(coo);
  Prepared p = prepare(chain);
  ASSERT_EQ(p.schedule.num_levels(), chain.n);
  for (index_t l = 0; l < p.schedule.num_levels(); ++l) {
    ASSERT_EQ(p.schedule.level_width(l), 1);
  }
  expect_fused_bit_identical(chain, Path::Sparse,
                             {64, 0, 253, 0, 5600, 0, 0,
                              279.36561266861179, 279.36561266861219},
                             {1, 0, 379, 1, 5600, 0, 0,
                              5.0026536068060707, 5.0026536068060707});
  expect_fused_bit_identical(chain, Path::Dense,
                             {192, 0, 945, 0, 5600, 0, 0,
                              819.96666775404549, 819.96666775404299},
                             {3, 0, 695, 1, 5600, 0, 0,
                              13.449545092515969, 13.449545092515967});
  expect_fused_bit_identical(chain, Path::Replay,
                             {127, 0, 189, 0, 1012, 0, 0,
                              525.19066058379826, 525.19066058379781},
                             {1, 0, 315, 1, 1012, 0, 0,
                              4.5298106054808587, 4.5298106054808587});
}

TEST(FusedExecution, ReplayManagedTaskListBitIdenticalToUnfused) {
  // A device with room for the per-sub-column arrays and half the task
  // array: the tasks land in managed memory and every update reads its
  // destination through the paging model.
  const Csr a = gen_circuit(250, 4.0, 3, 16, 32);
  const Prepared p = prepare(a);
  const ReplayPlan replay = build_replay_plan(p.fm, p.schedule);
  const std::size_t bytes =
      (replay.ujk_pos.size() + replay.src_start.size() +
       replay.task_start.size() + replay.tasks.size() / 2) *
      sizeof(std::uint32_t);
  {
    gpusim::Device dev(gpusim::DeviceSpec::v100_with_memory(bytes));
    const DeviceReplayPlan storage(dev, replay);
    ASSERT_TRUE(storage.tasks_unified.has_value());
  }
  expect_fused_bit_identical(a, Path::Replay,
                             {499, 0, 196836, 0, 69496, 0, 0,
                              2148.6806762758879, 2148.6806762758902},
                             {1, 0, 208421, 1, 69496, 0, 181,
                              5441.9250147573766, 5441.9250147573766},
                             bytes);
}

TEST(FusedExecution, SingletonMatrixIsANoOpForFusion) {
  Coo coo;
  coo.n = 1;
  coo.add(0, 0, 2.0);
  Prepared p = prepare(coo_to_csr(coo));
  gpusim::Device dev(gpusim::DeviceSpec::v100_with_memory(1u << 24));
  NumericOptions opt;
  opt.fusion = fusion_on();
  const NumericStats st =
      factorize_sparse_bsearch(dev, p.fm, p.schedule, opt);
  EXPECT_EQ(st.fused_levels, 0);  // a 1-level run never reaches min_run
  EXPECT_EQ(p.fm.csc.values[0], 2.0);
}

TEST(FusedExecution, ZeroPivotStillThrowsInsideFusedCluster) {
  // An upper-bidiagonal chain (no L entries, so no update ever fills the
  // diagonal) whose third pivot is numerically zero: the fused kernel must
  // propagate the ZeroPivotError (abort protocol), not deadlock.
  Coo coo;
  coo.n = 4;
  for (index_t i = 0; i < 4; ++i) coo.add(i, i, i == 2 ? 0.0 : 3.0);
  for (index_t i = 1; i < 4; ++i) coo.add(i - 1, i, 1.0);
  Prepared p = prepare(coo_to_csr(coo));
  gpusim::Device dev(gpusim::DeviceSpec::v100_with_memory(1u << 24));
  NumericOptions opt;
  opt.fusion = fusion_on();
  EXPECT_THROW(factorize_sparse_bsearch(dev, p.fm, p.schedule, opt),
               ZeroPivotError);
}

TEST(FusedExecution, LevelPlanClustersAreAuthoritative) {
  // A cached plan built with fusion off keeps the executor unfused even
  // when the call-site options ask for fusion — and vice versa.
  const Csr a = gen_circuit(150, 4.0, 2, 12, 7);
  Prepared p = prepare(a);
  const gpusim::DeviceSpec spec =
      gpusim::DeviceSpec::v100_with_memory(1u << 30);
  const LevelPlan unfused_plan = build_level_plan(p.fm, p.schedule, spec);

  gpusim::Device dev(spec);
  NumericOptions opt;
  opt.fusion = fusion_on();  // ignored: the plan's clustering wins
  const NumericStats st =
      factorize_sparse_bsearch(dev, p.fm, p.schedule, opt, &unfused_plan);
  EXPECT_EQ(st.fused_levels, 0);
  EXPECT_EQ(dev.stats().fused_launches, 0u);
}

}  // namespace
}  // namespace e2elu::numeric
