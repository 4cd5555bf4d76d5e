// Multi-device sharding (src/gpusim/device_group, src/sharding): the
// DeviceGroup peer-transfer cost model and its accounting invariant (the
// sum of per-device DeviceStats deltas plus peer-pair deltas tiles the
// group totals exactly), the shard planner (component packing, hub
// fallback, degrade estimate), and the cross-device equivalence property:
// for any matrix, any group size and any pre-numeric option tuple,
// ShardedFactorizer's factors and solves are bit-identical to a single
// device running SparseLU with the same options, and every phase before
// numeric charges exactly what SparseLU charges — sharding models numeric
// time, never arithmetic. Failing equivalence cases shrink to the
// smallest (seed, n, devices, option tuple).
//
// Also here: the per-device-state audit regressions — fusion ready-flag
// arenas, scrolling-window arenas, and Refactorizer device buffers must
// be per-instance, so concurrent pipelines on separate simulated devices
// cannot corrupt each other (the TSan CI leg runs these suites).

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sparse_lu.hpp"
#include "fault/fault.hpp"
#include "gpusim/device_group.hpp"
#include "matrix/generators.hpp"
#include "refactor/refactor.hpp"
#include "scheduling/levelize.hpp"
#include "service/factor_service.hpp"
#include "sharding/shard_plan.hpp"
#include "sharding/sharded_factorizer.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace e2elu {
namespace {

using gpusim::DeviceGroup;
using gpusim::DeviceSpec;
using gpusim::DeviceStats;
using gpusim::GroupStats;
using gpusim::PeerSpec;
using gpusim::PeerStats;
using sharding::ShardedFactorizer;
using sharding::ShardingOptions;
using sharding::ShardPlan;
using sharding::ShardReport;

DeviceSpec test_spec() { return DeviceSpec::v100_with_memory(64u << 20); }

ShardingOptions group_of(int devices, bool allow_degrade = true) {
  ShardingOptions sopt;
  sopt.num_devices = devices;
  sopt.allow_degrade = allow_degrade;
  return sopt;
}

/// The options that shape everything before the numeric stage. The
/// default tuple is identity permutations and the Algorithm 4 symbolic
/// driver.
struct OptionTuple {
  PreprocessMode preprocess = PreprocessMode::Serial;
  bool equilibrate = false;
  Ordering ordering = Ordering::None;
  Mode mode = Mode::OutOfCoreGpuDynamic;
};

std::string describe(const OptionTuple& t) {
  static const char* const kOrdering[] = {"None", "Rcm", "MinDegree"};
  static const char* const kMode[] = {"OutOfCoreGpu", "OutOfCoreGpuDynamic",
                                      "UnifiedMemoryGpu",
                                      "UnifiedMemoryGpuNoPrefetch",
                                      "CpuBaseline"};
  std::ostringstream os;
  os << "{preprocess="
     << (t.preprocess == PreprocessMode::Serial ? "Serial" : "GpuParallel")
     << ", equilibrate=" << (t.equilibrate ? "on" : "off")
     << ", ordering=" << kOrdering[static_cast<int>(t.ordering)]
     << ", mode=" << kMode[static_cast<int>(t.mode)] << "}";
  return os.str();
}

/// Base options shared by both sides of every equivalence comparison, so
/// the only degree of freedom between the single-device and sharded runs
/// is the device count. `pool` must be single-threaded for
/// bit-reproducible kernels.
Options equiv_options(ThreadPool& pool, const OptionTuple& t = {}) {
  Options opt;
  opt.device = test_spec();
  opt.mode = t.mode;
  opt.numeric_format = NumericFormat::SparseBinarySearch;
  opt.ordering = t.ordering;
  opt.preprocess.mode = t.preprocess;
  opt.preprocess.equilibrate = t.equilibrate;
  opt.match_diagonal = false;
  opt.pool = &pool;
  return opt;
}

std::vector<value_t> rhs_for(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = static_cast<value_t>(rng.next_double(-1.0, 1.0));
  return b;
}

/// Bitwise factor equality — not "close", identical. The sharding
/// invariant is exact, so the comparison is too.
bool values_identical(const std::vector<value_t>& a,
                      const std::vector<value_t>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(value_t)) == 0);
}

std::optional<std::string> factors_mismatch(const FactorResult& got,
                                            const FactorResult& want) {
  if (got.row_perm != want.row_perm || got.col_perm != want.col_perm) {
    return "permutations differ";
  }
  if (got.l.row_ptr != want.l.row_ptr || got.l.col_idx != want.l.col_idx ||
      got.u.row_ptr != want.u.row_ptr || got.u.col_idx != want.u.col_idx) {
    return "factor patterns differ";
  }
  if (!values_identical(got.l.values, want.l.values)) return "L values differ";
  if (!values_identical(got.u.values, want.u.values)) return "U values differ";
  if (!values_identical(got.scaling.row_scale, want.scaling.row_scale) ||
      !values_identical(got.scaling.col_scale, want.scaling.col_scale)) {
    return "scaling differs";
  }
  return std::nullopt;
}

/// Every phase before numeric must charge what SparseLU charges, field by
/// field (wall time aside): the sharded path runs the same stages.
std::optional<std::string> phases_mismatch(const FactorResult& got,
                                           const FactorResult& want) {
  const std::pair<const char*, PhaseReport FactorResult::*> phases[] = {
      {"preprocess", &FactorResult::preprocess},
      {"preprocess_match", &FactorResult::preprocess_match},
      {"preprocess_order", &FactorResult::preprocess_order},
      {"preprocess_scale", &FactorResult::preprocess_scale},
      {"symbolic", &FactorResult::symbolic},
      {"levelize", &FactorResult::levelize}};
  for (const auto& [name, phase] : phases) {
    const PhaseReport& g = got.*phase;
    const PhaseReport& w = want.*phase;
    if (g.sim_us != w.sim_us || g.ops != w.ops || g.launches != w.launches) {
      std::ostringstream os;
      os.precision(17);
      os << name << " charge differs (sharded vs SparseLU): sim_us "
         << g.sim_us << " vs " << w.sim_us << ", ops " << g.ops << " vs "
         << w.ops << ", launches " << g.launches << " vs " << w.launches;
      return os.str();
    }
  }
  return std::nullopt;
}

/// Block-diagonal matrix of `num_blocks` dense blocks of size `bs`: the
/// ideal sharding input — every block is one dependency component, every
/// level is `num_blocks` wide, and a partition along block boundaries has
/// zero cross-shard edges.
Csr many_dense_blocks(index_t num_blocks, index_t bs, std::uint64_t seed) {
  Rng rng(seed);
  const index_t n = num_blocks * bs;
  Csr a;
  a.n = n;
  a.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (index_t blk = 0; blk < num_blocks; ++blk) {
    const index_t base = blk * bs;
    for (index_t r = 0; r < bs; ++r) {
      const index_t i = base + r;
      for (index_t c = 0; c < bs; ++c) {
        a.col_idx.push_back(base + c);
        a.values.push_back(
            i == base + c ? static_cast<value_t>(bs) + 1.0
                          : static_cast<value_t>(rng.next_double(-1.0, 1.0)));
      }
      a.row_ptr[static_cast<std::size_t>(i) + 1] =
          a.row_ptr[static_cast<std::size_t>(i)] + bs;
    }
  }
  return a;
}

void expect_integer_stats_eq(const DeviceStats& a, const DeviceStats& b) {
  EXPECT_EQ(a.host_launches, b.host_launches);
  EXPECT_EQ(a.device_launches, b.device_launches);
  EXPECT_EQ(a.kernel_ops, b.kernel_ops);
  EXPECT_EQ(a.h2d_bytes, b.h2d_bytes);
  EXPECT_EQ(a.d2h_bytes, b.d2h_bytes);
  EXPECT_EQ(a.page_faults, b.page_faults);
  EXPECT_EQ(a.page_fault_groups, b.page_fault_groups);
  EXPECT_EQ(a.prefetch_bytes, b.prefetch_bytes);
  EXPECT_EQ(a.fused_launches, b.fused_launches);
  EXPECT_EQ(a.fused_levels, b.fused_levels);
}

void expect_time_stats_near(const DeviceStats& a, const DeviceStats& b) {
  const double tol = 1e-9 * (1.0 + a.sim_total_us());
  EXPECT_NEAR(a.sim_kernel_us, b.sim_kernel_us, tol);
  EXPECT_NEAR(a.sim_launch_us, b.sim_launch_us, tol);
  EXPECT_NEAR(a.sim_transfer_us, b.sim_transfer_us, tol);
  EXPECT_NEAR(a.sim_fault_us, b.sim_fault_us, tol);
  EXPECT_NEAR(a.sim_occupancy_us, b.sim_occupancy_us, tol);
}

// ---------------------------------------------------------------------------
// DeviceGroup: the interconnect cost model and its accounting separation.

TEST(DeviceGroup, MembersAreIndependentDevices) {
  DeviceGroup g(test_spec(), 3);
  ASSERT_EQ(g.size(), 3);
  // Distinct per-member identities and counters.
  g.device(0).launch({.name = "only_dev0", .blocks = 4},
                     [](std::int64_t, gpusim::KernelContext& ctx) {
                       ctx.add_ops(100);
                     });
  EXPECT_EQ(g.device(0).stats().host_launches, 1u);
  EXPECT_EQ(g.device(0).stats().kernel_ops, 400u);
  EXPECT_EQ(g.device(1).stats().host_launches, 0u);
  EXPECT_EQ(g.device(2).stats().kernel_ops, 0u);
  EXPECT_GT(g.device(0).elapsed_us(), 0.0);
  EXPECT_EQ(g.device(1).elapsed_us(), 0.0);
}

TEST(DeviceGroup, PeerCopyChargesThePairOnly) {
  const PeerSpec peer{.bandwidth_gbps = 40.0, .latency_us = 2.0};
  DeviceGroup g(test_spec(), 2, peer);
  const std::size_t bytes = 4000;
  g.peer_copy(0, 1, bytes);

  const PeerStats& p01 = g.peer_stats(0, 1);
  EXPECT_EQ(p01.transfers, 1u);
  EXPECT_EQ(p01.bytes, bytes);
  EXPECT_DOUBLE_EQ(p01.sim_us, peer.time_us(bytes));
  // The reverse pair is untouched: (src, dst) pairs are ordered.
  EXPECT_EQ(g.peer_stats(1, 0).transfers, 0u);
  // Hard separation: peer traffic never leaks into the members' own PCIe
  // counters — that is what makes the tiling invariant exact.
  for (int d = 0; d < 2; ++d) {
    EXPECT_EQ(g.device(d).stats().h2d_bytes, 0u);
    EXPECT_EQ(g.device(d).stats().d2h_bytes, 0u);
  }
  EXPECT_EQ(g.peer_total().bytes, bytes);
}

TEST(DeviceGroup, PeerCopyIsAFullBarrierOnBothEnds) {
  const PeerSpec peer{.bandwidth_gbps = 40.0, .latency_us = 2.0};
  DeviceGroup g(test_spec(), 2, peer);
  g.device(0).launch({.name = "produce", .blocks = 160},
                     [](std::int64_t, gpusim::KernelContext& ctx) {
                       ctx.add_ops(100000);
                     });
  const double produced_at = g.device(0).elapsed_us();
  ASSERT_GT(produced_at, 0.0);

  g.peer_copy(0, 1, 1 << 20);
  // Both members sit behind the copy's completion, like a default-stream
  // cudaMemcpyPeer: the idle destination inherits the producer's clock
  // plus the link time.
  const double done = produced_at + peer.time_us(1 << 20);
  EXPECT_DOUBLE_EQ(g.device(0).elapsed_us(), done);
  EXPECT_DOUBLE_EQ(g.device(1).elapsed_us(), done);
  EXPECT_DOUBLE_EQ(g.elapsed_us(), done);
}

TEST(DeviceGroup, AsyncPeerCopyOrdersConsumerAfterProducer) {
  const PeerSpec peer{.bandwidth_gbps = 40.0, .latency_us = 2.0};
  DeviceGroup g(test_spec(), 3, peer);
  gpusim::Stream s0(g.device(0));
  gpusim::Stream s1(g.device(1));

  g.device(0).launch({.name = "produce", .blocks = 160, .stream = &s0},
                     [](std::int64_t, gpusim::KernelContext& ctx) {
                       ctx.add_ops(500000);
                     });
  const double produced_at = g.device(0).elapsed_us();
  const std::size_t big = 4u << 20;  // link time far above a tiny kernel's
  g.peer_copy_async(0, 1, big, s0, s1);
  // The consumer's next kernel on the destination stream starts only
  // after the transfer lands.
  g.device(1).launch({.name = "consume", .blocks = 1, .stream = &s1},
                     [](std::int64_t, gpusim::KernelContext& ctx) {
                       ctx.add_ops(10);
                     });
  // The producer's stream is not blocked behind the copy: its next kernel
  // queues right after the producing one.
  g.device(0).launch({.name = "next_on_src", .blocks = 1, .stream = &s0},
                     [](std::int64_t, gpusim::KernelContext& ctx) {
                       ctx.add_ops(10);
                     });
  g.synchronize();

  EXPECT_GE(g.device(1).elapsed_us(), produced_at + peer.time_us(big) - 1e-9);
  EXPECT_LT(g.device(0).elapsed_us(), g.device(1).elapsed_us());
  // An uninvolved member's timeline is untouched.
  EXPECT_DOUBLE_EQ(g.device(2).elapsed_us(), 0.0);
  EXPECT_EQ(g.peer_stats(0, 1).transfers, 1u);
}

TEST(DeviceGroup, GroupStatsTileMemberAndPairStats) {
  DeviceGroup g(test_spec(), 3);
  // Mixed work: kernels on two members, an explicit host copy on one,
  // peer traffic in both directions of one pair.
  g.device(0).launch({.name = "a", .blocks = 8},
                     [](std::int64_t, gpusim::KernelContext& ctx) {
                       ctx.add_ops(50);
                     });
  g.device(1).launch({.name = "b", .blocks = 2},
                     [](std::int64_t, gpusim::KernelContext& ctx) {
                       ctx.add_ops(10);
                     });
  g.device(1).copy_h2d(1234);
  g.peer_copy(0, 2, 100);
  g.peer_copy(2, 0, 200);

  GroupStats gs = g.stats();
  DeviceStats sum;
  double max_elapsed = 0;
  for (int d = 0; d < g.size(); ++d) {
    gpusim::accumulate(sum, g.device(d).stats());
    max_elapsed = std::max(max_elapsed, g.device(d).elapsed_us());
  }
  expect_integer_stats_eq(gs.devices, sum);
  expect_time_stats_near(gs.devices, sum);
  EXPECT_DOUBLE_EQ(gs.devices.sim_elapsed_us, max_elapsed);
  EXPECT_DOUBLE_EQ(gs.elapsed_us, max_elapsed);
  EXPECT_EQ(gs.peer.transfers, 2u);
  EXPECT_EQ(gs.peer.bytes, 300u);
  EXPECT_EQ(gs.peer.bytes,
            g.peer_stats(0, 2).bytes + g.peer_stats(2, 0).bytes);
}

/// The tiling invariant on a real factorization: sum the per-member
/// deltas over a ShardedFactorizer run and they must reproduce the
/// group's delta exactly, with peer traffic accounted once, on the pairs.
void expect_group_delta_tiles(DeviceGroup& g,
                              const std::vector<DeviceStats>& member_before,
                              const GroupStats& group_before) {
  const GroupStats delta = g.stats().since(group_before);
  DeviceStats sum;
  for (int d = 0; d < g.size(); ++d) {
    gpusim::accumulate(
        sum, g.device(d).stats().since(member_before[static_cast<std::size_t>(d)]));
  }
  expect_integer_stats_eq(delta.devices, sum);
  expect_time_stats_near(delta.devices, sum);
}

TEST(DeviceGroup, AccountingTilesAcrossAFactorization) {
  const Csr a = many_dense_blocks(64, 8, 77);
  ThreadPool serial(1);
  ShardedFactorizer sharded(equiv_options(serial),
                            group_of(4, false));
  DeviceGroup& g = sharded.group();

  std::vector<DeviceStats> member_before;
  for (int d = 0; d < g.size(); ++d) member_before.push_back(g.device(d).snapshot());
  const GroupStats group_before = g.stats();

  ShardReport rep;
  const FactorResult res = sharded.factorize(a, rep);
  expect_group_delta_tiles(g, member_before, group_before);

  // The numeric-phase deltas the report carries tile the numeric phase:
  // every op charged to the phase total sits on exactly one member, and
  // every launch is counted on exactly one member.
  ASSERT_EQ(static_cast<int>(rep.device_deltas.size()), g.size());
  std::uint64_t delta_ops = 0, delta_launches = 0;
  for (const DeviceStats& d : rep.device_deltas) {
    delta_ops += d.kernel_ops;
    delta_launches += d.host_launches + d.device_launches;
  }
  EXPECT_EQ(delta_ops, res.numeric.ops);
  EXPECT_EQ(delta_launches, res.numeric.launches);
  // All four members actually executed, and the cut is empty for a
  // block-diagonal matrix: component sharding moved zero peer bytes.
  EXPECT_EQ(rep.devices_used, 4);
  EXPECT_EQ(rep.cross_edges, 0);
  EXPECT_EQ(rep.peer.bytes, 0u);
  for (const DeviceStats& d : rep.device_deltas) EXPECT_GT(d.kernel_ops, 0u);
}

TEST(DeviceGroup, AccountingTilesUnderFaultInjection) {
  const Csr a = many_dense_blocks(64, 8, 78);
  ThreadPool serial(1);
  ShardedFactorizer sharded(equiv_options(serial),
                            group_of(4, false));
  DeviceGroup& g = sharded.group();

  std::vector<DeviceStats> member_before;
  for (int d = 0; d < g.size(); ++d) member_before.push_back(g.device(d).snapshot());
  const GroupStats group_before = g.stats();

  ShardReport rep;
  FactorResult res;
  {
    fault::ScopedPlan plan("launch=shard_numeric_dev2@1");
    res = sharded.factorize(a, rep);
  }
  // Member 2 was dropped and the shards re-packed onto the survivors —
  // and the accounting still tiles: the aborted attempt's charges sit on
  // the members that made them.
  EXPECT_EQ(rep.repacks, 1);
  ASSERT_EQ(rep.failed_devices.size(), 1u);
  EXPECT_EQ(rep.failed_devices[0], 2);
  EXPECT_EQ(rep.devices_used, 3);
  expect_group_delta_tiles(g, member_before, group_before);

  // Recovery must not bend the equivalence invariant either.
  ThreadPool serial2(1);
  const FactorResult want = SparseLU(equiv_options(serial2)).factorize(a);
  EXPECT_EQ(factors_mismatch(res, want), std::nullopt);
}

// ---------------------------------------------------------------------------
// Shard planning.

TEST(Sharding, PlanPacksIndependentComponentsWithoutCuts) {
  const Csr a = many_dense_blocks(8, 4, 5);
  const auto graph =
      scheduling::build_dependency_graph(a, Options{}.dependency_rule);
  const ShardPlan plan = sharding::build_shard_plan(graph, a, 4);

  EXPECT_EQ(plan.num_components, 8);
  EXPECT_EQ(plan.cross_edges, 0);
  EXPECT_FALSE(plan.irregular_fallback);
  EXPECT_DOUBLE_EQ(plan.balance(), 1.0);  // equal blocks pack evenly
  // Whole components travel together: a block never splits across owners.
  for (index_t blk = 0; blk < 8; ++blk) {
    for (index_t c = 1; c < 4; ++c) {
      EXPECT_EQ(plan.owner[blk * 4 + c], plan.owner[blk * 4]);
    }
  }
  // Every member owns something, and the owner lists partition 0..n-1.
  std::size_t total = 0;
  for (const auto& cols : plan.device_cols) {
    EXPECT_FALSE(cols.empty());
    total += cols.size();
  }
  EXPECT_EQ(total, static_cast<std::size_t>(a.n));
}

TEST(Sharding, PlanHubFallbackCarvesContiguousRuns) {
  // One dense block = one giant component carrying 100% of the footprint:
  // the packer must switch to irregular contiguous blocking.
  const Csr a = many_dense_blocks(1, 64, 6);
  const auto graph =
      scheduling::build_dependency_graph(a, Options{}.dependency_rule);
  const ShardPlan plan = sharding::build_shard_plan(graph, a, 4);

  EXPECT_EQ(plan.num_components, 1);
  EXPECT_TRUE(plan.irregular_fallback);
  EXPECT_GT(plan.cross_edges, 0);
  EXPECT_LT(plan.balance(), 2.0);
  // One contiguous index run per device (the seams are the only cuts).
  for (index_t j = 1; j < a.n; ++j) {
    EXPECT_GE(plan.owner[j], plan.owner[j - 1]);
  }
  for (const auto& cols : plan.device_cols) EXPECT_FALSE(cols.empty());
}

TEST(Sharding, SingleShardPlanOwnsEveryColumn) {
  const Csr a = many_dense_blocks(4, 4, 7);
  const ShardPlan plan = sharding::single_shard_plan(a, 1, 0);
  EXPECT_EQ(plan.num_devices, 1);
  EXPECT_EQ(plan.cross_edges, 0);
  for (index_t j = 0; j < a.n; ++j) EXPECT_EQ(plan.owner[j], 0);
  EXPECT_EQ(plan.device_cols[0].size(), static_cast<std::size_t>(a.n));
}

TEST(Sharding, EstimateSeparatesMeshesFromSerialChains) {
  // Wide independent levels + a launch-cheap device: the model must
  // predict a real win. 512 blocks make every level 512 wide — past
  // max_concurrent_blocks even when quartered.
  DeviceSpec fast = test_spec();
  fast.host_launch_us /= 256;
  fast.device_launch_us /= 256;

  const Csr mesh = many_dense_blocks(512, 8, 8);
  const auto mesh_graph =
      scheduling::build_dependency_graph(mesh, Options{}.dependency_rule);
  const auto mesh_sched = scheduling::levelize_sequential(mesh_graph);
  const ShardPlan mesh_plan =
      sharding::build_shard_plan(mesh_graph, mesh, 4);
  const sharding::ShardEstimate mesh_est = sharding::estimate_sharded_numeric(
      mesh_plan, mesh_graph, mesh, mesh_sched, fast, 40.0, 2.0);
  EXPECT_GT(mesh_est.predicted_speedup(), 1.5);

  // A single dense block is a serial chain of width-1 levels: splitting
  // it can only add peer latency, and the model must say so.
  const Csr chain = many_dense_blocks(1, 96, 9);
  const auto chain_graph =
      scheduling::build_dependency_graph(chain, Options{}.dependency_rule);
  const auto chain_sched = scheduling::levelize_sequential(chain_graph);
  const ShardPlan chain_plan =
      sharding::build_shard_plan(chain_graph, chain, 4);
  const sharding::ShardEstimate chain_est = sharding::estimate_sharded_numeric(
      chain_plan, chain_graph, chain, chain_sched, fast, 40.0, 2.0);
  EXPECT_LT(chain_est.predicted_speedup(), 1.1);
  EXPECT_LT(chain_est.predicted_speedup(), mesh_est.predicted_speedup());
}

TEST(Sharding, DegradedRunMatchesSingleDeviceCost) {
  // A hub-coupled circuit under the stock launch-heavy spec: the degrade
  // decision must fire, and the degraded run must charge exactly what a
  // one-member group charges — "no worse than one device" by construction.
  Csr a = gen_circuit(600, 4.0, 3, 24, 0x5eed);
  ThreadPool serial(1);

  ShardReport rep4;
  ShardedFactorizer four(equiv_options(serial), group_of(4));
  const FactorResult res4 = four.factorize(a, rep4);
  EXPECT_TRUE(rep4.degraded);
  EXPECT_EQ(rep4.devices_used, 1);
  EXPECT_EQ(rep4.peer.bytes, 0u);

  ShardReport rep1;
  ShardedFactorizer one(equiv_options(serial), group_of(1));
  const FactorResult res1 = one.factorize(a, rep1);
  EXPECT_NEAR(res4.numeric.sim_us, res1.numeric.sim_us,
              1e-9 * (1.0 + res1.numeric.sim_us));
  EXPECT_EQ(factors_mismatch(res4, res1), std::nullopt);
}

// ---------------------------------------------------------------------------
// Cross-device equivalence property: for any (seed, n, devices, option
// tuple), sharded factors, solves and pre-numeric charges are identical to
// one device's.

struct ShardCase {
  std::string kind;
  Csr a;
};

/// Derives the whole case from (seed, n): alternating blocked-planar
/// meshes (component sharding, zero cut) and hub circuits (irregular
/// carve, live peer traffic), so the sweep exercises both planner paths.
ShardCase make_shard_case(std::uint64_t seed, index_t n) {
  Rng rng(seed);
  ShardCase c;
  if (seed % 2 == 0) {
    const index_t bs = 16 + static_cast<index_t>(rng.next_below(32));
    c.kind = "blocked_planar";
    c.a = gen_blocked_planar(n, bs, 3.0 + rng.next_double() * 2.0,
                             4 + static_cast<index_t>(rng.next_below(8)),
                             rng.next_u64());
  } else {
    c.kind = "circuit";
    c.a = gen_circuit(n, 3.0 + rng.next_double() * 2.0,
                      1 + static_cast<index_t>(rng.next_below(3)),
                      8 + static_cast<index_t>(rng.next_below(16)),
                      rng.next_u64());
  }
  return c;
}

struct EquivCase {
  std::uint64_t seed = 0;
  index_t n = 0;
  int devices = 1;
  OptionTuple options;
};

/// One equivalence check. allow_degrade is off so the run actually
/// executes on `devices` members (the property must hold on the real
/// multi-device path, peer transfers included, not via the degrade
/// escape hatch).
std::optional<std::string> equivalence_failure(const EquivCase& ec) {
  const ShardCase c = make_shard_case(ec.seed, ec.n);
  ThreadPool ref_pool(1);
  FactorResult want;
  try {
    want = SparseLU(equiv_options(ref_pool, ec.options)).factorize(c.a);
  } catch (const std::exception& e) {
    return "single-device factorize threw: " + std::string(e.what());
  }

  ThreadPool shard_pool(1);
  ShardedFactorizer sharded(equiv_options(shard_pool, ec.options),
                            group_of(ec.devices, false));
  FactorResult got;
  try {
    got = sharded.factorize(c.a);
  } catch (const std::exception& e) {
    return "sharded factorize threw: " + std::string(e.what());
  }
  if (auto m = factors_mismatch(got, want)) return c.kind + ": " + *m;
  if (auto m = phases_mismatch(got, want)) return c.kind + ": " + *m;

  const std::vector<value_t> b = rhs_for(c.a.n, ec.seed ^ 0xb0b);
  if (!values_identical(SparseLU::solve(got, b), SparseLU::solve(want, b))) {
    return c.kind + ": solve differs";
  }
  return std::nullopt;
}

/// Shrinks a failing case — halve n while the failure reproduces, then
/// halve the group, then reset each option to its default — and reports
/// the smallest one.
void report_smallest_failure(EquivCase ec, std::string detail) {
  const auto still_fails = [&](const EquivCase& smaller) {
    const auto failure = equivalence_failure(smaller);
    if (!failure.has_value()) return false;
    ec = smaller;
    detail = *failure;
    return true;
  };
  while (ec.n / 2 >= 32) {
    EquivCase s = ec;
    s.n /= 2;
    if (!still_fails(s)) break;
  }
  while (ec.devices / 2 >= 1) {
    EquivCase s = ec;
    s.devices /= 2;
    if (!still_fails(s)) break;
  }
  const OptionTuple def;
  const auto try_default = [&](auto field) {
    EquivCase s = ec;
    s.options.*field = def.*field;
    if (s.options.*field != ec.options.*field) still_fails(s);
  };
  try_default(&OptionTuple::preprocess);
  try_default(&OptionTuple::equilibrate);
  try_default(&OptionTuple::ordering);
  try_default(&OptionTuple::mode);
  ADD_FAILURE() << "smallest failing case: seed=" << ec.seed
                << " n=" << ec.n << " devices=" << ec.devices
                << " options=" << describe(ec.options) << " — " << detail;
}

TEST(Sharding, FactorsAndSolvesMatchSingleDeviceBitForBit) {
  // The default option tuple across seeds and group sizes.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const index_t n = 256 + static_cast<index_t>((seed * 131) % 400);
    for (const int devices : {1, 2, 4, 8}) {
      const EquivCase ec{seed, n, devices, {}};
      if (auto failure = equivalence_failure(ec)) {
        report_smallest_failure(ec, *failure);
        return;
      }
    }
  }
  // Every pre-numeric option tuple on one fixture per planner path: a
  // blocked-planar mesh (seed 2) and a hub circuit (seed 1).
  for (const auto& [seed, n] : {std::pair<std::uint64_t, index_t>{2, 600},
                                std::pair<std::uint64_t, index_t>{1, 500}}) {
    for (const PreprocessMode pre :
         {PreprocessMode::Serial, PreprocessMode::GpuParallel}) {
      for (const bool equilibrate : {false, true}) {
        for (const Ordering ordering :
             {Ordering::None, Ordering::Rcm, Ordering::MinDegree}) {
          for (const Mode mode : {Mode::OutOfCoreGpu, Mode::OutOfCoreGpuDynamic,
                                  Mode::CpuBaseline}) {
            for (const int devices : {1, 4}) {
              const EquivCase ec{seed, n, devices,
                                 {pre, equilibrate, ordering, mode}};
              if (auto failure = equivalence_failure(ec)) {
                report_smallest_failure(ec, *failure);
                return;
              }
            }
          }
        }
      }
    }
  }
}

TEST(Sharding, HubMatricesShipPeerTrafficAndStayExact) {
  // Force the irregular-carve path on a hub circuit: cross-shard edges
  // exist, so peer bytes must actually flow — and the factors must still
  // be bit-identical, because peer traffic models time, not data reuse.
  const Csr a = gen_circuit(500, 4.0, 2, 20, 0xc0ffee);
  ThreadPool serial(1);
  ShardedFactorizer sharded(equiv_options(serial),
                            group_of(4, false));
  ShardReport rep;
  const FactorResult got = sharded.factorize(a, rep);
  EXPECT_TRUE(rep.irregular_fallback);
  EXPECT_GT(rep.cross_edges, 0);
  EXPECT_GT(rep.peer.bytes, 0u);
  EXPECT_GT(rep.peer.transfers, 0u);

  ThreadPool serial2(1);
  const FactorResult want = SparseLU(equiv_options(serial2)).factorize(a);
  EXPECT_EQ(factors_mismatch(got, want), std::nullopt);

  const std::vector<value_t> b = rhs_for(a.n, 0xdead);
  EXPECT_TRUE(
      values_identical(SparseLU::solve(got, b), SparseLU::solve(want, b)));
}

// ---------------------------------------------------------------------------
// Service routing: big jobs go to the device group.

/// Submits one big and one small job under `pipeline` and checks the
/// routing; returns the big (sharded) job's result.
service::JobResult expect_big_job_routed(const Options& pipeline) {
  service::FactorServiceOptions sopt;
  sopt.workers = 1;
  sopt.deterministic = true;
  sopt.pipeline = pipeline;
  sopt.sharding.enabled = true;
  sopt.sharding.devices = 2;
  sopt.sharding.min_n = 500;

  const Csr big = many_dense_blocks(80, 8, 21);   // n = 640 >= min_n
  const Csr small = many_dense_blocks(16, 8, 22);  // n = 128 < min_n
  const std::vector<value_t> b = rhs_for(big.n, 0xabc);

  service::FactorService svc(sopt);
  auto fut_big = svc.submit(big, b, "tenant-a");
  auto fut_small = svc.submit(small, std::nullopt, "tenant-a");
  service::JobResult rbig = fut_big.get();
  service::JobResult rsmall = fut_small.get();

  EXPECT_TRUE(rbig.sharded);
  EXPECT_FALSE(rbig.cache_hit);
  EXPECT_TRUE(rbig.report.sharded);
  EXPECT_GE(rbig.report.sharded_devices, 1);
  EXPECT_GT(rbig.launches, 0u);
  EXPECT_FALSE(rsmall.sharded);
  EXPECT_FALSE(rsmall.report.sharded);
  EXPECT_EQ(svc.stats().sharded_jobs, 1u);

  // Routing is a latency decision, never a numerics one: the sharded
  // job's factors, scales and solve match a plain single-device run bit
  // for bit.
  ThreadPool serial(1);
  Options ref = pipeline;
  ref.numeric_format = NumericFormat::SparseBinarySearch;
  ref.pool = &serial;
  const FactorResult want = SparseLU(ref).factorize(big);
  EXPECT_EQ(factors_mismatch(rbig.factors, want), std::nullopt);
  EXPECT_TRUE(rbig.x.has_value());
  if (rbig.x.has_value()) {
    EXPECT_TRUE(values_identical(*rbig.x, SparseLU::solve(want, b)));
  }
  return rbig;
}

TEST(Sharding, ServiceRoutesBigJobsToTheGroup) {
  Options pipeline;
  pipeline.device = test_spec();
  pipeline.mode = Mode::OutOfCoreGpuDynamic;
  pipeline.numeric_format = NumericFormat::SparseBinarySearch;
  pipeline.ordering = Ordering::None;
  pipeline.match_diagonal = false;
  {
    SCOPED_TRACE("identity permutations, Algorithm 4 symbolic");
    expect_big_job_routed(pipeline);
  }
  // The options the route must not drop: equilibration scales, a
  // fill-reducing ordering and the default symbolic driver.
  pipeline.preprocess.equilibrate = true;
  pipeline.ordering = Ordering::Rcm;
  pipeline.mode = Options{}.mode;
  {
    SCOPED_TRACE("equilibrate + RCM, default mode");
    const service::JobResult rbig = expect_big_job_routed(pipeline);
    EXPECT_GT(rbig.factors.preprocess_order.ops, 0u);
    EXPECT_GT(rbig.factors.preprocess_scale.ops, 0u);
  }
}

// ---------------------------------------------------------------------------
// Per-device state audit: every Device::launch-site arena that numeric
// execution keeps must be per-device/per-instance. Two pipelines on two
// simulated devices run concurrently; if any arena were shared global
// state, the runs would race (TSan) and corrupt each other's factors.

void run_concurrent_pipelines(const Options& base, const Csr& a1,
                              const Csr& a2) {
  ThreadPool golden_pool(1);
  Options gopt = base;
  gopt.pool = &golden_pool;
  const FactorResult want1 = SparseLU(gopt).factorize(a1);
  const FactorResult want2 = SparseLU(gopt).factorize(a2);

  std::atomic<int> ready{0};
  FactorResult got1, got2;
  std::string err1, err2;
  auto worker = [&](const Csr& a, FactorResult& out, std::string& err) {
    try {
      ThreadPool pool(1);
      Options opt = base;
      opt.pool = &pool;
      SparseLU lu(opt);
      ready.fetch_add(1);
      while (ready.load() < 2) std::this_thread::yield();
      out = lu.factorize(a);
    } catch (const std::exception& e) {
      err = e.what();
    }
  };
  std::thread t1(worker, std::cref(a1), std::ref(got1), std::ref(err1));
  std::thread t2(worker, std::cref(a2), std::ref(got2), std::ref(err2));
  t1.join();
  t2.join();
  ASSERT_EQ(err1, "");
  ASSERT_EQ(err2, "");
  EXPECT_EQ(factors_mismatch(got1, want1), std::nullopt);
  EXPECT_EQ(factors_mismatch(got2, want2), std::nullopt);
}

TEST(Sharding, FusionReadyFlagArenasArePerDevice) {
  ThreadPool serial(1);
  Options base = equiv_options(serial);
  base.pool = nullptr;
  base.numeric.fusion.enabled = true;  // narrow levels fuse; flags in play
  run_concurrent_pipelines(base, gen_blocked_planar(1200, 24, 3.5, 6, 31),
                           gen_circuit(1000, 4.0, 2, 16, 32));
}

TEST(Sharding, FactorWindowArenasArePerDevice) {
  ThreadPool serial(1);
  Options base = equiv_options(serial);
  base.pool = nullptr;
  base.numeric.window.enabled = true;  // scrolling arena in play
  base.numeric.window.budget_bytes = 1u << 20;
  run_concurrent_pipelines(base, gen_blocked_planar(1200, 24, 3.5, 6, 33),
                           gen_blocked_planar(900, 30, 4.0, 5, 34));
}

TEST(Sharding, RefactorizerDeviceBuffersArePerInstance) {
  ThreadPool serial(1);
  const Options base = equiv_options(serial);
  const Csr a1 = gen_blocked_planar(800, 20, 3.5, 5, 41);
  const Csr a2 = gen_circuit(700, 4.0, 2, 16, 42);

  refactor::Refactorizer r1(a1, base);
  const std::size_t f1 = r1.device_footprint_bytes();
  ASSERT_GT(f1, 0u);
  EXPECT_EQ(f1, r1.device().allocated_bytes());
  {
    // A second cache on its own device neither grows nor frees the
    // first's buffers — no shared device-buffer singletons.
    refactor::Refactorizer r2(a2, base);
    EXPECT_GT(r2.device_footprint_bytes(), 0u);
    EXPECT_EQ(r1.device_footprint_bytes(), f1);
  }
  EXPECT_EQ(r1.device_footprint_bytes(), f1);
  const refactor::RefactorReport rep = r1.refactorize(a1);
  EXPECT_FALSE(rep.fell_back);
}

}  // namespace
}  // namespace e2elu
