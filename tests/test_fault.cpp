// Fault injection and recovery (src/fault): the plan DSL, the hook
// discipline (zero overhead disarmed, deterministic armed), the per-phase
// recovery loops in SparseLU, and the OOM-at-every-allocation-site
// campaign — every injected run must either recover to the uninjected
// result or surface a structured FactorError; it must never crash, hang,
// or corrupt later runs.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <stdexcept>
#include <vector>

#include "core/sparse_lu.hpp"
#include "fault/fault.hpp"
#include "matrix/generators.hpp"
#include "sharding/sharded_factorizer.hpp"
#include "solve/service.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "trace/metrics.hpp"

namespace e2elu {
namespace {

Csr campaign_matrix() { return gen_circuit(300, 5.0, 2, 16, 0xfa17); }

// Pattern-only preprocessing (as in test_refactor): with match_diagonal
// off and a fixed ordering, every run of the same input produces the same
// permutations, so factor patterns can be compared exactly.
Options campaign_options() {
  Options opt;
  opt.device = gpusim::DeviceSpec::v100_with_memory(8u << 20);
  opt.match_diagonal = false;
  return opt;
}

std::vector<value_t> rhs(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = static_cast<value_t>(rng.next_double(-1.0, 1.0));
  return b;
}

// The factor values are not bit-reproducible across runs (the level
// kernels' atomic updates reassociate), so "recovered correctly" means:
// identical factor patterns, values equal to tight relative tolerance,
// and a solve residual at the clean run's level.
void expect_values_close(const std::vector<value_t>& a,
                         const std::vector<value_t>& b,
                         double rel_tol = 1e-9) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    const double scale = std::max({std::abs(a[k]), std::abs(b[k]), 1.0});
    ASSERT_NEAR(a[k], b[k], rel_tol * scale) << "position " << k;
  }
}

void expect_same_factors(const FactorResult& got, const FactorResult& want) {
  ASSERT_EQ(got.row_perm, want.row_perm);
  ASSERT_EQ(got.col_perm, want.col_perm);
  ASSERT_EQ(got.l.row_ptr, want.l.row_ptr);
  ASSERT_EQ(got.l.col_idx, want.l.col_idx);
  ASSERT_EQ(got.u.row_ptr, want.u.row_ptr);
  ASSERT_EQ(got.u.col_idx, want.u.col_idx);
  expect_values_close(got.l.values, want.l.values);
  expect_values_close(got.u.values, want.u.values);
}

TEST(FaultPlan, ParsesTheClauseDsl) {
  const fault::FaultPlan plan = fault::FaultPlan::parse(
      "seed=7; alloc=3, alloc=12; alloc_prob=0.25; "
      "launch=symbolic_1@2; launch=numeric_div; "
      "pivot_zero=17; pivot_nan=4; fault_cost=8.5");
  EXPECT_EQ(plan.seed, 7u);
  EXPECT_EQ(plan.fail_allocs, (std::vector<std::uint64_t>{3, 12}));
  EXPECT_DOUBLE_EQ(plan.alloc_probability, 0.25);
  ASSERT_EQ(plan.fail_launches.size(), 2u);
  EXPECT_EQ(plan.fail_launches[0].pattern, "symbolic_1");
  EXPECT_EQ(plan.fail_launches[0].nth, 2u);
  EXPECT_EQ(plan.fail_launches[1].pattern, "numeric_div");
  EXPECT_EQ(plan.fail_launches[1].nth, 1u);
  ASSERT_EQ(plan.pivots.size(), 2u);
  EXPECT_EQ(plan.pivots[0].column, 17);
  EXPECT_FALSE(plan.pivots[0].nan);
  EXPECT_EQ(plan.pivots[1].column, 4);
  EXPECT_TRUE(plan.pivots[1].nan);
  EXPECT_DOUBLE_EQ(plan.um_fault_cost, 8.5);
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(fault::FaultPlan{}.empty());
}

TEST(FaultPlan, RejectsMalformedClauses) {
  EXPECT_THROW(fault::FaultPlan::parse("bogus"), Error);
  EXPECT_THROW(fault::FaultPlan::parse("frob=3"), Error);
  EXPECT_THROW(fault::FaultPlan::parse("alloc=zero"), Error);
  EXPECT_THROW(fault::FaultPlan::parse("alloc=0"), Error);
  EXPECT_THROW(fault::FaultPlan::parse("alloc_prob=1.5"), Error);
  EXPECT_THROW(fault::FaultPlan::parse("launch=@2"), Error);
  EXPECT_THROW(fault::FaultPlan::parse("fault_cost=0"), Error);
}

TEST(FaultInjector, DisarmedHooksChangeNothing) {
  ASSERT_FALSE(fault::armed());
  const Csr a = campaign_matrix();
  const Options opt = campaign_options();
  const FactorResult r1 = SparseLU(opt).factorize(a);
  const FactorResult r2 = SparseLU(opt).factorize(a);
  // The event-count model is deterministic; with the hooks disarmed, two
  // identical runs must produce identical device counters (the "unchanged
  // launch/ops counts" acceptance criterion).
  EXPECT_EQ(r1.device_stats.host_launches, r2.device_stats.host_launches);
  EXPECT_EQ(r1.device_stats.device_launches, r2.device_stats.device_launches);
  EXPECT_EQ(r1.device_stats.kernel_ops, r2.device_stats.kernel_ops);
  EXPECT_EQ(r1.device_stats.h2d_bytes, r2.device_stats.h2d_bytes);
  EXPECT_EQ(r1.device_stats.d2h_bytes, r2.device_stats.d2h_bytes);
  EXPECT_EQ(r1.device_stats.page_faults, r2.device_stats.page_faults);
  EXPECT_EQ(r1.recovery_retries, 0);
  EXPECT_EQ(r2.recovery_retries, 0);
}

// The tentpole campaign: discover every device-allocation site of the
// pipeline in observe mode, then re-run the full pipeline with an
// injected OOM at each site in turn. Every run must either recover to the
// clean result or throw a structured FactorError — nothing else.
TEST(FaultCampaign, OomAtEveryAllocationSite) {
  const Csr a = campaign_matrix();
  const Options opt = campaign_options();
  const FactorResult reference = SparseLU(opt).factorize(a);
  const std::vector<value_t> b = rhs(a.n, 99);
  const std::vector<value_t> x_ref = SparseLU::solve(reference, b);
  const double ref_residual = SparseLU::residual(a, x_ref, b);

  std::uint64_t sites = 0;
  {
    // Observe mode: an empty plan counts sites without injecting.
    fault::ScopedPlan observe{fault::FaultPlan{}};
    SparseLU(opt).factorize(a);
    sites = fault::Injector::instance().alloc_sites();
  }
  ASSERT_GT(sites, 0u);

  std::uint64_t recovered = 0, structured = 0;
  for (std::uint64_t k = 1; k <= sites; ++k) {
    fault::ScopedPlan plan("alloc=" + std::to_string(k));
    try {
      const FactorResult res = SparseLU(opt).factorize(a);
      ASSERT_EQ(fault::Injector::instance().events().size(), 1u)
          << "site " << k;
      expect_same_factors(res, reference);
      const std::vector<value_t> x = SparseLU::solve(res, b);
      EXPECT_LE(SparseLU::residual(a, x, b), 10 * ref_residual + 1e-12)
          << "site " << k;
      ++recovered;
    } catch (const FactorError& e) {
      // Structured give-up is acceptable; anything else fails the test.
      EXPECT_EQ(e.kind(), FaultKind::DeviceOutOfMemory) << "site " << k;
      ++structured;
    }
  }
  EXPECT_EQ(recovered + structured, sites);
  // One-shot injections plus re-planning should recover nearly everywhere;
  // a campaign that only ever gives up would mean recovery is dead code.
  EXPECT_GT(recovered, 0u);
}

TEST(FaultCampaign, SameSeedAndPlanReplaysIdentically) {
  const Csr a = campaign_matrix();
  const Options opt = campaign_options();
  const std::string spec = "seed=42; alloc_prob=0.2";

  auto run = [&] {
    fault::ScopedPlan plan(spec);
    std::string outcome;
    try {
      SparseLU(opt).factorize(a);
      outcome = "ok";
    } catch (const FactorError& e) {
      outcome = std::string("error:") + fault_kind_name(e.kind()) + ":" +
                e.phase();
    }
    return std::make_pair(outcome, fault::Injector::instance().events());
  };

  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first.first, second.first);
  ASSERT_EQ(first.second.size(), second.second.size());
  for (std::size_t i = 0; i < first.second.size(); ++i) {
    EXPECT_EQ(first.second[i], second.second[i]) << "event " << i;
  }
}

TEST(FaultRecovery, SymbolicLaunchFailureReplansAndMatches) {
  const Csr a = campaign_matrix();
  const Options opt = campaign_options();
  const FactorResult reference = SparseLU(opt).factorize(a);

  fault::ScopedPlan plan("launch=symbolic_1@1");
  const FactorResult res = SparseLU(opt).factorize(a);
  EXPECT_GE(res.recovery_retries, 1);
  EXPECT_EQ(fault::Injector::instance().events().size(), 1u);
  expect_same_factors(res, reference);
}

TEST(FaultRecovery, NumericLaunchFailureRetriesAndMatches) {
  const Csr a = campaign_matrix();
  Options opt = campaign_options();
  opt.numeric_format = NumericFormat::SparseBinarySearch;
  const FactorResult reference = SparseLU(opt).factorize(a);

  fault::ScopedPlan plan("launch=numeric_@1");
  const FactorResult res = SparseLU(opt).factorize(a);
  EXPECT_GE(res.recovery_retries, 1);
  expect_same_factors(res, reference);
}

TEST(FaultRecovery, LevelizeLaunchFailureRetriesAndMatchesBitForBit) {
  // A lost sync-free levelization launch costs one straight retry; on one
  // worker the recovered factors are memcmp-equal to a clean run's.
  const Csr a = campaign_matrix();
  ThreadPool pool(1);
  Options opt = campaign_options();
  opt.pool = &pool;
  const FactorResult reference = SparseLU(opt).factorize(a);

  auto& retries = trace::MetricsRegistry::global().counter(
      "recovery.launch_retry");
  const std::uint64_t retries_before = retries.value();
  fault::ScopedPlan plan("launch=levelize@1");
  const FactorResult res = SparseLU(opt).factorize(a);
  EXPECT_EQ(fault::Injector::instance().events().size(), 1u);
  EXPECT_EQ(res.recovery_retries, 1);
  EXPECT_EQ(retries.value() - retries_before, 1u);
  EXPECT_EQ(res.num_levels, reference.num_levels);
  expect_same_factors(res, reference);
  const auto same_bits = [](const std::vector<value_t>& x,
                            const std::vector<value_t>& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(value_t)) == 0;
  };
  EXPECT_TRUE(same_bits(res.l.values, reference.l.values));
  EXPECT_TRUE(same_bits(res.u.values, reference.u.values));
}

TEST(FaultRecovery, TransientZeroPivotRetriesCleanly) {
  const Csr a = campaign_matrix();
  const Options opt = campaign_options();
  const FactorResult reference = SparseLU(opt).factorize(a);

  // One-shot corruption: the retry reads the true value, so the result
  // must match the clean run with no perturbation.
  fault::ScopedPlan plan("pivot_zero=7");
  const FactorResult res = SparseLU(opt).factorize(a);
  EXPECT_GE(res.recovery_retries, 1);
  EXPECT_EQ(res.pivot_perturbations, 0);
  expect_same_factors(res, reference);
}

TEST(FaultRecovery, PersistentZeroPivotGetsPerturbed) {
  const Csr a = campaign_matrix();
  const Options opt = campaign_options();

  // Two one-shot clauses on the same column: the first retry fails at the
  // same place, which the policy reads as a genuine zero pivot and bumps
  // the diagonal before the third attempt.
  fault::ScopedPlan plan("pivot_zero=7; pivot_zero=7");
  const FactorResult res = SparseLU(opt).factorize(a);
  EXPECT_EQ(res.pivot_perturbations, 1);
  EXPECT_GE(res.recovery_retries, 2);
  // The perturbed factorization is of a slightly different matrix; the
  // solve must still go through (U's diagonal is nonsingular).
  const std::vector<value_t> b = rhs(a.n, 5);
  EXPECT_NO_THROW(SparseLU::solve(res, b));
}

TEST(FaultRecovery, NanPivotIsDetectedAndRecovered) {
  const Csr a = campaign_matrix();
  const Options opt = campaign_options();
  const FactorResult reference = SparseLU(opt).factorize(a);

  fault::ScopedPlan plan("pivot_nan=11");
  const FactorResult res = SparseLU(opt).factorize(a);
  EXPECT_GE(res.recovery_retries, 1);
  expect_same_factors(res, reference);
}

TEST(FaultRecovery, DisabledRecoveryThrowsStructuredError) {
  const Csr a = campaign_matrix();
  Options opt = campaign_options();
  opt.recovery.enabled = false;

  fault::ScopedPlan plan("pivot_zero=7");
  try {
    SparseLU(opt).factorize(a);
    FAIL() << "expected FactorError";
  } catch (const FactorError& e) {
    EXPECT_EQ(e.kind(), FaultKind::ZeroPivot);
    EXPECT_EQ(e.phase(), "numeric");
    EXPECT_EQ(e.column(), 7);
  }
}

TEST(FaultRecovery, DenseWindowShortfallFallsBackToSparse) {
  // A device just big enough for the sparse format's mirrors cannot also
  // hold two dense window columns. The dense executor's refusal must be a
  // device OOM, so the numeric recovery falls back to the sparse format.
  const Csr a = gen_banded(400, 64, 40.0, 7);
  ThreadPool serial(1);
  auto options = [&](std::size_t bytes, NumericFormat format) {
    Options opt;
    opt.device = gpusim::DeviceSpec::v100_with_memory(bytes);
    opt.numeric_format = format;
    opt.pool = &serial;
    return opt;
  };
  auto sparse_fits = [&](std::size_t bytes) {
    Options opt = options(bytes, NumericFormat::SparseBinarySearch);
    opt.recovery.enabled = false;
    try {
      SparseLU(opt).factorize(a);
      return true;
    } catch (const FactorError&) {
      return false;
    }
  };
  // Smallest device on which the sparse format factors cleanly.
  std::size_t lo = 1u << 10, hi = 64u << 20;
  ASSERT_FALSE(sparse_fits(lo));
  ASSERT_TRUE(sparse_fits(hi));
  while (hi - lo > 1) {
    const std::size_t mid = lo + (hi - lo) / 2;
    (sparse_fits(mid) ? hi : lo) = mid;
  }
  ASSERT_FALSE(numeric::should_use_sparse_format(
      options(hi, NumericFormat::Auto).device, a.n));

  const FactorResult sparse =
      SparseLU(options(hi, NumericFormat::SparseBinarySearch)).factorize(a);
  auto& fallbacks = trace::MetricsRegistry::global().counter(
      "recovery.numeric.format_fallback");
  const std::uint64_t fallbacks_before = fallbacks.value();
  const FactorResult res =
      SparseLU(options(hi, NumericFormat::Auto)).factorize(a);
  EXPECT_TRUE(res.used_sparse_numeric);
  EXPECT_EQ(res.recovery_retries, 1);
  EXPECT_EQ(fallbacks.value() - fallbacks_before, 1u);
  EXPECT_EQ(res.row_perm, sparse.row_perm);
  EXPECT_EQ(res.col_perm, sparse.col_perm);
  EXPECT_EQ(res.l.values, sparse.l.values);
  EXPECT_EQ(res.u.values, sparse.u.values);

  Options strict = options(hi, NumericFormat::Auto);
  strict.recovery.enabled = false;
  try {
    SparseLU(strict).factorize(a);
    FAIL() << "expected FactorError";
  } catch (const FactorError& e) {
    EXPECT_EQ(e.kind(), FaultKind::DeviceOutOfMemory);
    EXPECT_EQ(e.phase(), "numeric");
  }
}

TEST(FaultInjector, UmFaultCostInflatesSimulatedFaultTime) {
  const Csr a = campaign_matrix();
  Options opt = campaign_options();
  opt.mode = Mode::UnifiedMemoryGpuNoPrefetch;
  const FactorResult clean = SparseLU(opt).factorize(a);
  ASSERT_GT(clean.device_stats.page_fault_groups, 0u);

  fault::ScopedPlan plan("fault_cost=4");
  const FactorResult slow = SparseLU(opt).factorize(a);
  // Group counts drift by a few across runs (fault coalescing depends on
  // thread timing), so assert the per-group cost instead: every group
  // serviced while armed must have been charged 4x the spec cost.
  ASSERT_GT(slow.device_stats.page_fault_groups, 0u);
  EXPECT_NEAR(slow.device_stats.sim_fault_us,
              4.0 * opt.device.fault_group_us *
                  static_cast<double>(slow.device_stats.page_fault_groups),
              1e-9 * slow.device_stats.sim_fault_us);
  EXPECT_NEAR(clean.device_stats.sim_fault_us,
              opt.device.fault_group_us *
                  static_cast<double>(clean.device_stats.page_fault_groups),
              1e-9 * clean.device_stats.sim_fault_us);
  // Only the modeled time inflates; the factorization itself is exact.
  expect_same_factors(slow, clean);
}

TEST(FaultService, BatchFailureFansOutAndServiceSurvives) {
  const Csr a = campaign_matrix();
  const Options opt = campaign_options();
  const FactorResult f = SparseLU(opt).factorize(a);

  gpusim::Device dev(opt.device);
  solve::SolverService service(dev, f);
  const std::vector<value_t> b = rhs(a.n, 123);

  {
    fault::ScopedPlan plan("launch=lower_solve@1");
    auto fut = service.submit(b);
    try {
      fut.get();
      FAIL() << "expected the injected launch failure";
    } catch (const FactorError& e) {
      EXPECT_EQ(e.kind(), FaultKind::LaunchFailed);
      EXPECT_EQ(e.phase(), "solve");
    }
    service.drain();
  }

  // The service must keep serving after a failed batch.
  auto fut = service.submit(b);
  const std::vector<value_t> x = fut.get();
  EXPECT_LE(SparseLU::residual(a, x, b), 1e-8);
  EXPECT_GE(service.stats().batch_failures, 1u);
}

// ---------------------------------------------------------------------------
// Sharded-path campaign: the PR4 recovery discipline applied to a device
// group. A member that faults (OOM on its shard upload, launch failure on
// its level kernels) must be dropped and the shards re-packed onto the
// survivors; losing every member must surface a structured FactorError —
// never a hang, never corrupted factors.

Csr sharded_campaign_matrix() {
  return gen_blocked_planar(600, 24, 3.5, 5, 0x5a4d);
}

/// Identity permutations + a serial pool: the sharded run and the
/// single-device SparseLU reference are then bit-comparable, so "recovered
/// correctly" can be checked against the strongest oracle there is.
Options sharded_campaign_options(ThreadPool& pool) {
  Options opt;
  opt.device = gpusim::DeviceSpec::v100_with_memory(64u << 20);
  opt.mode = Mode::OutOfCoreGpuDynamic;
  opt.numeric_format = NumericFormat::SparseBinarySearch;
  opt.ordering = Ordering::None;
  opt.match_diagonal = false;
  opt.pool = &pool;
  return opt;
}

sharding::ShardingOptions sharded_campaign_group() {
  sharding::ShardingOptions sopt;
  sopt.num_devices = 4;
  // The campaign targets the multi-device path itself, not the degrade
  // escape hatch.
  sopt.allow_degrade = false;
  return sopt;
}

TEST(FaultSharded, LaunchFailureDropsTheMemberAndRepacks) {
  const Csr a = sharded_campaign_matrix();
  ThreadPool serial(1);
  const Options opt = sharded_campaign_options(serial);
  const FactorResult reference = SparseLU(opt).factorize(a);

  sharding::ShardedFactorizer sharded(opt, sharded_campaign_group());
  sharding::ShardReport rep;
  FactorResult res;
  {
    fault::ScopedPlan plan("launch=shard_numeric_dev1@1");
    res = sharded.factorize(a, rep);
    EXPECT_EQ(fault::Injector::instance().events().size(), 1u);
  }
  EXPECT_GE(res.recovery_retries, 1);
  EXPECT_EQ(rep.repacks, 1);
  ASSERT_EQ(rep.failed_devices.size(), 1u);
  EXPECT_EQ(rep.failed_devices[0], 1);
  EXPECT_EQ(rep.devices_used, 3);
  expect_same_factors(res, reference);
  EXPECT_EQ(std::memcmp(res.l.values.data(), reference.l.values.data(),
                        res.l.values.size() * sizeof(value_t)),
            0);
}

TEST(FaultSharded, OomOnShardUploadRepacksOntoSurvivors) {
  const Csr a = sharded_campaign_matrix();
  ThreadPool serial(1);
  const Options opt = sharded_campaign_options(serial);
  const FactorResult reference = SparseLU(opt).factorize(a);

  // Observe mode: count the clean run's allocation sites. The per-member
  // shard residency allocations are the numeric phase's only allocations,
  // so the last `num_devices` sites are exactly the shard uploads.
  std::uint64_t sites = 0;
  {
    fault::ScopedPlan observe{fault::FaultPlan{}};
    sharding::ShardedFactorizer clean(opt, sharded_campaign_group());
    clean.factorize(a);
    sites = fault::Injector::instance().alloc_sites();
  }
  ASSERT_GT(sites, 4u);
  const std::uint64_t second_member_upload = sites - 4 + 2;

  sharding::ShardedFactorizer sharded(opt, sharded_campaign_group());
  sharding::ShardReport rep;
  FactorResult res;
  {
    fault::ScopedPlan plan("alloc=" + std::to_string(second_member_upload));
    res = sharded.factorize(a, rep);
    EXPECT_EQ(fault::Injector::instance().events().size(), 1u);
  }
  EXPECT_EQ(rep.repacks, 1);
  ASSERT_EQ(rep.failed_devices.size(), 1u);
  EXPECT_EQ(rep.failed_devices[0], 1);
  EXPECT_EQ(rep.devices_used, 3);
  expect_same_factors(res, reference);
}

TEST(FaultSharded, LosingEveryMemberIsAStructuredError) {
  const Csr a = sharded_campaign_matrix();
  ThreadPool serial(1);
  const Options opt = sharded_campaign_options(serial);

  // One clause per member: each repack's first kernel on the next
  // surviving member fails too, until nobody is left. The run must end in
  // a structured give-up (no hang, no raw device exception).
  fault::ScopedPlan plan(
      "launch=shard_numeric_dev0@1; launch=shard_numeric_dev1@1; "
      "launch=shard_numeric_dev2@1; launch=shard_numeric_dev3@1");
  sharding::ShardedFactorizer sharded(opt, sharded_campaign_group());
  sharding::ShardReport rep;
  try {
    sharded.factorize(a, rep);
    FAIL() << "expected FactorError";
  } catch (const FactorError& e) {
    EXPECT_EQ(e.kind(), FaultKind::LaunchFailed);
    EXPECT_EQ(e.phase(), "numeric");
  }
  EXPECT_EQ(rep.failed_devices.size(), 4u);
  EXPECT_EQ(rep.repacks, 3);  // the fourth loss has nobody left to re-pack
}

TEST(FaultSharded, PersistentZeroPivotGetsPerturbedOnTheShardedPath) {
  const Csr a = sharded_campaign_matrix();
  ThreadPool serial(1);
  const Options opt = sharded_campaign_options(serial);

  // Same policy as SparseLU: the same column failing twice reads as a
  // genuine zero pivot and gets its diagonal bumped.
  fault::ScopedPlan plan("pivot_zero=7; pivot_zero=7");
  sharding::ShardedFactorizer sharded(opt, sharded_campaign_group());
  const FactorResult res = sharded.factorize(a);
  EXPECT_EQ(res.pivot_perturbations, 1);
  EXPECT_GE(res.recovery_retries, 2);
  const std::vector<value_t> b = rhs(a.n, 5);
  EXPECT_NO_THROW(SparseLU::solve(res, b));
}

TEST(ThreadPoolFaults, BodyExceptionsSurfaceOnTheSubmittingThread) {
  ThreadPool pool(4);
  // A throw from a worker-executed chunk must neither terminate nor
  // deadlock the barrier — it reappears on the submitting thread.
  for (int round = 0; round < 3; ++round) {
    EXPECT_THROW(pool.parallel_for(10000,
                                   [](std::size_t i) {
                                     if (i == 5371) {
                                       throw std::runtime_error("boom");
                                     }
                                   }),
                 std::runtime_error);
    // The pool stays fully usable after the failure.
    std::atomic<std::size_t> hits{0};
    pool.parallel_for(1000, [&](std::size_t) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(hits.load(), 1000u);
  }
}

}  // namespace
}  // namespace e2elu
