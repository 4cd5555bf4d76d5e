// Symbolic factorization: fill2 against the elimination oracle,
// agreement of every driver with the sequential reference, and the exact
// device charges of every device driver.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>

#include "charge_pins.hpp"
#include "gpusim/device.hpp"
#include "matrix/generators.hpp"
#include "matrix/suite.hpp"
#include "support/thread_pool.hpp"
#include "symbolic/fill2.hpp"
#include "symbolic/symbolic.hpp"

namespace e2elu::symbolic {
namespace {

// (generator kind, n-ish size, seed)
struct Case {
  const char* name;
  Csr matrix;
};

Csr make_case(int kind, index_t scale, std::uint64_t seed) {
  switch (kind) {
    case 0:
      return gen_grid2d(scale, scale);
    case 1:
      return gen_banded(scale * scale, 8, 5.0, seed);
    case 2:
      return gen_circuit(scale * scale, 4.0, 3, scale, seed);
    default:
      return gen_near_planar(scale * scale, 3.5, 6, seed);
  }
}

class SymbolicOracleTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(SymbolicOracleTest, Fill2MatchesEliminationOracle) {
  const auto [kind, scale, seed] = GetParam();
  const Csr a = make_case(kind, scale, 1000 + seed);
  const Csr oracle = symbolic_elimination_oracle(a);
  const SymbolicResult ref = symbolic_reference(a);
  ASSERT_TRUE(same_pattern(oracle, ref.filled))
      << "kind=" << kind << " scale=" << scale << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SymbolicOracleTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(5, 9, 14),
                       ::testing::Values(0, 1, 2)));

TEST(SymbolicReference, FillPatternIsSupersetOfInput) {
  const Csr a = gen_circuit(300, 4.0, 4, 30, 7);
  const SymbolicResult ref = symbolic_reference(a);
  for (index_t i = 0; i < a.n; ++i) {
    for (index_t j : a.row_cols(i)) {
      EXPECT_TRUE(has_entry(ref.filled, i, j))
          << "(" << i << "," << j << ") lost";
    }
  }
  EXPECT_GE(ref.filled.nnz(), a.nnz());
}

TEST(SymbolicReference, CountsMatchRowLengths) {
  const Csr a = gen_banded(400, 10, 6.0, 11);
  const SymbolicResult ref = symbolic_reference(a);
  for (index_t i = 0; i < a.n; ++i) {
    EXPECT_EQ(ref.fill_count[i],
              ref.filled.row_ptr[i + 1] - ref.filled.row_ptr[i]);
  }
}

class DriverAgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(DriverAgreementTest, AllDriversProduceTheReferencePattern) {
  const Csr a = make_case(GetParam(), 12, 42);
  const SymbolicResult ref = symbolic_reference(a);

  const SymbolicResult cpu = symbolic_cpu(a);
  EXPECT_TRUE(same_pattern(ref.filled, cpu.filled)) << "cpu";

  // Device deliberately too small for the full scratch -> forces chunking.
  // It must still hold the matrix, the counts, and the filled output, plus
  // about n/5 rows of scratch.
  const std::size_t resident_bytes =
      a.row_ptr.size() * sizeof(offset_t) +
      a.col_idx.size() * sizeof(index_t) +
      static_cast<std::size_t>(a.n) * sizeof(index_t) +
      static_cast<std::size_t>(ref.filled.nnz()) * sizeof(index_t);
  gpusim::Device dev(gpusim::DeviceSpec::v100_with_memory(
      resident_bytes +
      scratch_bytes_per_row(a.n) * std::max<std::size_t>(2, a.n / 5)));

  const SymbolicResult ooc = symbolic_out_of_core(dev, a);
  EXPECT_TRUE(same_pattern(ref.filled, ooc.filled)) << "out-of-core";
  EXPECT_GT(ooc.num_chunks, 1) << "test should actually chunk";

  const SymbolicResult dyn = symbolic_out_of_core_dynamic(dev, a);
  EXPECT_TRUE(same_pattern(ref.filled, dyn.filled)) << "dynamic";

  const SymbolicResult um = symbolic_unified_memory(dev, a, true);
  EXPECT_TRUE(same_pattern(ref.filled, um.filled)) << "um+prefetch";

  const SymbolicResult um_np = symbolic_unified_memory(dev, a, false);
  EXPECT_TRUE(same_pattern(ref.filled, um_np.filled)) << "um";
}

INSTANTIATE_TEST_SUITE_P(Kinds, DriverAgreementTest,
                         ::testing::Values(0, 1, 2, 3));

TEST(UnifiedMemorySymbolic, PrefetchReducesFaultGroups) {
  const Csr a = gen_circuit(900, 4.0, 3, 40, 5);
  gpusim::Device dev_np(gpusim::DeviceSpec::v100_with_memory(8u << 20));
  symbolic_unified_memory(dev_np, a, false);
  gpusim::Device dev_p(gpusim::DeviceSpec::v100_with_memory(8u << 20));
  symbolic_unified_memory(dev_p, a, true);
  EXPECT_LT(dev_p.stats().page_fault_groups, dev_np.stats().page_fault_groups);
  EXPECT_GT(dev_np.stats().page_fault_groups, 0u);
}

TEST(OutOfCoreSymbolic, TransfersAreTinyComparedToUnifiedMemoryFaults) {
  const Csr a = gen_circuit(900, 4.0, 3, 40, 5);
  gpusim::Device dev_ooc(gpusim::DeviceSpec::v100_with_memory(8u << 20));
  symbolic_out_of_core(dev_ooc, a);
  EXPECT_EQ(dev_ooc.stats().page_faults, 0u);
  gpusim::Device dev_um(gpusim::DeviceSpec::v100_with_memory(8u << 20));
  symbolic_unified_memory(dev_um, a, false);
  EXPECT_GT(dev_um.stats().sim_fault_us, dev_ooc.stats().sim_transfer_us);
}

TEST(FrontierProfile, PeaksLaterForHubCircuits) {
  // Figure 3's shape: with hubs at low indices, high rows reach many
  // intermediates, so the peak frontier grows toward the end.
  const Csr a = gen_circuit(1200, 4.0, 4, 60, 9);
  const std::vector<index_t> prof = frontier_profile(a);
  // Average frontier over the last quarter should exceed the first quarter.
  double head = 0, tail = 0;
  const index_t q = a.n / 4;
  for (index_t i = 0; i < q; ++i) head += prof[i];
  for (index_t i = a.n - q; i < a.n; ++i) tail += prof[i];
  EXPECT_GT(tail, head);
}

}  // namespace
}  // namespace e2elu::symbolic

namespace e2elu::symbolic {
namespace {

class RowMergeCrossCheck
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RowMergeCrossCheck, RowMergeEqualsFill2) {
  const auto [kind, scale] = GetParam();
  const Csr a = make_case(kind, scale, 77);
  const SymbolicResult ref = symbolic_reference(a);
  const Csr merged = symbolic_rowmerge(a);
  EXPECT_TRUE(same_pattern(ref.filled, merged));
  // The stage-1 count alone, chunked a few rows at a time.
  gpusim::Device dev(gpusim::DeviceSpec::v100_with_memory(
      static_cast<std::size_t>(a.nnz()) * 8 +
      static_cast<std::size_t>(a.n) * 16 + scratch_bytes_per_row(a.n) * 5));
  EXPECT_EQ(count_fill_out_of_core(dev, a, "symbolic_1"), ref.filled.nnz());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RowMergeCrossCheck,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(6, 11, 16)));

class Stage1HandoffTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(Stage1HandoffTest, HandedCountsReproduceTheCountedRun) {
  // Counts from the stage-1 pass alone, handed back to every out-of-core
  // driver on a device small enough to chunk: same filled pattern and
  // per-row counts as a run that counts for itself, and no symbolic_1.
  const auto [kind, scale] = GetParam();
  const Csr a = make_case(kind, scale, 77);
  std::vector<index_t> counts;
  gpusim::Device gate(gpusim::DeviceSpec::v100_with_memory(64u << 20));
  const offset_t fill =
      count_fill_out_of_core(gate, a, "ord.fillgate", &counts);
  ASSERT_EQ(counts.size(), static_cast<std::size_t>(a.n));
  EXPECT_EQ(gate.stats().d2h_bytes, counts.size() * sizeof(index_t));

  const std::size_t resident =
      a.row_ptr.size() * sizeof(offset_t) +
      a.col_idx.size() * sizeof(index_t) +
      static_cast<std::size_t>(a.n) * sizeof(index_t) +
      static_cast<std::size_t>(fill) * sizeof(index_t);
  const auto small_device = [&] {
    return gpusim::Device(gpusim::DeviceSpec::v100_with_memory(
        resident +
        scratch_bytes_per_row(a.n) * std::max<std::size_t>(2, a.n / 5)));
  };
  for (const index_t parts : {1, 2, 3}) {
    gpusim::Device d_counted = small_device();
    gpusim::Device d_handed = small_device();
    const SymbolicResult counted =
        symbolic_out_of_core_multipart(d_counted, a, parts);
    const SymbolicResult handed =
        symbolic_out_of_core_multipart(d_handed, a, parts, {}, counts);
    EXPECT_EQ(handed.filled.row_ptr, counted.filled.row_ptr) << parts;
    EXPECT_EQ(handed.filled.col_idx, counted.filled.col_idx) << parts;
    EXPECT_EQ(handed.fill_count, counted.fill_count) << parts;
    EXPECT_EQ(handed.filled.nnz(), fill) << parts;
    EXPECT_GT(handed.num_chunks, 0) << parts;
    EXPECT_LT(d_handed.stats().host_launches, d_counted.stats().host_launches)
        << parts;
  }
  gpusim::Device d_dyn = small_device();
  const SymbolicResult dyn =
      symbolic_out_of_core_dynamic(d_dyn, a, {}, counts);
  EXPECT_EQ(dyn.fill_count, counts);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, Stage1HandoffTest,
    ::testing::Combine(::testing::Values(0, 1, 2, 3),
                       ::testing::Values(6, 11, 16)));

TEST(Stage1Counts, WrongCountsAreRejectedByACheck) {
  const Csr a = make_case(2, 8, 3);
  gpusim::Device dev(gpusim::DeviceSpec::v100_with_memory(64u << 20));
  const auto n = static_cast<std::size_t>(a.n);
  for (const std::size_t len : {n - 1, n + 1}) {
    const std::vector<index_t> counts(len, 1);
    EXPECT_THROW(symbolic_out_of_core(dev, a, {}, counts), Error) << len;
    EXPECT_THROW(symbolic_out_of_core_dynamic(dev, a, {}, counts), Error)
        << len;
    EXPECT_THROW(symbolic_out_of_core_multipart(dev, a, 3, {}, counts), Error)
        << len;
  }
  // Right length, wrong values: stage 2 stays inside each row's segment
  // and reports the divergence.
  const std::vector<index_t> too_few(n, 1);
  EXPECT_THROW(symbolic_out_of_core(dev, a, {}, too_few), Error);
}

class MultipartTest : public ::testing::TestWithParam<int> {};

TEST_P(MultipartTest, AnyPartCountProducesTheReferencePattern) {
  const Csr a = make_case(2, 14, 5);  // circuit: growing frontier profile
  const SymbolicResult ref = symbolic_reference(a);
  gpusim::Device dev(gpusim::DeviceSpec::v100_with_memory(
      static_cast<std::size_t>(a.nnz()) * 64 +
      scratch_bytes_per_row(a.n) * 48));
  const SymbolicResult multi =
      symbolic_out_of_core_multipart(dev, a, GetParam());
  EXPECT_TRUE(same_pattern(ref.filled, multi.filled))
      << "parts=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Parts, MultipartTest, ::testing::Values(1, 2, 3, 5));

TEST(Multipart, RejectsZeroParts) {
  const Csr a = make_case(0, 5, 1);
  gpusim::Device dev(gpusim::DeviceSpec::v100_with_memory(64u << 20));
  EXPECT_THROW(symbolic_out_of_core_multipart(dev, a, 0), Error);
}

// ------------------------------------------------------- charge pins --
// Every device driver's exact charges on one Table 2 stand-in and on a
// circuit whose device forces chunking, against values the drivers
// produced before their stage skeleton was shared. A refactor of the
// drivers must move no launch, op, byte, page fault or simulated time.
// One worker: unified-memory fault counts depend on block order.

struct SymbolicPin {
  pins::ChargePin device;
  pins::PagingPin paging;
  std::uint64_t ops;
  index_t chunk_rows;
  index_t num_chunks;
};

using DriverRun = std::function<SymbolicResult(gpusim::Device&, const Csr&)>;

const std::vector<std::pair<const char*, DriverRun>>& pinned_drivers() {
  static const std::vector<std::pair<const char*, DriverRun>> drivers = {
      {"out_of_core",
       [](gpusim::Device& d, const Csr& a) {
         return symbolic_out_of_core(d, a);
       }},
      {"dynamic",
       [](gpusim::Device& d, const Csr& a) {
         return symbolic_out_of_core_dynamic(d, a);
       }},
      {"multipart4",
       [](gpusim::Device& d, const Csr& a) {
         return symbolic_out_of_core_multipart(d, a, 4);
       }},
      {"um_prefetch",
       [](gpusim::Device& d, const Csr& a) {
         return symbolic_unified_memory(d, a, true);
       }},
      {"um_demand",
       [](gpusim::Device& d, const Csr& a) {
         return symbolic_unified_memory(d, a, false);
       }},
      // The fill gate's count, then its handoff, on one device.
      {"count_then_out_of_core",
       [](gpusim::Device& d, const Csr& a) {
         std::vector<index_t> counts;
         count_fill_out_of_core(d, a, "ord.fillgate", &counts);
         return symbolic_out_of_core(d, a, {}, counts);
       }},
      {"count_then_dynamic",
       [](gpusim::Device& d, const Csr& a) {
         std::vector<index_t> counts;
         count_fill_out_of_core(d, a, "ord.fillgate", &counts);
         return symbolic_out_of_core_dynamic(d, a, {}, counts);
       }},
  };
  return drivers;
}

void expect_pinned(const Csr& a, const gpusim::DeviceSpec& spec,
                   const std::vector<SymbolicPin>& want) {
  const auto& drivers = pinned_drivers();
  ASSERT_EQ(want.size(), drivers.size());
  const SymbolicResult ref = symbolic_reference(a);
  ThreadPool pool(1);
  for (std::size_t k = 0; k < drivers.size(); ++k) {
    SCOPED_TRACE(drivers[k].first);
    gpusim::Device dev(spec);
    dev.use_pool(pool);
    const SymbolicResult res = drivers[k].second(dev, a);
    EXPECT_TRUE(same_pattern(ref.filled, res.filled));
    const gpusim::DeviceStats& s = dev.stats();
    pins::expect_charges(s, want[k].device);
    pins::expect_paging(s, want[k].paging);
    EXPECT_EQ(res.ops, want[k].ops);
    EXPECT_EQ(res.chunk_rows, want[k].chunk_rows);
    EXPECT_EQ(res.num_chunks, want[k].num_chunks);
  }
}

TEST(SymbolicCharges, TableTwoStandInIsPinned) {
  // MI (mixtank_new) at divisor 64 on its Table 2 regime device.
  const auto suite = table2_suite(64);
  const auto mi =
      std::find_if(suite.begin(), suite.end(),
                   [](const SuiteEntry& e) { return e.abbr == "MI"; });
  ASSERT_NE(mi, suite.end());
  const Csr& a = mi->matrix;
  const gpusim::DeviceSpec spec = gpusim::DeviceSpec::v100_with_memory(
      device_memory_for(a, symbolic_reference(a).filled.nnz()));
  expect_pinned(
      a, spec,
      {
          {{5, 0, 11684844, 0, 99168, 0, 0, 78.617223011363635,
            78.617223011363635},
           {0, 0}, 11684844, 424, 2},
          {{6, 0, 12261975, 0, 99168, 0, 0, 75.331341455419576,
            75.33134145541959},
           {0, 0}, 11684844, 143, 2},
          {{10, 0, 12261975, 0, 99168, 0, 0, 99.275331671099295,
            99.275331671099309},
           {0, 0}, 11684844, 47, 4},
          {{3, 0, 11712924, 0, 99168, 0, 436, 13998.982425, 13998.982425},
           {436, 3530752}, 11712924, 468, 1},
          {{3, 0, 11712924, 0, 99168, 0, 1298, 28136.982424999998,
            28136.982424999998},
           {936, 0}, 11712924, 468, 1},
          {{5, 0, 11684844, 0, 200208, 1872, 0, 87.193223011363642,
            87.193223011363628},
           {0, 0}, 6058335, 384, 2},
          {{6, 0, 12261975, 0, 200208, 1872, 0, 92.040295891608395,
            92.040295891608395},
           {0, 0}, 6058335, 143, 2},
      });
}

TEST(SymbolicCharges, ChunkedCircuitIsPinned) {
  // The driver-agreement device: the matrix, the counts and the filled
  // pattern, plus about n/5 rows of scratch.
  const Csr a = make_case(2, 24, 42);
  const offset_t fill = symbolic_reference(a).filled.nnz();
  const std::size_t resident_bytes =
      a.row_ptr.size() * sizeof(offset_t) +
      a.col_idx.size() * sizeof(index_t) +
      static_cast<std::size_t>(a.n) * sizeof(index_t) +
      static_cast<std::size_t>(fill) * sizeof(index_t);
  const gpusim::DeviceSpec spec = gpusim::DeviceSpec::v100_with_memory(
      resident_bytes +
      scratch_bytes_per_row(a.n) * std::max<std::size_t>(2, a.n / 5));
  expect_pinned(
      a, spec,
      {
          {{12, 0, 1679481, 0, 13452, 0, 0, 263.30163278056,
            263.30163278056006},
           {0, 0}, 1679481, 139, 5},
          {{11, 0, 1735810, 0, 13452, 0, 0, 260.77516542571158,
            260.77516542571158},
           {0, 0}, 1679481, 280, 4},
          {{13, 0, 1735810, 0, 13452, 0, 0, 270.54150718369448,
            270.54150718369448},
           {0, 0}, 1679481, 105, 5},
          {{3, 0, 1722105, 0, 13452, 0, 662, 21154.884006105902,
            21154.884006105898},
           {662, 5341184}, 1722105, 576, 1},
          {{3, 0, 1722105, 0, 13452, 0, 1960, 38962.884006105902,
            38962.884006105895},
           {1294, 0}, 1722105, 576, 1},
          {{12, 0, 1679481, 0, 29208, 2304, 0, 264.80663278055999,
            264.80663278056005},
           {0, 0}, 1000026, 115, 6},
          {{12, 0, 1735810, 0, 29208, 2304, 0, 277.55909490776349,
            277.55909490776349},
           {0, 0}, 1000026, 231, 5},
      });
}

}  // namespace
}  // namespace e2elu::symbolic
