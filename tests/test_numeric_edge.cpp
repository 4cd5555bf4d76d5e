// Numeric executor edge cases: tiny systems, already-triangular inputs,
// the dense window's huge-column streaming path, and API misuse.

#include <gtest/gtest.h>

#include "charge_pins.hpp"
#include "core/sparse_lu.hpp"
#include "gpusim/device.hpp"
#include "matrix/convert.hpp"
#include "matrix/generators.hpp"
#include "numeric/numeric.hpp"
#include "scheduling/levelize.hpp"
#include "symbolic/symbolic.hpp"

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

TEST(NumericEdge, OneByOne) {
  Coo coo;
  coo.n = 1;
  coo.add(0, 0, 4.0);
  Prepared p = prepare(coo_to_csr(coo));
  factorize_reference(p.fm, p.schedule);
  Csr l, u;
  extract_lu(p.fm, l, u);
  EXPECT_DOUBLE_EQ(l.values[0], 1.0);
  EXPECT_DOUBLE_EQ(u.values[0], 4.0);
}

TEST(NumericEdge, AlreadyUpperTriangularIsUntouched) {
  Coo coo;
  coo.n = 30;
  for (index_t i = 0; i < 30; ++i) {
    coo.add(i, i, 2.0);
    if (i + 2 < 30) coo.add(i, i + 2, 1.0);
  }
  Csr a = coo_to_csr(coo);
  Prepared p = prepare(a);
  factorize_reference(p.fm, p.schedule);
  Csr l, u;
  extract_lu(p.fm, l, u);
  EXPECT_EQ(u.nnz(), a.nnz());          // U == A
  EXPECT_EQ(l.nnz(), 30);               // L == I
  for (std::size_t k = 0; k < u.values.size(); ++k) {
    EXPECT_NE(u.values[k], 0.0);
  }
}

TEST(NumericEdge, LowerTriangularMakesUnitUDiagonalOfA) {
  Coo coo;
  coo.n = 20;
  for (index_t i = 0; i < 20; ++i) {
    coo.add(i, i, 3.0);
    if (i > 0) coo.add(i, i - 1, 1.5);
  }
  Prepared p = prepare(coo_to_csr(coo));
  factorize_reference(p.fm, p.schedule);
  Csr l, u;
  extract_lu(p.fm, l, u);
  EXPECT_EQ(u.nnz(), 20);  // diagonal only
  for (value_t v : u.values) EXPECT_DOUBLE_EQ(v, 3.0);
  // L's subdiagonal = 1.5 / 3.0.
  for (index_t i = 1; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(get_entry(l, i, i - 1), 0.5);
  }
}

TEST(NumericEdge, DenseWindowStreamsHugeColumns) {
  // An early hub column whose sub-column footprint exceeds the window:
  // exercises the streaming path. Hub at index 0 couples to everything,
  // so column 0 has ~n sub-columns while the window holds only ~n/3.
  const index_t n = 96;
  Coo coo;
  coo.n = n;
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, i, 4.0);
    if (i > 0) {
      coo.add(0, i, 0.5);
      coo.add(i, 0, 0.5);
    }
  }
  Csr a = coo_to_csr(coo);
  make_diagonally_dominant(a);
  Prepared ref = prepare(a);
  factorize_reference(ref.fm, ref.schedule);

  Prepared dense = prepare(a);
  // Size the device so the window is ~n/3 columns after residency.
  const std::size_t resident =
      2 * (static_cast<std::size_t>(n) + 1) * sizeof(offset_t) +
      static_cast<std::size_t>(ref.fm.csc.nnz()) *
          (2 * sizeof(index_t) + sizeof(value_t) + sizeof(offset_t));
  gpusim::Device dev(gpusim::DeviceSpec::v100_with_memory(
      resident + static_cast<std::size_t>(n) / 3 * n * sizeof(value_t)));
  const NumericStats st = factorize_dense_window(dev, dense.fm, dense.schedule);
  EXPECT_LT(st.window_columns, n);
  EXPECT_GT(st.num_batches, 2);
  pins::expect_charges(dev.stats(), {777, 0, 1209040, 0, 222736, 0, 0,
                                     3224.9279214776334, 3224.9279214776038});
  for (std::size_t k = 0; k < ref.fm.csc.values.size(); ++k) {
    EXPECT_NEAR(dense.fm.csc.values[k], ref.fm.csc.values[k], 1e-9)
        << "k=" << k;
  }
}

TEST(NumericEdge, DenseWindowRefusesImpossibleDevice) {
  Csr a = gen_banded(200, 6, 4.0, 3);
  Prepared p = prepare(a);
  // Device too small for even two dense columns beyond residency.
  const std::size_t resident =
      2 * (static_cast<std::size_t>(a.n) + 1) * sizeof(offset_t) +
      static_cast<std::size_t>(p.fm.csc.nnz()) *
          (2 * sizeof(index_t) + sizeof(value_t) + sizeof(offset_t));
  gpusim::Device dev(gpusim::DeviceSpec::v100_with_memory(
      resident + a.n * sizeof(value_t)));
  EXPECT_THROW(factorize_dense_window(dev, p.fm, p.schedule), Error);
}

TEST(NumericEdge, FactorMatrixRejectsPatternMissingInput) {
  Coo coo;
  coo.n = 3;
  coo.add(0, 0, 1.0);
  coo.add(1, 1, 1.0);
  coo.add(2, 2, 1.0);
  coo.add(0, 2, 1.0);
  const Csr a = coo_to_csr(coo);
  Csr bad_pattern(3);  // diagonal-only pattern: misses (0,2)
  bad_pattern.col_idx = {0, 1, 2};
  bad_pattern.row_ptr = {0, 1, 2, 3};
  EXPECT_THROW(FactorMatrix::build(bad_pattern, a), Error);
}

TEST(NumericEdge, FactorMatrixRequiresDiagonal) {
  Coo coo;
  coo.n = 2;
  coo.add(0, 1, 1.0);
  coo.add(1, 0, 1.0);
  const Csr a = coo_to_csr(coo);
  EXPECT_THROW(FactorMatrix::build(a, a), Error);
}

}  // namespace
}  // namespace e2elu::numeric

namespace e2elu {
namespace {

TEST(SparseLUEdge, RejectsPatternOnlyInput) {
  Csr a(2);
  a.row_ptr = {0, 1, 2};
  a.col_idx = {0, 1};
  EXPECT_THROW(SparseLU().factorize(a), Error);
}

TEST(SparseLUEdge, RejectsEmptyMatrix) {
  EXPECT_THROW(SparseLU().factorize(Csr(0)), Error);
}

TEST(SparseLUEdge, SolveRejectsWrongRhsLength) {
  const Csr a = gen_banded(50, 4, 3.0, 5);
  Options opt;
  opt.device = gpusim::DeviceSpec::v100_with_memory(16u << 20);
  const FactorResult f = SparseLU(opt).factorize(a);
  std::vector<value_t> b(49, 1.0);
  EXPECT_THROW(SparseLU::solve(f, b), Error);
}

TEST(SparseLUEdge, UnifiedMemoryHostBudgetGuard) {
  // The same wall the paper hits: UM scratch is bounded by host memory.
  const Csr a = gen_banded(3000, 6, 4.0, 6);
  Options opt;
  opt.mode = Mode::UnifiedMemoryGpu;
  opt.device = gpusim::DeviceSpec::v100_with_memory(16u << 20);
  setenv("E2ELU_UM_HOST_BYTES", "1048576", 1);  // 1 MiB host budget
  EXPECT_THROW(SparseLU(opt).factorize(a), Error);
  unsetenv("E2ELU_UM_HOST_BYTES");
}

}  // namespace
}  // namespace e2elu
