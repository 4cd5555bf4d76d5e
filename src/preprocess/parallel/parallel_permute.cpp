// Row-parallel matrix steps on the simulated device: the permutes, the
// transpose and the zero-diagonal patch that PreprocessMode::GpuParallel
// runs between and inside its sub-phases. Every kernel runs one block
// per row and charges the entries that row reads.
//
// Kernels:
//   <kernel>          parallel_permute: block i gathers row row_perm[i] of
//                     A, maps its columns through col_perm^-1 and sorts
//                     them — the rows the host permute() builds
//   <kernel>          parallel_transpose: row i's entries counted and
//                     scattered into A^T (two ops per entry); the host
//                     transpose() builds the result
//   ord.symmetrize    parallel_symmetrize: row i merged with row i of A^T
//                     (two ops per entry of A); symmetrize() builds it
//   pre.patch_diag    row i's diagonal found, a zero one patched
//   pre.patch_insert  only when a diagonal was missing: row i rebuilt
//                     with it inserted
// The patch kernels bill the host patch_zero_diagonal(), which builds
// the result.

#include <algorithm>
#include <utility>
#include <vector>

#include "matrix/convert.hpp"
#include "preprocess/parallel/parallel_preprocess.hpp"
#include "support/check.hpp"

namespace e2elu::preprocess {

namespace {

constexpr int kThreadsPerBlock = 256;

std::uint64_t row_len(const Csr& a, std::int64_t i) {
  return static_cast<std::uint64_t>(a.row_ptr[i + 1] - a.row_ptr[i]);
}

double row_efficiency(const gpusim::Device& dev, const Csr& a) {
  return dev.spec().simt_efficiency(std::max(a.nnz_per_row(), 1.0));
}

/// One block per row of `a`, charging `ops_per_entry` per entry of it.
void launch_rows(gpusim::Device& dev, const Csr& a, const char* kernel,
                 std::uint64_t ops_per_entry) {
  dev.launch({.name = kernel,
              .blocks = a.n,
              .threads_per_block = kThreadsPerBlock,
              .warp_efficiency = row_efficiency(dev, a)},
             [&](std::int64_t b, gpusim::KernelContext& ctx) {
               ctx.add_ops(ops_per_entry * row_len(a, b));
             });
}

}  // namespace

Csr parallel_permute(gpusim::Device& dev, const Csr& a,
                     const Permutation& row_perm, const Permutation& col_perm,
                     const char* kernel) {
  E2ELU_CHECK(row_perm.size() == static_cast<std::size_t>(a.n));
  E2ELU_CHECK(col_perm.size() == static_cast<std::size_t>(a.n));
  const index_t n = a.n;
  const Permutation col_inv = invert_permutation(col_perm);
  const bool with_values = !a.values.empty();

  // Output row offsets from the gathered rows' lengths (a scan, built the
  // way every grid offset array here is).
  Csr out(n);
  for (index_t i = 0; i < n; ++i) {
    out.row_ptr[i + 1] = out.row_ptr[i] + static_cast<offset_t>(
                                              row_len(a, row_perm[i]));
  }
  out.col_idx.resize(static_cast<std::size_t>(a.nnz()));
  if (with_values) out.values.resize(static_cast<std::size_t>(a.nnz()));

  dev.launch({.name = kernel,
              .blocks = n,
              .threads_per_block = kThreadsPerBlock,
              .warp_efficiency = row_efficiency(dev, a)},
             [&](std::int64_t b, gpusim::KernelContext& ctx) {
               const index_t old_row = row_perm[static_cast<std::size_t>(b)];
               std::vector<std::pair<index_t, value_t>> row;
               row.reserve(row_len(a, old_row));
               for (offset_t k = a.row_ptr[old_row];
                    k < a.row_ptr[old_row + 1]; ++k) {
                 row.emplace_back(col_inv[a.col_idx[k]],
                                  with_values ? a.values[k] : value_t{0});
               }
               std::sort(row.begin(), row.end());
               offset_t w = out.row_ptr[b];
               for (const auto& [col, val] : row) {
                 out.col_idx[w] = col;
                 if (with_values) out.values[w] = val;
                 ++w;
               }
               ctx.add_ops(row.size());
             });
  return out;
}

Csr parallel_transpose(gpusim::Device& dev, const Csr& a, const char* kernel) {
  // A counting sort: each entry is counted into its column's histogram,
  // then scattered to its slot — two ops, billed to the row that owns it.
  launch_rows(dev, a, kernel, 2);
  return transpose(a);
}

SymGraph parallel_symmetrize(gpusim::Device& dev, const Csr& a) {
  // Each entry is read once by the transpose's scatter and once by the
  // row merge: the 2 nnz the serial orderings charge for the same step.
  launch_rows(dev, a, "ord.symmetrize", 2);
  return symmetrize(a);
}

index_t parallel_patch_zero_diagonal(gpusim::Device& dev, Csr& a,
                                     value_t value) {
  launch_rows(dev, a, "pre.patch_diag", 1);
  const offset_t nnz = a.nnz();
  const index_t patched = patch_zero_diagonal(a, value);
  if (a.nnz() != nnz) launch_rows(dev, a, "pre.patch_insert", 1);
  return patched;
}

}  // namespace e2elu::preprocess
