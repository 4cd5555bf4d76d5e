// Seeded inputs of the end-to-end benchmark.
//
// Everything here is rebuilt from the library's public generators so the
// benchmark depends on no other bench file. Seed 0 reproduces the Table 2
// stand-ins of table2_suite() exactly (checked at startup); any other seed
// draws held-out matrices of the same order, density and structure class.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/sparse_lu.hpp"
#include "matrix/csr.hpp"

namespace e2elu::e2e {

/// One Table 2 stand-in at the bench divisor (64).
struct SuiteMatrix {
  std::string abbr;  ///< the paper's abbreviation (Figure 4's x-axis)
  Csr a;
};

/// The Table 2 stand-ins for `seed` named in `abbrs` (all 18 when empty),
/// in the paper's row order.
std::vector<SuiteMatrix> suite_matrices(
    std::uint64_t seed, const std::vector<std::string>& abbrs = {});

/// Throws e2elu::Error unless suite_matrices(0) equals table2_suite()
/// array for array.
void check_seed0_matches_table2();

/// Default Options with the device sized for `a` in the Table 2 memory
/// regime: the RCM-ordered matrix, its fill and ~1.5 * TB_max rows of
/// symbolic scratch fit, the full O(n^2) scratch does not, and per-event
/// overheads are scaled to the divisor (as the paper-reproduction benches
/// size their devices).
Options table2_options(const Csr& a);

/// Seeded uniformly random column permutation.
Permutation column_shuffle(index_t n, std::uint64_t seed);

/// Seeded vector with entries uniform in [-1, 1).
std::vector<value_t> random_vector(index_t n, std::uint64_t seed);

/// y = A x.
std::vector<value_t> multiply(const Csr& a, std::span<const value_t> x);

/// Mixes a workload seed into a per-input generator seed; seed 0 leaves
/// `base` unchanged, which is how seed 0 reproduces the repo's fixed inputs.
std::uint64_t derive_seed(std::uint64_t base, std::uint64_t seed);

}  // namespace e2elu::e2e
