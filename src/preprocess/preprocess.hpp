// Pre-processing: the row/column permutations the paper applies before
// factorization (§3.1, Figure 2) "with the goals of reducing fill-ins and
// improving numeric stability".
//
// Following the GLU/KLU lineage the paper builds on:
//   1. a column permutation placing a structurally (and greedily
//      numerically) strong entry on every diagonal — a lightweight stand-in
//      for MC64 static pivoting,
//   2. a symmetric fill-reducing ordering (reverse Cuthill-McKee or a
//      minimum-degree variant),
//   3. optional equilibration scaling,
//   4. patching any remaining zero diagonal with a large value, exactly
//      the trick §4.4 uses to make the Table 4 matrices factorizable.
#pragma once

#include <cstdint>
#include <vector>

#include "matrix/csr.hpp"

namespace e2elu {

/// A permutation vector p: new index -> old index. p[k] = old position of
/// the element now at position k.
using Permutation = std::vector<index_t>;

/// Where the pre-processing phase executes.
///
/// Serial is the paper's host-serial stage (single-threaded, modeled at
/// one host thread's throughput) and doubles as the quality oracle the
/// GPU path is audited against. GpuParallel runs diagonal matching,
/// minimum-degree ordering, and equilibration as gpusim kernels
/// (preprocess/parallel/): orderings may differ from the serial oracle
/// only within tie-breaking and are gated to the same-or-better fill
/// band; matchings must be full structural-diagonal permutations of
/// comparable diagonal weight (bench/ext_preprocess enforces both).
enum class PreprocessMode { Serial, GpuParallel };

struct PreprocessOptions {
  PreprocessMode mode = PreprocessMode::Serial;
  /// Seed of the distance-2 independent-set priority hash. Fixed seed +
  /// same device config => identical permutations run-to-run
  /// (test-enforced): every cross-block interaction in the parallel
  /// kernels is either write-disjoint or a commutative reduction, so the
  /// pool's execution order never reaches the result.
  std::uint64_t seed = 0x9e3779b97f4a7c15ULL;
  /// Elimination-graph densification cap, as a multiple of nnz(A + A^T):
  /// once the live elimination graph exceeds it, minimum degree (serial
  /// and parallel) stops and orders the remaining vertices by RCM — the
  /// guard against the O(fill) worst-case blowup on dense-ish patterns.
  double densify_cap = 8.0;
  /// Run row/column equilibration before matching. The scale vectors ride
  /// in FactorResult::scaling and are undone around the solves.
  bool equilibrate = false;
};

/// Instrumentation of one minimum-degree run (serial or parallel) — what
/// the densification-guard regression tests assert on.
struct MinDegreeStats {
  /// Peak number of live elimination-graph adjacency entries.
  std::size_t peak_adjacency = 0;
  /// Number of vertices eliminated by minimum degree before the
  /// densification guard fell back to RCM; -1 when the guard never fired.
  index_t rcm_fallback_at = -1;
  /// Elimination-graph work items (set visits, merges) — the host-serial
  /// cost model input.
  std::uint64_t ops = 0;
  /// Independent-set rounds (parallel mode only).
  index_t rounds = 0;
  /// (candidate, neighbour) pairs amd.select ran, summed over the rounds
  /// (parallel mode only).
  std::uint64_t select_pairs = 0;
  /// Vertices absorbed into supernodes (parallel mode only).
  index_t supernodes_merged = 0;
  /// The fill gate's exact nnz(L+U) of the AMD result and of the RCM
  /// candidate (parallel mode only); the smaller one wins, ties to AMD.
  offset_t gate_fill_amd = 0;
  offset_t gate_fill_rcm = 0;
  /// The winner's per-row nnz(L+U) counts: symbolic stage 1's output for
  /// A symmetrically permuted by the returned ordering (parallel mode
  /// only). SparseLU hands them to the out-of-core symbolic drivers.
  std::vector<index_t> fill_counts;
  /// Simulated time of the fill gate: the RCM candidate, both gathers
  /// and both counts (parallel mode only).
  double gate_sim_us = 0;
};

/// True iff p is a bijection on [0, n).
bool is_permutation(const Permutation& p);

/// Inverse permutation: inv[p[k]] = k.
Permutation invert_permutation(const Permutation& p);

/// Returns B with B(i,j) = A(row_perm[i], col_perm[j]).
Csr permute(const Csr& a, const Permutation& row_perm,
            const Permutation& col_perm);

/// Maximum-matching column permutation putting a structural non-zero on
/// every diagonal, greedily preferring large-magnitude candidates
/// (MC64-lite). Returns a column permutation q such that
/// permute(a, identity, q) has a full structural diagonal. Throws
/// FactorError{StructurallySingular} naming the uncoverable columns if
/// the matrix is structurally singular. `ops` (optional) accumulates the
/// work items performed — the host-serial cost model input.
Permutation diagonal_matching(const Csr& a, std::uint64_t* ops = nullptr);

/// Reverse Cuthill-McKee ordering on the symmetrized pattern A + A^T.
/// Bandwidth-reducing, which bounds fill for the banded/FEM classes.
Permutation rcm_ordering(const Csr& a, std::uint64_t* ops = nullptr);

/// Greedy minimum-degree ordering on the symmetrized pattern, with
/// elimination-graph degree updates (quotient-graph-free, so O(fill)
/// worst case). PreprocessOptions::densify_cap guards the blowup: past it
/// the remaining vertices are ordered by RCM. Fill-reducing for the
/// irregular/circuit classes.
Permutation min_degree_ordering(const Csr& a,
                                const PreprocessOptions& opt = {},
                                MinDegreeStats* stats = nullptr);

/// Row/column equilibration: scales each row then each column by the
/// reciprocal of its max magnitude. Returns the scaled matrix; the scale
/// vectors let callers undo the scaling on solutions.
struct Scaling {
  std::vector<value_t> row_scale;
  std::vector<value_t> col_scale;

  bool enabled() const { return !row_scale.empty(); }
};
Scaling equilibrate(Csr& a, std::uint64_t* ops = nullptr);

/// Replaces zero-magnitude (or structurally missing) diagonal entries with
/// `value` — the paper uses 1000 for the rank-deficient Table 4 matrices.
/// Returns the number of diagonals patched. Missing diagonals are
/// inserted structurally.
index_t patch_zero_diagonal(Csr& a, value_t value = 1000.0);

}  // namespace e2elu
