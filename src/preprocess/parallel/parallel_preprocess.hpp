// GPU-side pre-processing (PreprocessMode::GpuParallel): the last
// host-serial stage of the paper's Figure 2 pipeline, moved onto the
// simulated device.
//
// Three phases, all executed as gpusim kernels with launch/ops accounting
// so the trace layer's per-phase deltas and the JobReport phase tiling
// see the preprocess share directly:
//
//   * parallel_min_degree_ordering — approximate minimum degree after
//     Chang, Buluc & Demmel: each round selects a *distance-2 independent
//     set* of near-minimum-degree pivots (no two share a neighbor, so
//     their clique updates are write-disjoint) and eliminates them
//     simultaneously, with hash-based supernode (indistinguishable
//     vertex) detection merging mass-eliminable vertices. Element
//     absorption is eager: the explicit elimination graph folds a
//     pivot's adjacency into its neighbors at elimination time.
//   * parallel_diagonal_matching — MC64-lite as rounds of parallel
//     propose/dispose (greedy seeding) followed by rounds of parallel
//     augmenting-path searches with a commutative atomic claim on column
//     ownership and retry for losers.
//   * parallel_equilibrate — row/col max-reduction and scaling kernels,
//     bit-identical to the serial equilibrate().
//
// Between and inside those phases the matrix moves through one-block-
// per-row kernels (parallel_permute, parallel_transpose,
// parallel_symmetrize, parallel_patch_zero_diagonal), so no step of
// GpuParallel preprocessing apart from RCM is uncharged or billed at
// host rate.
//
// Determinism rule (DESIGN.md 6i): every cross-block interaction is
// either write-disjoint (guaranteed by distance-2 independence / one
// block per owner) or a commutative idempotent reduction (min/max), so a
// fixed PreprocessOptions::seed yields identical permutations run-to-run
// regardless of the pool's execution order — test-enforced.
#pragma once

#include "gpusim/device.hpp"
#include "preprocess/preprocess.hpp"
#include "preprocess/sym_graph.hpp"

namespace e2elu::preprocess {

/// Distance-2 independent-set approximate minimum degree on the
/// symmetrized pattern of `a`, executed on `dev`. Ordering quality is
/// audited against the serial min_degree_ordering oracle (same-or-better
/// fill within the bench gate's band); ties are broken by the seeded
/// priority hash, then by vertex id. The densify_cap guard falls back to
/// RCM exactly as the serial version does.
Permutation parallel_min_degree_ordering(gpusim::Device& dev, const Csr& a,
                                         const PreprocessOptions& opt = {},
                                         MinDegreeStats* stats = nullptr);

/// MC64-lite diagonal matching on `dev`. Returns the same kind of column
/// permutation as the serial diagonal_matching (full structural diagonal,
/// large magnitudes preferred); throws FactorError{StructurallySingular}
/// naming the uncoverable columns otherwise.
Permutation parallel_diagonal_matching(gpusim::Device& dev, const Csr& a,
                                       const PreprocessOptions& opt = {});

/// Row/column equilibration on `dev`; bit-identical scales and values to
/// the serial equilibrate() (each element sees the same two multiplies).
Scaling parallel_equilibrate(gpusim::Device& dev, Csr& a);

/// B(i,j) = A(row_perm[i], col_perm[j]) on `dev`, one gather block per
/// output row charging that row's length; the same matrix permute()
/// returns. `kernel` names the launch.
Csr parallel_permute(gpusim::Device& dev, const Csr& a,
                     const Permutation& row_perm, const Permutation& col_perm,
                     const char* kernel);

/// transpose(a), billed as a device counting sort: one block per row of
/// A, two ops per entry.
Csr parallel_transpose(gpusim::Device& dev, const Csr& a, const char* kernel);

/// symmetrize(a), the graph the orderings eliminate on, billed as one
/// block per row of A at two ops per entry (the serial orderings' charge).
SymGraph parallel_symmetrize(gpusim::Device& dev, const Csr& a);

/// patch_zero_diagonal(a, value), billed as one block per row searching
/// its diagonal, plus one block per rebuilt row when diagonals had to be
/// inserted. Same result and return value as the host version.
index_t parallel_patch_zero_diagonal(gpusim::Device& dev, Csr& a,
                                     value_t value = 1000.0);

}  // namespace e2elu::preprocess
