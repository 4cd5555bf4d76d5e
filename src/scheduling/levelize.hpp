// Column-dependency scheduling (the paper's §3.3).
//
// The hybrid right-looking numeric factorization (Algorithm 2) processes
// columns level by level: columns in a level are mutually independent and
// factorize in parallel. Levelization — assigning each column its level —
// is a topological sort of the column dependency graph, and the paper's
// contribution is running Kahn's algorithm entirely on the GPU with
// dynamic parallelism (Algorithm 5), eliminating both per-level host
// synchronization and host-side kernel-launch overhead.
//
// The pipeline itself no longer runs Algorithm 5. Column order is already
// topological (edges only go i -> j with i < j), so level(j) = 1 + the
// largest level among j's predecessors can be computed in ONE launch:
// blocks claim vertices in topological order and wait on their
// predecessors' ready flags (levelize_sync_free, the protocol of
// ready_flags.hpp; Liu et al.'s sync-free SpTRSV, Euro-Par 2016). It
// yields exactly Kahn's levels. The Kahn variants stay as the §3.3
// reproduction (bench/ext_levelize).
//
// Dependency rule: for columns i < j there is an edge i -> j when
// As(i,j) != 0 (the U dependency the paper states in §2.2) or
// As(j,i) != 0 (the L side, which subsumes GLU's "double-U" dependency:
// column i's sub-column updates write row j of later columns whenever
// L(j,i) != 0, so j must not start reading those rows before i is done).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/device.hpp"
#include "matrix/csr.hpp"

namespace e2elu::scheduling {

struct FusedCost;

/// Column dependency graph in CSR adjacency, both directions. Edges go
/// i -> j with i < j only, so ascending column order is topological. That
/// holds for the column DAG; the row DAG of an upper triangular solve
/// points the other way (row i reads x[j] for j > i), which is why
/// levelize_sync_free takes its claim order explicitly.
struct DependencyGraph {
  index_t n = 0;
  std::vector<offset_t> adj_ptr;   ///< size n+1
  std::vector<index_t> adj;        ///< sorted successors (> source)
  std::vector<offset_t> pred_ptr;  ///< size n+1
  std::vector<index_t> pred;       ///< sorted predecessors (< target)
  offset_t num_edges() const { return adj_ptr.empty() ? 0 : adj_ptr.back(); }
};

/// Which inter-column dependencies to encode (§2.2 and the GLU lineage
/// discussion in §5).
enum class DependencyRule {
  /// Edge i -> j iff i < j and (As(i,j) != 0 or As(j,i) != 0). The
  /// symmetrized rule: every L entry is conservatively treated as a
  /// dependency. Always safe, cheapest to build — GLU3.0's "relaxed but
  /// much more efficient" detection.
  Symmetrized,
  /// U edges plus the *exact* double-U dependencies of the original GLU:
  /// for an L-only coupling As(j,i) != 0 (i < j, As(i,j) == 0) an edge is
  /// needed iff columns i and j share a sub-column k (U(i,k) != 0 and
  /// U(j,k) != 0): column i's right-looking update then writes As(j,k),
  /// which column j reads as a multiplier. Fewer edges, shallower
  /// schedules, costlier detection (a row intersection per L entry).
  DoubleU,
};

/// Builds the dependency graph from the filled pattern As (pattern-only
/// CSR is fine): the successor lists, and the predecessor lists as their
/// transpose.
DependencyGraph build_dependency_graph(
    const Csr& filled, DependencyRule rule = DependencyRule::Symmetrized);

/// The level schedule: level(k) = 1 + max level over k's predecessors.
struct LevelSchedule {
  std::vector<index_t> level;      ///< per column
  std::vector<index_t> level_ptr;  ///< size num_levels+1 into level_cols
  std::vector<index_t> level_cols; ///< columns grouped by level
  index_t num_levels() const {
    return static_cast<index_t>(level_ptr.empty() ? 0 : level_ptr.size() - 1);
  }
  index_t level_width(index_t l) const {
    return level_ptr[l + 1] - level_ptr[l];
  }
};

/// Sequential Kahn's algorithm on the host — the levelization previous
/// work runs on the CPU, and the correctness reference.
LevelSchedule levelize_sequential(const DependencyGraph& g);

/// GPU Kahn with host-driven kernels: each iteration launches update /
/// cons_queue from the host and synchronizes to read the queue size (the
/// prior-work GPU topological sort of [37]).
LevelSchedule levelize_gpu_host_launched(gpusim::Device& device,
                                         const DependencyGraph& g);

/// GPU Kahn with dynamic parallelism (Algorithm 5): one host launch; the
/// parent kernel spawns cons_queue/update child kernels on-device, so no
/// host round-trips and child-launch overhead only. This and the
/// host-launched variant are the §3.3 reproduction; the pipeline
/// levelizes with levelize_sync_free.
LevelSchedule levelize_gpu_dynamic(gpusim::Device& device,
                                   const DependencyGraph& g);

/// The order blocks of a sync-free levelization claim vertices in. It must
/// be topological: every predecessor of a vertex is claimed before it.
enum class ClaimOrder {
  Ascending,   ///< the column DAG and the lower solve: preds have lower ids
  Descending,  ///< the upper solve: row i's preds are rows j > i
};

/// Sync-free levelization: ONE launch, one block per vertex, claimed in
/// `order`. Row v of the CSR (ptr, idx) lists v's predecessor candidates;
/// entries not claimed before v (a diagonal, the other triangle) are
/// skipped, so a triangular factor's own rows serve as-is. Each block
/// waits on its predecessors' ready flags and writes level(v) = 1 + their
/// largest level (0 with none) — Kahn's levels, so the schedule is
/// identical to levelize_sequential's. Charged one op per entry scanned
/// plus one per level written, at the warp efficiency of the mean list
/// length; the launch's longest chain is recorded next to its charge as
/// the model.levelize.{chain_us,charged_us} histograms and, when `cost`
/// is non-null, returned there.
LevelSchedule levelize_sync_free(gpusim::Device& device,
                                 std::span<const offset_t> ptr,
                                 std::span<const index_t> idx,
                                 ClaimOrder order, FusedCost* cost = nullptr);

/// The column DAG's sync-free levelization: ascending claims over
/// g.pred_ptr / g.pred.
LevelSchedule levelize_sync_free(gpusim::Device& device,
                                 const DependencyGraph& g,
                                 FusedCost* cost = nullptr);

/// Validates a schedule: every column assigned, every edge goes to a
/// strictly later level, levels partition [0,n). Throws on violation.
void validate_schedule(const DependencyGraph& g, const LevelSchedule& s);

/// GLU3.0's level taxonomy (§2.2): type A levels have many independent
/// columns with few sub-columns each (block per column); type C levels
/// are the narrow late levels with many sub-columns (block per
/// sub-column, kernel per column); type B is the wide-and-heavy middle.
enum class LevelType { A, B, C };

/// Classifies one level from its width and mean sub-column count.
LevelType classify_level(index_t width, double avg_sub_columns);

/// Stable short name for a level type ("A"/"B"/"C") — used as a trace
/// span attribute and in bench tables.
constexpr const char* level_type_name(LevelType t) {
  switch (t) {
    case LevelType::A: return "A";
    case LevelType::B: return "B";
    case LevelType::C: return "C";
  }
  return "?";
}

/// Classifies every level of a schedule against the filled pattern (the
/// mean sub-column count of level l is the mean strictly-upper row length
/// over its columns). Pattern-only, so re-factorizations of a matrix with
/// unchanged structure can compute this once and reuse it.
std::vector<LevelType> classify_schedule(const LevelSchedule& s,
                                         const Csr& filled);

}  // namespace e2elu::scheduling
