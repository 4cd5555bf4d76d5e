// Numeric factorization — the hybrid column-based right-looking algorithm
// (Algorithm 2) executed level by level, in the two storage regimes the
// paper compares in §3.4:
//
//   * dense-window (GLU3.0 baseline): active columns are scattered into
//     dense length-n arrays for O(1) element access. The window holds at
//     most M = free_device_memory / (n * sizeof(value_t)) columns, which
//     caps the number of concurrently factorizable columns — Table 4's
//     "max #blocks" — and falls below the device's TB_max for very
//     large n.
//   * sparse binary-search (the paper's contribution): As stays in sorted
//     CSC; element access is a binary search over the column's row ids
//     (Algorithm 6). Access costs O(log nnz(col)) but the resident-column
//     cap disappears, so whole levels factorize at full occupancy —
//     Figure 8's 2.88-3.33x at Table 4 sizes.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/device_buffer.hpp"
#include "gpusim/unified_buffer.hpp"
#include "matrix/convert.hpp"
#include "matrix/csc.hpp"
#include "matrix/csr.hpp"
#include "scheduling/fusion.hpp"
#include "scheduling/levelize.hpp"

namespace e2elu::numeric {

/// Thrown by the numeric executors when a pivot reads zero or non-finite.
/// Factorization without pivoting (the paper's setting, §2) cannot proceed
/// past such a column; carrying the column lets the recovery policy in
/// core::SparseLU perturb exactly the diagonal that failed and retry.
class ZeroPivotError : public Error {
 public:
  ZeroPivotError(index_t column, double value)
      : Error(describe(column, value)), column_(column), value_(value) {}

  index_t column() const { return column_; }
  double value() const { return value_; }

 private:
  static std::string describe(index_t column, double value);

  index_t column_;
  double value_;
};

/// The working matrix As: the filled pattern in both orientations plus the
/// numeric values, stored in CSC order (the format Algorithm 6 searches).
struct FactorMatrix {
  Csr pattern;                         ///< filled pattern, rows sorted
  Csc csc;                             ///< same pattern, values live here
  std::vector<offset_t> csr_pos_to_csc;  ///< CSR walk -> CSC value position
  std::vector<offset_t> diag_pos;      ///< position of (j,j) in csc column j

  index_t n() const { return pattern.n; }

  /// Builds As from the symbolic pattern and scatters A's values into it;
  /// fill-in positions start at zero. `filled` must contain `a`'s pattern
  /// (it does, by Theorem 1) and a full diagonal.
  static FactorMatrix build(const Csr& filled, const Csr& a);
};

/// Per-level execution parameters that depend only on the pattern and the
/// schedule: GLU3.0 A/B/C type, the modeled warp efficiency, and the
/// level-fusion clustering. Computed once per symbolic factorization and
/// reused across re-factorizations. The executors accept a cached plan or
/// build a local one — either way the per-level classification happens
/// once per pattern, not once per level per factorize.
struct LevelPlan {
  std::vector<scheduling::LevelType> type;  ///< one per level
  std::vector<double> warp_eff;             ///< one per level
  /// Level-fusion clustering (singletons when fusion is off). The plan is
  /// authoritative: executors fuse exactly these clusters.
  scheduling::ClusterSchedule clusters;
};

LevelPlan build_level_plan(const FactorMatrix& m,
                           const scheduling::LevelSchedule& s,
                           const gpusim::DeviceSpec& spec,
                           const scheduling::FusionOptions& fusion = {});

/// Replay plan for re-factorization (the cuSOLVER-rf / NICSLU task list):
/// the exact CSC destination of every sub-column update, resolved once per
/// pattern on the host. Sub-columns are laid out level by level in
/// elimination order; for sub-column `sc` (the strictly-upper entry (j,k)),
/// tasks[task_start[sc] + t] is the position of As(i_t, k) where i_t is the
/// t-th row of L(:,j) — present by Theorem 1, ascending because columns are
/// sorted. With destinations precomputed, the numeric phase needs no
/// element search at all (dense window) and no binary search (Algorithm 6):
/// every update is an independent fused multiply-subtract, which is why
/// real re-factorization engines run level-scheduled flat task lists. The
/// O(flops) position memory only pays for itself across a same-pattern
/// sequence, so only the reuse path builds one.
struct ReplayPlan {
  /// Sub-column ranges per level: level l owns sub-columns
  /// [level_ptr[l], level_ptr[l+1]).
  std::vector<offset_t> level_ptr;
  /// Sub-column ranges per *schedule position* (size n+1): the column at
  /// position p of s.level_cols owns sub-columns
  /// [col_sub_ptr[p], col_sub_ptr[p+1]). Well-defined because the plan is
  /// emitted level by level, column by column — what lets a fused replay
  /// block find its own update tasks without a per-level launch boundary.
  std::vector<offset_t> col_sub_ptr;
  std::vector<std::uint32_t> ujk_pos;    ///< per sub-column: position of U(j,k)
  std::vector<std::uint32_t> src_start;  ///< per sub-column: first L(:,j) slot
  std::vector<std::uint32_t> task_start;  ///< per sub-column + sentinel
  std::vector<std::uint32_t> tasks;       ///< per update: destination position

  bool empty() const { return level_ptr.empty(); }
};

/// Builds the task list for one pattern + schedule. Returns an empty plan
/// when positions do not fit 32 bits (the executor then falls back to
/// binary search).
ReplayPlan build_replay_plan(const FactorMatrix& m,
                             const scheduling::LevelSchedule& s);

/// Device residency for a ReplayPlan. The per-sub-column arrays are small
/// (O(fill)) and always device-resident; the O(flops) task array goes to
/// device memory when it fits and to unified (managed) memory otherwise —
/// oversubscription paging is exactly what the paper's unified-memory
/// model is for. Construction throws OutOfDeviceMemory only when even the
/// per-sub-column arrays do not fit.
struct DeviceReplayPlan {
  gpusim::DeviceBuffer<std::uint32_t> ujk_pos, src_start, task_start;
  std::optional<gpusim::DeviceBuffer<std::uint32_t>> tasks_device;
  std::optional<gpusim::UnifiedBuffer<std::uint32_t>> tasks_unified;

  DeviceReplayPlan(gpusim::Device& device, const ReplayPlan& plan);
};

/// Device residency for one FactorMatrix: the arrays the executors keep
/// on-device (CSC structure + values, CSR pattern, position map).
/// Constructing charges the allocations and uploads; a Refactorizer holds
/// one across calls and re-uploads only the values.
struct DeviceFactorMatrix {
  gpusim::DeviceBuffer<offset_t> col_ptr, row_ptr, map;
  gpusim::DeviceBuffer<index_t> row_idx, col_idx;
  gpusim::DeviceBuffer<value_t> values;

  DeviceFactorMatrix(gpusim::Device& device, const FactorMatrix& m);

  /// cudaMemcpy of the values array only — the per-refactorization
  /// transfer (structure stays resident).
  void upload_values(const FactorMatrix& m);
};

/// Out-of-core numeric execution: a scrolling window of level-clusters
/// resident on the device, everything else spilled to host. The fusion
/// clusterer is the windowing granularity (a fused launch never spans a
/// window boundary); finished columns' L/U storage is written back as
/// their cluster retires, and upcoming window groups prefetch on an async
/// stream so the PCIe time hides under compute. Off by default — the
/// fully-resident path is the bit-exactness oracle, and the windowed
/// executors run the identical kernels in the identical order, so factors
/// are memcmp-identical on a serial pool.
struct WindowOptions {
  bool enabled = false;
  /// Device bytes the scrolling window may occupy (the ring arena). 0
  /// sizes it to the device's free bytes at executor entry — windowed
  /// execution then degenerates to one all-resident group.
  std::size_t budget_bytes = 0;
  /// Window groups fetched ahead of the executing one (the ring holds
  /// 1 + prefetch_ahead groups, so each group's capacity is
  /// budget_bytes / (1 + prefetch_ahead)).
  int prefetch_ahead = 1;
};

struct NumericOptions {
  /// The FactorMatrix arrays are already device-resident (a caller such as
  /// refactor::Refactorizer holds a DeviceFactorMatrix across calls), so
  /// the executor must not allocate/upload its own mirrors.
  bool device_resident = false;
  /// Scrolling-window out-of-core execution (see WindowOptions). When
  /// enabled, the executors keep no full-size device mirrors: only the
  /// window arena is charged against device memory.
  WindowOptions window;
  /// Level fusion (see scheduling/fusion.hpp). Consulted only when the
  /// caller passes no LevelPlan — a cached plan's clustering is
  /// authoritative. Off by default: the per-level path is the
  /// bit-exactness reference.
  scheduling::FusionOptions fusion;
};

struct NumericStats {
  std::uint64_t ops = 0;
  double wall_ms = 0;
  index_t window_columns = 0;  ///< dense mode: M, the resident-column cap
  index_t num_batches = 0;     ///< dense mode: scatter/factor/gather rounds
  index_t fused_levels = 0;    ///< levels executed inside fused launches
  index_t fused_clusters = 0;  ///< fused launches actually taken

  // Scrolling-window accounting (all zero when the window is off).
  std::uint64_t window_groups = 0;      ///< window groups executed
  std::uint64_t window_evictions = 0;   ///< column spills written back to host
  std::uint64_t window_prefetches = 0;  ///< group fetches issued ahead
  std::uint64_t window_refetches = 0;   ///< columns fetched again after a spill
  std::uint64_t window_fetch_bytes = 0; ///< h2d bytes moved by the window
  double window_stall_us = 0;           ///< compute blocked on an unfinished fetch
};

/// Sequential host execution of Algorithm 2 over the level schedule —
/// the correctness reference.
NumericStats factorize_reference(FactorMatrix& m,
                                 const scheduling::LevelSchedule& s);

/// GLU3.0-style dense-window execution on the simulated device. A non-null
/// `plan` (matching `s`) supplies cached per-level types/warp efficiencies
/// instead of recomputing them. Throws gpusim::OutOfDeviceMemory when the
/// free memory cannot hold two dense columns.
NumericStats factorize_dense_window(gpusim::Device& device, FactorMatrix& m,
                                    const scheduling::LevelSchedule& s,
                                    const NumericOptions& opt = {},
                                    const LevelPlan* plan = nullptr);

/// Sorted-CSC binary-search execution (Algorithm 6) on the simulated
/// device, with GLU3.0's type-A/B/C kernel mapping per level. `plan` as in
/// factorize_dense_window.
NumericStats factorize_sparse_bsearch(gpusim::Device& device, FactorMatrix& m,
                                      const scheduling::LevelSchedule& s,
                                      const NumericOptions& opt = {},
                                      const LevelPlan* plan = nullptr);

/// Task-list execution for the refactorization path. Two launches per
/// level: a div kernel (block per column, L(:,j) /= diag) and a flat
/// update kernel (block per sub-column, destinations read straight from
/// the replay plan). Compared to the discovery-mode executors this
/// removes the element search *and* the per-column type-C launches whose
/// 1-block grids run the device nearly empty — sub-column grids keep
/// occupancy up through the narrow tail levels. Assumes `m`'s arrays and
/// `storage` are already device-resident (the Refactorizer holds both).
NumericStats factorize_replay(gpusim::Device& device, FactorMatrix& m,
                              const scheduling::LevelSchedule& s,
                              const LevelPlan& plan, const ReplayPlan& replay,
                              DeviceReplayPlan& storage,
                              const NumericOptions& opt = {});

/// M = L_free / (n * sizeof(value_t)): the dense-format concurrency cap
/// (Table 4's "max #blocks" column).
index_t max_parallel_dense_columns(std::size_t free_bytes, index_t n);

/// The paper's format-switch rule: use sparse when
/// n > L / (TB_max * sizeof(value_t)).
bool should_use_sparse_format(const gpusim::DeviceSpec& spec, index_t n);

/// Splits the factorized As into L (unit diagonal, stored explicitly) and
/// U (including the diagonal), both CSR.
void extract_lu(const FactorMatrix& m, Csr& l, Csr& u);

/// Dense reference LU without pivoting for small matrices (tests): fills
/// l and u such that l*u == dense(a).
void dense_lu_reference(const Csr& a, std::vector<value_t>& l,
                        std::vector<value_t>& u);

}  // namespace e2elu::numeric
