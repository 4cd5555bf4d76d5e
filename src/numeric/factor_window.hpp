// Scrolling-window out-of-core numeric execution (the "factor window").
//
// Very large factors do not fit device memory even in the sparse format:
// the L/U value storage alone exceeds the card. The fix mirrors the
// paper's out-of-core symbolic chunking, applied to the numeric phase: at
// any moment only a *window* of level-clusters is device-resident — the
// cluster being executed plus the next few, mapped onto ring-buffer slots
// (logical group index -> group % slots). Finished columns' storage is
// written back to the host as the cluster that finalizes them retires
// (every writer of column k sits at a level strictly below k's own, so a
// column is final the moment its cluster completes), and upcoming groups
// prefetch on a dedicated transfer stream so the PCIe time hides under
// the compute stream's kernels — the classic double-buffered cp.async
// pipeline, modeled at host level.
//
// The window changes *residency and transfer accounting only*: kernels
// still execute eagerly on host storage in the identical order, so the
// windowed executors produce factors memcmp-identical to the fully
// resident path (on a serial pool, where reduction order is pinned).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "gpusim/device.hpp"
#include "numeric/numeric.hpp"

namespace e2elu::numeric {

/// Device bytes the window accounts for one resident column: its CSC
/// values plus row indices (the arrays the numeric kernels touch).
std::size_t window_column_bytes(const FactorMatrix& m, index_t j);

/// The residency plan for one pattern + cluster schedule: consecutive
/// clusters grouped under the per-slot capacity, with the byte footprint
/// and refetch count of every group resolved up front. A group's resident
/// set is the union of its clusters' own columns and their sub-column
/// update targets; targets spilled by an earlier group's retirement are
/// fetched again (counted as refetches).
struct WindowPlan {
  std::vector<index_t> group_ptr;  ///< size num_groups+1, into clusters
  std::vector<std::size_t> group_bytes;       ///< resident-set footprint
  std::vector<std::uint64_t> group_cols;      ///< distinct resident columns
  std::vector<std::uint64_t> group_refetches; ///< columns fetched again
  std::size_t capacity_bytes = 0;  ///< per-group capacity the plan used
  std::size_t budget_bytes = 0;    ///< whole-ring budget
  int prefetch_ahead = 1;

  index_t num_groups() const {
    return static_cast<index_t>(group_ptr.empty() ? 0 : group_ptr.size() - 1);
  }
  index_t first_cluster(index_t g) const { return group_ptr[g]; }
  index_t end_cluster(index_t g) const { return group_ptr[g + 1]; }
};

/// Builds the plan: per-cluster footprints, greedy grouping under
/// capacity = budget / (1 + prefetch_ahead) (scheduling::
/// build_window_groups — clusters are atomic, a fused launch never spans
/// a window boundary), then per-group resident sets and refetch counts.
WindowPlan build_window_plan(const FactorMatrix& m,
                             const scheduling::LevelSchedule& s,
                             const scheduling::ClusterSchedule& cs,
                             std::size_t budget_bytes, int prefetch_ahead);

/// The ring itself: owns the device arena (one allocation of the whole
/// budget — the slots live inside it), the transfer and compute streams,
/// and the per-group fetch events. Drive it group by group:
///
///   begin_group(g)   ensure g's fetch is issued, issue lookahead fetches
///                    for groups <= g + prefetch_ahead that fit the
///                    budget, then block the compute stream on g's fetch
///                    event (the blocked time is the recorded stall).
///   ...launch every kernel of g's clusters on compute_stream()...
///   retire_group(g)  write the group's columns back to host on the
///                    transfer stream, ordered after the compute work.
///   finish(stats)    join the streams and publish the window counters.
///
/// A group whose own footprint exceeds the whole budget (one overweight
/// cluster) streams through the arena with *synchronous* copies — its
/// transfer serializes instead of overlapping, and the ring never
/// allocates beyond the budget.
class FactorWindow {
 public:
  FactorWindow(gpusim::Device& dev, WindowPlan plan);

  const WindowPlan& plan() const { return plan_; }
  gpusim::Stream& compute_stream() { return compute_; }
  std::size_t resident_bytes() const { return resident_bytes_; }

  void begin_group(index_t g);
  void retire_group(index_t g);
  void finish(NumericStats& stats);

 private:
  void fetch_group(index_t g, bool lookahead);

  gpusim::Device& dev_;
  WindowPlan plan_;
  gpusim::RawDeviceAllocation arena_;
  gpusim::Stream xfer_;
  gpusim::Stream compute_;
  std::vector<gpusim::Event> fetch_done_;  ///< one per group
  std::vector<char> fetched_;
  index_t next_fetch_ = 0;        ///< first group with no fetch issued yet
  std::size_t resident_bytes_ = 0;

  std::uint64_t evicted_cols_ = 0;
  std::uint64_t prefetch_count_ = 0;
  std::uint64_t fetch_bytes_ = 0;
  double stall_us_ = 0;
};

namespace detail {

/// Issues every kernel of one cluster on `stream` (null: the default
/// stream, a full barrier).
using ExecuteClusterFn = std::function<void(index_t, gpusim::Stream*)>;

/// The cluster loop every executor shares, and the one place that decides
/// resident versus windowed execution. Resident (window off), it runs
/// every cluster in order with a null stream. Windowed, it builds the
/// window plan (budget 0 resolves to the device's current free bytes),
/// runs the clusters group by group through a FactorWindow on its compute
/// stream, and publishes the window counters into `stats`.
void run_clusters(gpusim::Device& dev, const FactorMatrix& m,
                  const scheduling::LevelSchedule& s, const LevelPlan& plan,
                  const WindowOptions& wopt, NumericStats& stats,
                  const ExecuteClusterFn& execute_cluster);

}  // namespace detail

}  // namespace e2elu::numeric
