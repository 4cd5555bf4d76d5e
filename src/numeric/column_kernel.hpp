// Internal building blocks shared by the numeric executors: the only copy
// of Algorithm 2's column step (divide_column, update_sub_column and the
// block-per-column body process_column), Algorithm 6's binary search, and
// the executor frame every device executor runs its clusters in.
//
// The executors differ only in how an element is reached — As itself in
// sorted CSC (binary search or replay task list) or a dense-window slot —
// so each passes its element access into the same column step.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <optional>

#include "fault/fault.hpp"
#include "gpusim/device.hpp"
#include "numeric/factor_window.hpp"
#include "numeric/numeric.hpp"
#include "scheduling/ready_flags.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu::numeric::detail {

static_assert(std::atomic<value_t>::is_always_lock_free,
              "numeric kernels need lock-free atomic updates on value_t");

/// Atomic As(i,k) -= delta. Columns within a level may update the same
/// sub-column element concurrently (GLU3.0 uses atomics here too);
/// subtraction commutes, so ordering does not matter.
inline void atomic_sub(value_t& slot, value_t delta) {
  auto& a = reinterpret_cast<std::atomic<value_t>&>(slot);
  value_t old = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(old, old - delta,
                                  std::memory_order_relaxed)) {
  }
}

/// Reads the pivot of column `j` through `slot` (the storage the executor
/// divides by: As(j,j) in CSC, or the dense-window slot) and validates it.
/// divide_column is the only caller, so this is both the single
/// zero/NaN-pivot detection point and the fault-injection point: an armed
/// pivot clause overwrites the stored value first, exactly as if the
/// device had returned corrupted data. Throws ZeroPivotError — which the
/// ThreadPool re-raises on the launching thread — on zero or non-finite.
inline value_t load_pivot(value_t& slot, index_t j) {
  if (fault::armed()) {
    if (const auto v = fault::Injector::instance().pivot_override(j)) {
      slot = static_cast<value_t>(*v);
    }
  }
  const value_t diag = slot;
  if (diag == value_t{0} || !std::isfinite(diag)) {
    throw ZeroPivotError(j, diag);
  }
  return diag;
}

/// Algorithm 6: binary search for row `i` inside sorted CSC column `j`.
/// Returns the value position; the fill-in theorem guarantees presence
/// for every (i,k) the right-looking update touches, so absence is a
/// symbolic-phase bug and trips the check. Adds ceil(log2(len)) to *ops.
inline offset_t bsearch_position(const Csc& csc, index_t j, index_t i,
                                 std::uint64_t& ops) {
  offset_t fs = csc.col_ptr[j];
  offset_t fe = csc.col_ptr[j + 1] - 1;
  while (fe >= fs) {
    ++ops;
    const offset_t mid = (fs + fe) / 2;
    if (csc.row_idx[mid] == i) return mid;
    if (csc.row_idx[mid] > i) {
      fe = mid - 1;
    } else {
      fs = mid + 1;
    }
  }
  E2ELU_CHECK_MSG(false, "update target (" << i << "," << j
                                           << ") missing from the fill "
                                              "pattern");
  return -1;
}

/// Column j's sub-columns are the strictly-upper entries of pattern row
/// j: CSR positions [first_sub_column(m, j), row_ptr[j + 1]), a suffix of
/// the row because rows are sorted.
inline offset_t first_sub_column(const FactorMatrix& m, index_t j) {
  const auto cols = m.pattern.row_cols(j);
  return m.pattern.row_ptr[j] +
         (std::upper_bound(cols.begin(), cols.end(), j) - cols.begin());
}

/// Number of rows of L(:,j): the updates each live sub-column receives.
inline offset_t l_length(const FactorMatrix& m, index_t j) {
  return m.csc.col_ptr[j + 1] - m.diag_pos[j] - 1;
}

/// Lines 2-6 of Algorithm 2: loads and checks column j's pivot, then
/// divides L(:,j) by it. `at(p)` is the storage of CSC position p of
/// column j in the executor's format. Returns the ops charged: one per
/// divided element.
template <class At>
inline std::uint64_t divide_column(const FactorMatrix& m, index_t j,
                                   At&& at) {
  const offset_t dp = m.diag_pos[j];
  const offset_t col_end = m.csc.col_ptr[j + 1];
  const value_t diag = load_pivot(at(dp), j);
  for (offset_t p = dp + 1; p < col_end; ++p) at(p) /= diag;
  return static_cast<std::uint64_t>(col_end - dp - 1);
}

/// Lines 7-15 of Algorithm 2 for one sub-column k of column j:
/// As(i_t,k) -= L(i_t,j) * U(j,k) for the `len` rows i_t of L(:,j).
/// `src(t)` reads L(i_t,j) and `dst(t)` is As(i_t,k)'s storage in the
/// executor's format — a dense slot, a task-list destination, or
/// Algorithm 6's binary search, which charges its probes to `ops` itself.
/// Charges one op for the U(j,k) read and one per update. A zero U(j,k)
/// is a numerically dead sub-column: nothing is updated and this returns
/// false.
template <class Src, class Dst>
inline bool update_sub_column(value_t ujk, offset_t len, Src&& src,
                              Dst&& dst, std::uint64_t& ops) {
  ++ops;
  if (ujk == value_t{0}) return false;
  for (offset_t t = 0; t < len; ++t) {
    atomic_sub(dst(t), src(t) * ujk);
    ++ops;
  }
  return true;
}

/// Algorithm 2's column step for column j in one block: divide_column
/// through `at`, then update(rp, ops) for every sub-column rp in pattern
/// order. Returns the ops charged.
template <class At, class Update>
inline std::uint64_t process_column(const FactorMatrix& m, index_t j,
                                    At&& at, Update&& update) {
  std::uint64_t ops = divide_column(m, j, at);
  for (offset_t rp = first_sub_column(m, j); rp < m.pattern.row_ptr[j + 1];
       ++rp) {
    update(rp, ops);
  }
  return ops;
}

/// Element access of the CSC formats (binary search and replay): As's own
/// value array.
inline auto csc_at(FactorMatrix& m) {
  return [&m](offset_t p) -> value_t& { return m.csc.values[p]; };
}

/// The sparse format's sub-column update for CSR position rp of row j: L
/// and U(j,k) read in place, each As(i,k) found by Algorithm 6.
inline bool update_sub_column_bsearch(FactorMatrix& m, index_t j,
                                      offset_t rp, std::uint64_t& ops) {
  const index_t k = m.pattern.col_idx[rp];
  const offset_t l0 = m.diag_pos[j] + 1;
  return update_sub_column(
      m.csc.values[m.csr_pos_to_csc[rp]], l_length(m, j),
      [&](offset_t t) { return m.csc.values[l0 + t]; },
      [&](offset_t t) -> value_t& {
        return m.csc.values[bsearch_position(m.csc, k, m.csc.row_idx[l0 + t],
                                             ops)];
      },
      ops);
}

/// Factorizes column j of `m` in place with binary-search element access.
/// Used by the sequential reference, the sparse GPU executor, and the
/// sharded executor. `sub_column_hook(k, l_len)` fires once per
/// numerically live sub-column target k (with l_len update contributions
/// landed in column k) — the sharded executor tallies cross-device
/// contribution traffic through it. The hook observes only; the update
/// arithmetic and its order are identical for every caller, which is what
/// makes sharded factors bit-identical to single-device ones.
template <class SubColumnHook>
inline std::uint64_t process_column_sparse(FactorMatrix& m, index_t j,
                                           SubColumnHook&& sub_column_hook) {
  return process_column(
      m, j, csc_at(m), [&](offset_t rp, std::uint64_t& ops) {
        if (update_sub_column_bsearch(m, j, rp, ops)) {
          sub_column_hook(m.pattern.col_idx[rp], l_length(m, j));
        }
      });
}

inline std::uint64_t process_column_sparse(FactorMatrix& m, index_t j) {
  return process_column_sparse(m, j, [](index_t, offset_t) {});
}

/// Fused-cluster predecessors of column j for the ready-flag protocol
/// (scheduling/ready_flags.hpp): calls wait(i) for each column whose
/// completion j's work reads — the strictly-upper rows of CSC column j (U
/// side — they wrote As(:,j)) and the strictly-lower entries of pattern
/// row j (L side — they wrote the As(j,k) multipliers) — restricted to
/// levels inside [cluster_first_level, level(j)). Charges `ctx` one op per
/// dependency edge checked — *not* per spin iteration, which would make
/// simulated time depend on host thread scheduling.
template <class Wait>
inline void wait_cluster_predecessors(const FactorMatrix& m,
                                      const scheduling::LevelSchedule& s,
                                      index_t cluster_first_level, index_t j,
                                      gpusim::KernelContext& ctx,
                                      Wait&& wait) {
  const index_t lj = s.level[j];
  auto wait_on = [&](index_t i) {
    ctx.add_ops(1);
    const index_t li = s.level[i];
    if (li >= cluster_first_level && li < lj) {
      wait(static_cast<std::size_t>(i));
    }
  };
  for (offset_t p = m.csc.col_ptr[j]; p < m.diag_pos[j]; ++p) {
    wait_on(m.csc.row_idx[p]);
  }
  const auto cols = m.pattern.row_cols(j);
  for (auto it = cols.begin(); it != cols.end() && *it < j; ++it) {
    wait_on(*it);
  }
}

/// Width-weighted mean warp efficiency over a cluster's levels — the
/// efficiency the single fused launch is charged with.
inline double cluster_warp_eff(const LevelPlan& plan,
                               const scheduling::LevelSchedule& s, index_t lo,
                               index_t hi) {
  double sum = 0;
  index_t cols = 0;
  for (index_t l = lo; l < hi; ++l) {
    const index_t w = s.level_width(l);
    sum += plan.warp_eff[l] * w;
    cols += w;
  }
  return cols == 0 ? 1.0 : sum / cols;
}

/// The frame every device executor runs in: the wall timer, the
/// kernel-ops delta, and the level plan — the caller's cached one or a
/// local one built from opt.fusion, so classification and clustering
/// happen once per factorize — checked against the schedule. The
/// executor supplies one cluster body; run() drives it through the shared
/// cluster loop (run_clusters: resident or windowed per opt.window).
///
/// With `upload_mirrors`, a resident run also uploads As's arrays
/// (DeviceFactorMatrix) for its lifetime, unless the caller already holds
/// them (opt.device_resident); a windowed run keeps no full-size mirrors,
/// only the window arena is charged against device memory.
class ExecutorFrame {
 public:
  ExecutorFrame(gpusim::Device& dev, const FactorMatrix& m,
                const scheduling::LevelSchedule& s, const NumericOptions& opt,
                const LevelPlan* cached_plan, bool upload_mirrors)
      : dev_(dev),
        m_(m),
        s_(s),
        window_(opt.window),
        ops_before_(dev.stats().kernel_ops) {
    if (cached_plan == nullptr) {
      local_plan_.emplace(build_level_plan(m, s, dev.spec(), opt.fusion));
    }
    plan_ = cached_plan != nullptr ? cached_plan : &*local_plan_;
    E2ELU_CHECK_MSG(
        plan_->type.size() == static_cast<std::size_t>(s.num_levels()),
        "level plan does not match the schedule");
    if (upload_mirrors && !opt.device_resident && !opt.window.enabled) {
      mirrors_.emplace(dev, m);
    }
  }

  const LevelPlan& plan() const { return *plan_; }
  /// The executor's own counters; run() adds ops, wall time and the
  /// window's.
  NumericStats& stats() { return stats_; }

  /// Runs levels [lo, hi) as one fused launch `name` on `stream`, charged
  /// with the cluster's width-weighted warp efficiency: block b owns
  /// column j = level_cols[level_ptr[lo] + b], waits on its in-cluster
  /// predecessors, then runs work(p, j, ctx) with p its schedule position.
  /// Books the cluster into `stats`, the numeric.fused_levels counter and
  /// a numeric.cluster span carrying the chain-vs-charged cost pair.
  template <class ColumnWork>
  void run_fused_cluster(index_t lo, index_t hi, const char* name,
                         gpusim::Stream* stream, const char* format,
                         ColumnWork&& work) {
    const index_t first_pos = s_.level_ptr[lo];
    const index_t width = s_.level_ptr[hi] - first_pos;
    if (!flags_) flags_.emplace(static_cast<std::size_t>(m_.n()));
    trace::Span span("numeric.cluster", dev_,
                     {{"first_level", lo},
                      {"levels", hi - lo},
                      {"columns", width},
                      {"format", format}});
    const scheduling::FusedCost cost = flags_->launch(
        dev_,
        {.name = name,
         .blocks = width,
         .threads_per_block = 256,
         .warp_efficiency = cluster_warp_eff(*plan_, s_, lo, hi),
         .fused_levels = static_cast<int>(hi - lo),
         .stream = stream},
        [&](std::int64_t b, gpusim::KernelContext& ctx) {
          const index_t p = first_pos + static_cast<index_t>(b);
          const index_t j = s_.level_cols[p];
          flags_->run_block(
              static_cast<std::size_t>(j), ctx,
              [&](auto&& wait) {
                wait_cluster_predecessors(m_, s_, lo, j, ctx, wait);
              },
              [&] { work(p, j, ctx); });
        });
    span.attr("chain_us", cost.chain_us);
    span.attr("charged_us", cost.charged_us);
    stats_.fused_levels += hi - lo;
    ++stats_.fused_clusters;
    trace::MetricsRegistry::global()
        .counter("numeric.fused_levels")
        .add(static_cast<std::uint64_t>(hi - lo));
  }

  NumericStats run(const ExecuteClusterFn& execute_cluster) {
    run_clusters(dev_, m_, s_, *plan_, window_, stats_, execute_cluster);
    stats_.ops = dev_.stats().kernel_ops - ops_before_;
    stats_.wall_ms = timer_.millis();
    return stats_;
  }

 private:
  WallTimer timer_;
  NumericStats stats_;
  gpusim::Device& dev_;
  const FactorMatrix& m_;
  const scheduling::LevelSchedule& s_;
  const WindowOptions& window_;
  std::uint64_t ops_before_;
  std::optional<LevelPlan> local_plan_;
  const LevelPlan* plan_ = nullptr;
  std::optional<DeviceFactorMatrix> mirrors_;
  std::optional<scheduling::ReadyFlags> flags_;  ///< fused clusters only
};

}  // namespace e2elu::numeric::detail
