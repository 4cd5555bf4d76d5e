// Internal building blocks shared by the numeric executors: the atomic
// update, Algorithm 6's binary search, the per-column factorization step
// of Algorithm 2, and the numeric side of fused-cluster execution.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <optional>

#include "fault/fault.hpp"
#include "gpusim/device.hpp"
#include "numeric/numeric.hpp"
#include "scheduling/ready_flags.hpp"
#include "support/check.hpp"
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
/// Every executor's division step goes through here, so this is both the
/// single zero/NaN-pivot detection point and the fault-injection point: an
/// armed pivot clause overwrites the stored value first, exactly as if the
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

/// Factorizes column j of `m` in place with binary-search element access
/// (lines 2-6 of Algorithm 2, then the sub-column updates of lines 7-15).
/// Used by the sequential reference, the sparse GPU executor, and the
/// sharded executor. `sub_column_hook(k, l_len)` fires once per
/// numerically live sub-column target k (with l_len update contributions
/// about to land in column k) — the sharded executor tallies cross-device
/// contribution traffic through it. The hook observes only; the update
/// arithmetic and its order are identical for every caller, which is what
/// makes sharded factors bit-identical to single-device ones.
template <class SubColumnHook>
inline std::uint64_t process_column_sparse(FactorMatrix& m, index_t j,
                                           SubColumnHook&& sub_column_hook) {
  std::uint64_t ops = 0;
  const offset_t dp = m.diag_pos[j];
  const value_t diag = load_pivot(m.csc.values[dp], j);

  const offset_t col_end = m.csc.col_ptr[j + 1];
  for (offset_t p = dp + 1; p < col_end; ++p) {
    m.csc.values[p] /= diag;  // L(:,j); entries below the diagonal
    ++ops;
  }

  // Sub-columns: the strictly-upper entries of pattern row j.
  for (offset_t rp = m.pattern.row_ptr[j]; rp < m.pattern.row_ptr[j + 1];
       ++rp) {
    const index_t k = m.pattern.col_idx[rp];
    if (k <= j) continue;
    const value_t ujk = m.csc.values[m.csr_pos_to_csc[rp]];
    ++ops;
    if (ujk == value_t{0}) continue;  // numerically dead sub-column
    sub_column_hook(k, static_cast<offset_t>(col_end - dp - 1));
    for (offset_t p = dp + 1; p < col_end; ++p) {
      const index_t i = m.csc.row_idx[p];
      const value_t lij = m.csc.values[p];
      const offset_t pos = bsearch_position(m.csc, k, i, ops);
      atomic_sub(m.csc.values[pos], lij * ujk);
      ++ops;
    }
  }
  return ops;
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

/// Runs levels [lo, hi) of `s` as one fused launch (`cfg` supplies name,
/// block size, efficiency and stream; grid and fused_levels are filled
/// in): block b owns column j = level_cols[level_ptr[lo] + b], waits on its
/// in-cluster predecessors, then runs work(p, j, ctx) with p its schedule
/// position. `flags` is allocated on first use and shared by every
/// cluster of the factorization. Books the cluster into `stats`, the
/// numeric.fused_levels counter and a numeric.cluster span carrying the
/// chain-vs-charged cost pair.
template <class ColumnWork>
inline void run_fused_cluster(gpusim::Device& dev, const FactorMatrix& m,
                              const scheduling::LevelSchedule& s, index_t lo,
                              index_t hi, gpusim::LaunchConfig cfg,
                              const char* format,
                              std::optional<scheduling::ReadyFlags>& flags,
                              NumericStats& stats, ColumnWork&& work) {
  const index_t first_pos = s.level_ptr[lo];
  const index_t width = s.level_ptr[hi] - first_pos;
  if (!flags) flags.emplace(static_cast<std::size_t>(m.n()));
  trace::Span span("numeric.cluster", dev,
                   {{"first_level", lo},
                    {"levels", hi - lo},
                    {"columns", width},
                    {"format", format}});
  cfg.blocks = width;
  cfg.fused_levels = static_cast<int>(hi - lo);
  const scheduling::FusedCost cost = flags->launch(
      dev, cfg, [&](std::int64_t b, gpusim::KernelContext& ctx) {
        const index_t p = first_pos + static_cast<index_t>(b);
        const index_t j = s.level_cols[p];
        flags->run_block(
            static_cast<std::size_t>(j), ctx,
            [&](auto&& wait) {
              wait_cluster_predecessors(m, s, lo, j, ctx, wait);
            },
            [&] { work(p, j, ctx); });
      });
  span.attr("chain_us", cost.chain_us);
  span.attr("charged_us", cost.charged_us);
  stats.fused_levels += hi - lo;
  ++stats.fused_clusters;
  trace::MetricsRegistry::global()
      .counter("numeric.fused_levels")
      .add(static_cast<std::uint64_t>(hi - lo));
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

/// Mean strictly-lower column length over one level — drives the
/// warp-efficiency estimate for its kernels.
inline double mean_l_length(const FactorMatrix& m,
                            const scheduling::LevelSchedule& s, index_t l) {
  std::uint64_t total = 0;
  for (index_t k = s.level_ptr[l]; k < s.level_ptr[l + 1]; ++k) {
    const index_t j = s.level_cols[k];
    total += static_cast<std::uint64_t>(m.csc.col_ptr[j + 1] -
                                        m.diag_pos[j] - 1);
  }
  const index_t width = s.level_ptr[l + 1] - s.level_ptr[l];
  return width == 0 ? 0.0 : static_cast<double>(total) / width;
}

/// Mean sub-column count over one level — the other axis of the GLU3.0
/// level taxonomy.
inline double mean_sub_columns(const FactorMatrix& m,
                               const scheduling::LevelSchedule& s,
                               index_t l) {
  std::uint64_t total = 0;
  for (index_t k = s.level_ptr[l]; k < s.level_ptr[l + 1]; ++k) {
    const index_t j = s.level_cols[k];
    // Strictly-upper length of pattern row j equals the CSR row length
    // minus the lower-and-diagonal prefix.
    const auto cols = m.pattern.row_cols(j);
    const auto it = std::upper_bound(cols.begin(), cols.end(), j);
    total += static_cast<std::uint64_t>(cols.end() - it);
  }
  const index_t width = s.level_ptr[l + 1] - s.level_ptr[l];
  return width == 0 ? 0.0 : static_cast<double>(total) / width;
}

}  // namespace e2elu::numeric::detail
