#include "numeric/factor_window.hpp"

#include <algorithm>
#include <cmath>

#include "support/check.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu::numeric {

std::size_t window_column_bytes(const FactorMatrix& m, index_t j) {
  const offset_t nnz = m.csc.col_ptr[j + 1] - m.csc.col_ptr[j];
  return static_cast<std::size_t>(nnz) * (sizeof(value_t) + sizeof(index_t));
}

WindowPlan build_window_plan(const FactorMatrix& m,
                             const scheduling::LevelSchedule& s,
                             const scheduling::ClusterSchedule& cs,
                             std::size_t budget_bytes, int prefetch_ahead) {
  E2ELU_CHECK_MSG(budget_bytes > 0, "factor window budget must be positive");
  WindowPlan plan;
  plan.budget_bytes = budget_bytes;
  plan.prefetch_ahead = std::max(0, prefetch_ahead);
  plan.capacity_bytes = std::max<std::size_t>(
      budget_bytes / static_cast<std::size_t>(1 + plan.prefetch_ahead), 1);

  const index_t n = m.n();
  const index_t num_clusters = cs.num_clusters();

  // Per-cluster resident footprint: own columns plus distinct sub-column
  // update targets, deduplicated with a stamp array.
  std::vector<index_t> stamp(static_cast<std::size_t>(n), -1);
  auto visit_cluster = [&](index_t c, index_t mark, auto&& on_col) {
    for (index_t l = cs.first_level(c); l < cs.end_level(c); ++l) {
      for (index_t p = s.level_ptr[l]; p < s.level_ptr[l + 1]; ++p) {
        const index_t j = s.level_cols[p];
        if (stamp[j] != mark) {
          stamp[j] = mark;
          on_col(j);
        }
        for (offset_t rp = m.pattern.row_ptr[j]; rp < m.pattern.row_ptr[j + 1];
             ++rp) {
          const index_t k = m.pattern.col_idx[rp];
          if (k > j && stamp[k] != mark) {
            stamp[k] = mark;
            on_col(k);
          }
        }
      }
    }
  };

  std::vector<std::size_t> cluster_bytes(static_cast<std::size_t>(num_clusters),
                                         0);
  for (index_t c = 0; c < num_clusters; ++c) {
    visit_cluster(c, c, [&](index_t j) {
      cluster_bytes[c] += window_column_bytes(m, j);
    });
  }

  plan.group_ptr = scheduling::build_window_groups(
      cs, plan.capacity_bytes,
      [&](index_t c) { return cluster_bytes[c]; });

  // Per-group resident set (deduplicated across the group's clusters) and
  // refetch counts: a column already fetched by an earlier group was
  // spilled when that group retired, so fetching it again is a refetch.
  const index_t num_groups = plan.num_groups();
  plan.group_bytes.assign(static_cast<std::size_t>(num_groups), 0);
  plan.group_cols.assign(static_cast<std::size_t>(num_groups), 0);
  plan.group_refetches.assign(static_cast<std::size_t>(num_groups), 0);
  std::fill(stamp.begin(), stamp.end(), -1);
  std::vector<index_t> last_fetch(static_cast<std::size_t>(n), -1);
  for (index_t g = 0; g < num_groups; ++g) {
    for (index_t c = plan.first_cluster(g); c < plan.end_cluster(g); ++c) {
      visit_cluster(c, num_clusters + g, [&](index_t j) {
        plan.group_bytes[g] += window_column_bytes(m, j);
        ++plan.group_cols[g];
        if (last_fetch[j] >= 0) ++plan.group_refetches[g];
        last_fetch[j] = g;
      });
    }
  }
  return plan;
}

FactorWindow::FactorWindow(gpusim::Device& dev, WindowPlan plan)
    : dev_(dev),
      plan_(std::move(plan)),
      arena_(dev, plan_.budget_bytes),
      xfer_(dev),
      compute_(dev),
      fetch_done_(static_cast<std::size_t>(plan_.num_groups())),
      fetched_(static_cast<std::size_t>(plan_.num_groups()), 0) {}

void FactorWindow::fetch_group(index_t g, bool lookahead) {
  const std::size_t bytes = plan_.group_bytes[g];
  if (bytes > plan_.budget_bytes) {
    // Overweight group (one cluster bigger than the whole ring): stream
    // it through the arena with a synchronous copy — transfer serializes
    // instead of overlapping, but the allocation stays within budget.
    dev_.copy_h2d(bytes);
  } else {
    dev_.copy_h2d_async(bytes, xfer_);
  }
  fetch_done_[g].record(xfer_);
  fetched_[g] = 1;
  resident_bytes_ += bytes;
  fetch_bytes_ += bytes;
  if (lookahead) ++prefetch_count_;
  next_fetch_ = std::max(next_fetch_, g + 1);
}

void FactorWindow::begin_group(index_t g) {
  if (!fetched_[g]) fetch_group(g, /*lookahead=*/false);
  // Issue the lookahead fetches before blocking on g's: the transfer
  // stream is FIFO, so they queue behind g's copy without delaying it and
  // run while the compute stream chews on g.
  while (next_fetch_ < plan_.num_groups() &&
         next_fetch_ <= g + plan_.prefetch_ahead) {
    if (resident_bytes_ + plan_.group_bytes[next_fetch_] > plan_.budget_bytes)
      break;
    fetch_group(next_fetch_, /*lookahead=*/true);
  }
  const double stall =
      std::max(0.0, fetch_done_[g].timestamp_us() - compute_.ready_us());
  stall_us_ += stall;
  compute_.wait(fetch_done_[g]);
}

void FactorWindow::retire_group(index_t g) {
  // The write-back must see the group's finished values: order it after
  // the compute work queued so far.
  gpusim::Event done;
  done.record(compute_);
  const std::size_t bytes = plan_.group_bytes[g];
  if (bytes > plan_.budget_bytes) {
    dev_.copy_d2h(bytes);
  } else {
    xfer_.wait(done);
    dev_.copy_d2h_async(bytes, xfer_);
  }
  resident_bytes_ -= bytes;
  // Every resident column spills at retirement: the group's own columns
  // are final (all their writers are at earlier levels), the update
  // targets spill partially and refetch on demand later.
  evicted_cols_ += plan_.group_cols[g];
}

void FactorWindow::finish(NumericStats& stats) {
  dev_.synchronize();
  std::uint64_t refetches = 0;
  for (const std::uint64_t r : plan_.group_refetches) refetches += r;
  stats.window_groups += static_cast<std::uint64_t>(plan_.num_groups());
  stats.window_evictions += evicted_cols_;
  stats.window_prefetches += prefetch_count_;
  stats.window_refetches += refetches;
  stats.window_fetch_bytes += fetch_bytes_;
  stats.window_stall_us += stall_us_;

  auto& mr = trace::MetricsRegistry::global();
  mr.counter("numeric.window.groups")
      .add(static_cast<std::uint64_t>(plan_.num_groups()));
  mr.counter("numeric.window.evictions").add(evicted_cols_);
  mr.counter("numeric.window.prefetches").add(prefetch_count_);
  mr.counter("numeric.window.refetches").add(refetches);
  mr.counter("numeric.window.fetch_bytes").add(fetch_bytes_);
  mr.counter("numeric.window.stall_us")
      .add(static_cast<std::uint64_t>(std::llround(stall_us_)));
}

namespace detail {

void run_clusters(gpusim::Device& dev, const FactorMatrix& m,
                  const scheduling::LevelSchedule& s, const LevelPlan& plan,
                  const WindowOptions& wopt, NumericStats& stats,
                  const ExecuteClusterFn& execute_cluster) {
  if (!wopt.enabled) {
    for (index_t c = 0; c < plan.clusters.num_clusters(); ++c) {
      execute_cluster(c, nullptr);
    }
    return;
  }
  const std::size_t budget =
      wopt.budget_bytes != 0 ? wopt.budget_bytes : dev.free_bytes();
  WindowPlan wp =
      build_window_plan(m, s, plan.clusters, budget, wopt.prefetch_ahead);
  FactorWindow win(dev, std::move(wp));
  const index_t num_groups = win.plan().num_groups();
  for (index_t g = 0; g < num_groups; ++g) {
    TRACE_SPAN("numeric.window.group", dev,
               {{"group", g},
                {"clusters", win.plan().end_cluster(g) -
                                 win.plan().first_cluster(g)},
                {"bytes", static_cast<std::int64_t>(
                              win.plan().group_bytes[g])}});
    win.begin_group(g);
    for (index_t c = win.plan().first_cluster(g); c < win.plan().end_cluster(g);
         ++c) {
      execute_cluster(c, &win.compute_stream());
    }
    win.retire_group(g);
  }
  win.finish(stats);
}

}  // namespace detail

}  // namespace e2elu::numeric
