// Task-list ("replay") numeric execution for the refactorization path.
//
// The discovery-mode executors locate every update target at run time —
// a dense scatter window (GLU3.0 baseline) or Algorithm 6's per-element
// binary search. Across a same-pattern sequence those positions never
// change, so a re-factorization engine resolves them once on the host
// (cuSOLVER-rf's and NICSLU's task lists) and the numeric phase becomes,
// per level, a div kernel plus one flat grid of independent sub-column
// update blocks. That flattening is also the occupancy fix: the type-C
// kernels launch 1-block grids per column, which on narrow tail levels
// leaves the device nearly idle, while a sub-column grid spans the whole
// level.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>

#include "numeric/column_kernel.hpp"
#include "numeric/factor_window.hpp"
#include "numeric/numeric.hpp"
#include "support/timer.hpp"
#include "trace/trace.hpp"

namespace e2elu::numeric {

ReplayPlan build_replay_plan(const FactorMatrix& m,
                             const scheduling::LevelSchedule& s) {
  ReplayPlan plan;

  // Positions are stored in 32 bits to keep the O(flops) task array at
  // half the footprint of offset_t; a pattern too large for that falls
  // back to binary search.
  std::uint64_t total_tasks = 0;
  for (index_t j = 0; j < m.n(); ++j) {
    const auto l_len = static_cast<std::uint64_t>(m.csc.col_ptr[j + 1] -
                                                  m.diag_pos[j] - 1);
    const auto cols = m.pattern.row_cols(j);
    const auto upper =
        cols.end() - std::upper_bound(cols.begin(), cols.end(), j);
    total_tasks += l_len * static_cast<std::uint64_t>(upper);
  }
  constexpr auto kMax = std::numeric_limits<std::uint32_t>::max();
  if (total_tasks >= kMax || m.csc.row_idx.size() >= kMax) return plan;

  plan.level_ptr.reserve(static_cast<std::size_t>(s.num_levels()) + 1);
  plan.col_sub_ptr.reserve(static_cast<std::size_t>(m.n()) + 1);
  plan.col_sub_ptr.push_back(0);
  plan.tasks.reserve(static_cast<std::size_t>(total_tasks));
  for (index_t l = 0; l < s.num_levels(); ++l) {
    plan.level_ptr.push_back(static_cast<offset_t>(plan.ujk_pos.size()));
    for (index_t c = s.level_ptr[l]; c < s.level_ptr[l + 1]; ++c) {
      const index_t j = s.level_cols[c];
      const offset_t dp = m.diag_pos[j];
      const offset_t col_end = m.csc.col_ptr[j + 1];
      for (offset_t rp = m.pattern.row_ptr[j]; rp < m.pattern.row_ptr[j + 1];
           ++rp) {
        const index_t k = m.pattern.col_idx[rp];
        if (k <= j) continue;
        plan.ujk_pos.push_back(
            static_cast<std::uint32_t>(m.csr_pos_to_csc[rp]));
        plan.src_start.push_back(static_cast<std::uint32_t>(dp + 1));
        plan.task_start.push_back(static_cast<std::uint32_t>(plan.tasks.size()));
        if (dp + 1 >= col_end) continue;
        // Targets are the rows of L(:,j): ascending, and every one present
        // in column k (Theorem 1), so one merge walk resolves them all.
        const auto k_begin = m.csc.row_idx.begin() + m.csc.col_ptr[k];
        const auto k_end = m.csc.row_idx.begin() + m.csc.col_ptr[k + 1];
        auto q = std::lower_bound(k_begin, k_end, m.csc.row_idx[dp + 1]);
        for (offset_t p = dp + 1; p < col_end; ++p) {
          const index_t i = m.csc.row_idx[p];
          while (q != k_end && *q != i) ++q;
          E2ELU_CHECK_MSG(q != k_end, "update target ("
                                          << i << "," << k
                                          << ") missing from the fill "
                                             "pattern");
          plan.tasks.push_back(
              static_cast<std::uint32_t>(q - m.csc.row_idx.begin()));
          ++q;
        }
      }
      plan.col_sub_ptr.push_back(static_cast<offset_t>(plan.ujk_pos.size()));
    }
  }
  plan.level_ptr.push_back(static_cast<offset_t>(plan.ujk_pos.size()));
  plan.task_start.push_back(static_cast<std::uint32_t>(plan.tasks.size()));
  return plan;
}

DeviceReplayPlan::DeviceReplayPlan(gpusim::Device& device,
                                   const ReplayPlan& plan)
    : ujk_pos(device, std::span(plan.ujk_pos)),
      src_start(device, std::span(plan.src_start)),
      task_start(device, std::span(plan.task_start)) {
  try {
    tasks_device.emplace(device, std::span(plan.tasks));
  } catch (const gpusim::OutOfDeviceMemory&) {
    // The O(flops) task array outgrew the device next to the resident
    // matrix structure: serve it from managed memory instead and let the
    // paging model charge what oversubscription actually costs.
    tasks_unified.emplace(device, plan.tasks.size());
    auto host = tasks_unified->host_span();
    std::copy(plan.tasks.begin(), plan.tasks.end(), host.begin());
  }
}

NumericStats factorize_replay(gpusim::Device& dev, FactorMatrix& m,
                              const scheduling::LevelSchedule& s,
                              const LevelPlan& plan, const ReplayPlan& replay,
                              DeviceReplayPlan& storage,
                              const NumericOptions& opt) {
  WallTimer timer;
  NumericStats stats;
  const std::uint64_t ops_before = dev.stats().kernel_ops;
  E2ELU_CHECK_MSG(plan.warp_eff.size() ==
                      static_cast<std::size_t>(s.num_levels()),
                  "level plan does not match the schedule");
  E2ELU_CHECK_MSG(replay.level_ptr.size() ==
                      static_cast<std::size_t>(s.num_levels()) + 1,
                  "replay plan does not match the schedule");
  const bool unified = storage.tasks_unified.has_value();

  // The per-sub-column update: destinations read straight from the task
  // list. Shared verbatim between the per-level update grid and the fused
  // per-column blocks, so both execute identical arithmetic in identical
  // order.
  auto apply_sub_column = [&](std::size_t sc, std::uint64_t& ops) {
    const value_t ujk = m.csc.values[replay.ujk_pos[sc]];
    ++ops;
    if (ujk == value_t{0}) return;
    gpusim::UnifiedBuffer<std::uint32_t>::Stream stream;
    const std::uint32_t t0 = replay.task_start[sc];
    const std::uint32_t t1 = replay.task_start[sc + 1];
    const std::uint32_t src = replay.src_start[sc];
    for (std::uint32_t t = t0; t < t1; ++t) {
      const std::uint32_t dst = unified
                                    ? storage.tasks_unified->gpu_at(stream, t)
                                    : (*storage.tasks_device)[t];
      detail::atomic_sub(m.csc.values[dst],
                         m.csc.values[src + (t - t0)] * ujk);
      ++ops;
    }
  };

  std::optional<scheduling::ReadyFlags> flags;  // fused clusters only
  const scheduling::ClusterSchedule& cs = plan.clusters;
  // The whole per-cluster body, parameterized on the stream its launches
  // go to: null for the classic serial path, the window's compute stream
  // in out-of-core mode (where the prefetch stream overlaps it).
  auto execute_cluster = [&](index_t cl, gpusim::Stream* wstream) {
    const index_t lo = cs.first_level(cl);
    const index_t hi = cs.end_level(cl);

    if (cs.is_fused(cl)) {
      E2ELU_CHECK_MSG(replay.col_sub_ptr.size() ==
                          static_cast<std::size_t>(m.n()) + 1,
                      "replay plan lacks per-column sub-column ranges "
                      "needed for fused execution");
      if (unified) {
        // One prefetch for the whole cluster's task slice — coarser than
        // the per-level prefetch below, which is the point: fewer calls.
        const std::uint32_t t0 = replay.task_start[replay.level_ptr[lo]];
        const std::uint32_t t1 = replay.task_start[replay.level_ptr[hi]];
        if (t1 > t0) storage.tasks_unified->prefetch(t0, t1 - t0);
      }
      detail::run_fused_cluster(
          dev, m, s, lo, hi,
          {.name = "replay_fused",
           .threads_per_block = 256,
           .warp_efficiency = detail::cluster_warp_eff(plan, s, lo, hi),
           .stream = wstream},
          "replay", flags, stats,
          [&](index_t p, index_t j, gpusim::KernelContext& ctx) {
            std::uint64_t ops = 0;
            const offset_t dp = m.diag_pos[j];
            const value_t diag = detail::load_pivot(m.csc.values[dp], j);
            for (offset_t q = dp + 1; q < m.csc.col_ptr[j + 1]; ++q) {
              m.csc.values[q] /= diag;
              ++ops;
            }
            for (offset_t sc = replay.col_sub_ptr[p];
                 sc < replay.col_sub_ptr[p + 1]; ++sc) {
              apply_sub_column(static_cast<std::size_t>(sc), ops);
            }
            ctx.add_ops(ops);
          });
      return;
    }

    const index_t l = lo;
    const double warp_eff = plan.warp_eff[l];
    TRACE_SPAN("numeric.level", dev,
               {{"level", l},
                {"width", s.level_width(l)},
                {"type", scheduling::level_type_name(plan.type[l])},
                {"format", "replay"},
                {"unified_tasks", unified ? 1 : 0}});
    dev.launch({.name = "replay_div",
                .blocks = s.level_width(l),
                .threads_per_block = 256,
                .warp_efficiency = warp_eff,
                .stream = wstream},
               [&](std::int64_t b, gpusim::KernelContext& ctx) {
                 const index_t j =
                     s.level_cols[s.level_ptr[l] + static_cast<index_t>(b)];
                 const offset_t dp = m.diag_pos[j];
                 const value_t diag =
                     detail::load_pivot(m.csc.values[dp], j);
                 std::uint64_t ops = 0;
                 for (offset_t p = dp + 1; p < m.csc.col_ptr[j + 1]; ++p) {
                   m.csc.values[p] /= diag;
                   ++ops;
                 }
                 ctx.add_ops(ops);
               });

    const offset_t sub_begin = replay.level_ptr[l];
    const offset_t sub_end = replay.level_ptr[l + 1];
    if (sub_begin == sub_end) return;
    if (unified) {
      // Prefetch this level's task slice ahead of the kernel — the
      // paper's own answer to managed-memory fault storms (Figure 5).
      const std::uint32_t t0 = replay.task_start[sub_begin];
      const std::uint32_t t1 = replay.task_start[sub_end];
      if (t1 > t0) storage.tasks_unified->prefetch(t0, t1 - t0);
    }
    dev.launch(
        {.name = "replay_update",
         .blocks = sub_end - sub_begin,
         .threads_per_block = 256,
         .warp_efficiency = warp_eff,
         .stream = wstream},
        [&](std::int64_t b, gpusim::KernelContext& ctx) {
          std::uint64_t ops = 0;
          apply_sub_column(static_cast<std::size_t>(sub_begin + b), ops);
          ctx.add_ops(ops);
        });
  };

  if (opt.window.enabled) {
    detail::run_windowed(dev, m, s, plan, opt.window, stats,
                         [&](index_t cl, gpusim::Stream& st) {
                           execute_cluster(cl, &st);
                         });
  } else {
    for (index_t cl = 0; cl < cs.num_clusters(); ++cl) {
      execute_cluster(cl, nullptr);
    }
  }

  stats.ops = dev.stats().kernel_ops - ops_before;
  stats.wall_ms = timer.millis();
  return stats;
}

}  // namespace e2elu::numeric
