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
#include "numeric/numeric.hpp"
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
  detail::ExecutorFrame frame(dev, m, s, opt, &plan,
                              /*upload_mirrors=*/false);
  E2ELU_CHECK_MSG(replay.level_ptr.size() ==
                      static_cast<std::size_t>(s.num_levels()) + 1,
                  "replay plan does not match the schedule");
  const bool unified = storage.tasks_unified.has_value();

  // Managed task lists prefetch the slice of sub-columns [sc0, sc1) ahead
  // of the kernel that reads it — the paper's own answer to
  // managed-memory fault storms (Figure 5).
  auto prefetch = [&](offset_t sc0, offset_t sc1) {
    if (!unified) return;
    const std::uint32_t t0 = replay.task_start[sc0];
    const std::uint32_t t1 = replay.task_start[sc1];
    if (t1 > t0) storage.tasks_unified->prefetch(t0, t1 - t0);
  };

  // The replay format's sub-column update: L(:,j) and U(j,k) read in
  // place, destinations straight from the task list.
  auto update = [&](offset_t sc, std::uint64_t& ops) {
    gpusim::UnifiedBuffer<std::uint32_t>::Stream pages;
    const std::uint32_t t0 = replay.task_start[sc];
    const std::uint32_t src = replay.src_start[sc];
    detail::update_sub_column(
        m.csc.values[replay.ujk_pos[sc]], replay.task_start[sc + 1] - t0,
        [&](offset_t t) { return m.csc.values[src + t]; },
        [&](offset_t t) -> value_t& {
          const std::size_t task = t0 + static_cast<std::size_t>(t);
          return m.csc.values[unified
                                  ? storage.tasks_unified->gpu_at(pages, task)
                                  : (*storage.tasks_device)[task]];
        },
        ops);
  };

  const scheduling::ClusterSchedule& cs = plan.clusters;
  return frame.run([&](index_t cl, gpusim::Stream* stream) {
    const index_t lo = cs.first_level(cl);
    const index_t hi = cs.end_level(cl);

    if (cs.is_fused(cl)) {
      E2ELU_CHECK_MSG(replay.col_sub_ptr.size() ==
                          static_cast<std::size_t>(m.n()) + 1,
                      "replay plan lacks per-column sub-column ranges "
                      "needed for fused execution");
      // One prefetch for the whole cluster's task slice — coarser than
      // the per-level prefetch below, which is the point: fewer calls.
      prefetch(replay.level_ptr[lo], replay.level_ptr[hi]);
      frame.run_fused_cluster(
          lo, hi, "replay_fused", stream, "replay",
          [&](index_t p, index_t j, gpusim::KernelContext& ctx) {
            // The plan lists column j's sub-columns in pattern-row order
            // from col_sub_ptr[p]: the column step visits them in that
            // order too.
            ctx.add_ops(detail::process_column(
                m, j, detail::csc_at(m),
                [&, sc = replay.col_sub_ptr[p]](offset_t,
                                                std::uint64_t& ops) mutable {
                  update(sc++, ops);
                }));
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
                .stream = stream},
               [&](std::int64_t b, gpusim::KernelContext& ctx) {
                 const index_t j =
                     s.level_cols[s.level_ptr[l] + static_cast<index_t>(b)];
                 ctx.add_ops(detail::divide_column(m, j, detail::csc_at(m)));
               });

    const offset_t sub_begin = replay.level_ptr[l];
    const offset_t sub_end = replay.level_ptr[l + 1];
    if (sub_begin == sub_end) return;
    prefetch(sub_begin, sub_end);
    dev.launch({.name = "replay_update",
                .blocks = sub_end - sub_begin,
                .threads_per_block = 256,
                .warp_efficiency = warp_eff,
                .stream = stream},
               [&](std::int64_t b, gpusim::KernelContext& ctx) {
                 std::uint64_t ops = 0;
                 update(sub_begin + static_cast<offset_t>(b), ops);
                 ctx.add_ops(ops);
               });
  });
}

}  // namespace e2elu::numeric
