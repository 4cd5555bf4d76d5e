// Sequential reference executor and the sparse binary-search GPU executor
// (§3.4, Algorithm 6) with GLU3.0's type-A/B/C level kernels.

#include <algorithm>
#include <memory>
#include <optional>

#include "gpusim/device_buffer.hpp"
#include "numeric/column_kernel.hpp"
#include "numeric/factor_window.hpp"
#include "numeric/numeric.hpp"
#include "support/timer.hpp"
#include "trace/trace.hpp"

namespace e2elu::numeric {

NumericStats factorize_reference(FactorMatrix& m,
                                 const scheduling::LevelSchedule& s) {
  WallTimer timer;
  NumericStats stats;
  for (index_t l = 0; l < s.num_levels(); ++l) {
    for (index_t k = s.level_ptr[l]; k < s.level_ptr[l + 1]; ++k) {
      stats.ops += detail::process_column_sparse(m, s.level_cols[k]);
    }
  }
  stats.wall_ms = timer.millis();
  return stats;
}

NumericStats factorize_sparse_bsearch(gpusim::Device& dev, FactorMatrix& m,
                                      const scheduling::LevelSchedule& s,
                                      const NumericOptions& opt,
                                      const LevelPlan* plan) {
  WallTimer timer;
  NumericStats stats;
  const std::uint64_t ops_before = dev.stats().kernel_ops;
  // A caller with no cached plan gets a local one: classification (and
  // clustering) happen once per factorize instead of once per level.
  std::optional<LevelPlan> local_plan;
  if (plan == nullptr) {
    local_plan.emplace(build_level_plan(m, s, dev.spec(), opt.fusion));
    plan = &*local_plan;
  }
  E2ELU_CHECK_MSG(plan->type.size() ==
                      static_cast<std::size_t>(s.num_levels()),
                  "level plan does not match the schedule");

  // Device residency: As in CSC (values + structure), the CSR pattern for
  // sub-column walks, and the position map. All nnz-sized — this is the
  // point of the sparse format: no O(n)-per-column window. A caller that
  // already holds the arrays resident (the refactorization path) skips
  // the per-call allocation and upload.
  std::optional<DeviceFactorMatrix> mirrors;
  if (!opt.device_resident && !opt.window.enabled) mirrors.emplace(dev, m);

  // Streams the per-column type-C launches rotate over (async execution:
  // independent columns of one level overlap in the sim clock).
  std::vector<std::unique_ptr<gpusim::Stream>> streams;
  for (int i = 1; i < opt.async_streams; ++i) {
    streams.push_back(std::make_unique<gpusim::Stream>(dev));
  }
  std::optional<scheduling::ReadyFlags> flags;  // fused clusters only

  const scheduling::ClusterSchedule& cs = plan->clusters;
  // The whole per-cluster body, parameterized on the stream its launches
  // go to: null for the classic serial path (type-C columns then rotate
  // over the async streams), the window's compute stream in out-of-core
  // mode (all launches on one stream so the prefetch stream overlaps it).
  auto execute_cluster = [&](index_t c, gpusim::Stream* wstream) {
    const index_t lo = cs.first_level(c);
    const index_t hi = cs.end_level(c);

    if (cs.is_fused(c)) {
      // Fused super-level: one launch, block per column, intra-cluster
      // dependencies resolved through ready flags.
      detail::run_fused_cluster(
          dev, m, s, lo, hi,
          {.name = "numeric_fused",
           .threads_per_block = 256,
           .warp_efficiency = detail::cluster_warp_eff(*plan, s, lo, hi),
           .stream = wstream},
          "sparse", flags, stats,
          [&](index_t, index_t j, gpusim::KernelContext& ctx) {
            ctx.add_ops(detail::process_column_sparse(m, j));
          });
      return;
    }

    const index_t l = lo;
    const index_t width = s.level_width(l);
    const double warp_eff = plan->warp_eff[l];
    const scheduling::LevelType type = plan->type[l];
    TRACE_SPAN("numeric.level", dev,
               {{"level", l},
                {"width", width},
                {"type", scheduling::level_type_name(type)},
                {"format", "sparse"}});

    if (type == scheduling::LevelType::C) {
      // Late, narrow levels: one kernel per column, one block per
      // sub-column — the parallelism lives in the sub-columns.
      for (index_t k = s.level_ptr[l]; k < s.level_ptr[l + 1]; ++k) {
        const index_t j = s.level_cols[k];
        // Columns of one level are independent: rotate them over the
        // streams (div and update of the same column stay in order on
        // theirs). The level boundary below is the only join point.
        gpusim::Stream* stream =
            wstream != nullptr
                ? wstream
                : (streams.empty()
                       ? nullptr
                       : streams[static_cast<std::size_t>(k - s.level_ptr[l]) %
                                 streams.size()]
                             .get());
        dev.launch({.name = "numeric_div_C",
                    .blocks = 1,
                    .threads_per_block = 256,
                    .warp_efficiency = warp_eff,
                    .stream = stream},
                   [&](std::int64_t, gpusim::KernelContext& ctx) {
                     const offset_t dp = m.diag_pos[j];
                     const value_t diag =
                         detail::load_pivot(m.csc.values[dp], j);
                     for (offset_t p = dp + 1; p < m.csc.col_ptr[j + 1];
                          ++p) {
                       m.csc.values[p] /= diag;
                       ctx.add_ops(1);
                     }
                   });

        // Collect the sub-column list once, then block per sub-column.
        std::vector<offset_t> sub_positions;
        for (offset_t rp = m.pattern.row_ptr[j];
             rp < m.pattern.row_ptr[j + 1]; ++rp) {
          if (m.pattern.col_idx[rp] > j) sub_positions.push_back(rp);
        }
        if (sub_positions.empty()) continue;  // next column of the level
        dev.launch(
            {.name = "numeric_update_C",
             .blocks = static_cast<std::int64_t>(sub_positions.size()),
             .threads_per_block = 256,
             .warp_efficiency = warp_eff,
             .stream = stream},
            [&](std::int64_t b, gpusim::KernelContext& ctx) {
              std::uint64_t ops = 0;
              const offset_t rp = sub_positions[static_cast<std::size_t>(b)];
              const index_t k2 = m.pattern.col_idx[rp];
              const value_t ujk = m.csc.values[m.csr_pos_to_csc[rp]];
              ++ops;
              if (ujk != value_t{0}) {
                const offset_t dp = m.diag_pos[j];
                for (offset_t p = dp + 1; p < m.csc.col_ptr[j + 1]; ++p) {
                  const index_t i = m.csc.row_idx[p];
                  const offset_t pos =
                      detail::bsearch_position(m.csc, k2, i, ops);
                  detail::atomic_sub(m.csc.values[pos],
                                     m.csc.values[p] * ujk);
                  ++ops;
                }
              }
              ctx.add_ops(ops);
            });
      }
      // Join the streams before the next level reads this one's results.
      // The windowed path needs no join: every launch is on the one
      // compute stream, already ordered.
      if (wstream == nullptr && !streams.empty()) dev.synchronize();
    } else {
      // Type A/B: one launch for the whole level, block per column. Full
      // occupancy whenever the level is wide — no M cap in this format.
      const char* name =
          type == scheduling::LevelType::A ? "numeric_level_A"
                                           : "numeric_level_B";
      dev.launch({.name = name,
                  .blocks = width,
                  .threads_per_block =
                      type == scheduling::LevelType::A ? 256 : 1024,
                  .warp_efficiency = warp_eff,
                  .stream = wstream},
                 [&](std::int64_t b, gpusim::KernelContext& ctx) {
                   const index_t j =
                       s.level_cols[s.level_ptr[l] + static_cast<index_t>(b)];
                   ctx.add_ops(detail::process_column_sparse(m, j));
                 });
    }
  };

  if (opt.window.enabled) {
    detail::run_windowed(dev, m, s, *plan, opt.window, stats,
                         [&](index_t c, gpusim::Stream& st) {
                           execute_cluster(c, &st);
                         });
  } else {
    for (index_t c = 0; c < cs.num_clusters(); ++c) {
      execute_cluster(c, nullptr);
    }
  }

  stats.ops = dev.stats().kernel_ops - ops_before;
  stats.wall_ms = timer.millis();

  // The factorized values already live in m.csc.values (device mirrors
  // share storage with the FactorMatrix in this simulation); an on-GPU
  // pipeline would hand them straight to the triangular solves.
  return stats;
}

}  // namespace e2elu::numeric
