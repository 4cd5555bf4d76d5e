// Sequential reference executor and the sparse binary-search GPU executor
// (§3.4, Algorithm 6) with GLU3.0's type-A/B/C level kernels.

#include "numeric/column_kernel.hpp"
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
                                      const LevelPlan* cached_plan) {
  // Device residency: As in CSC (values + structure), the CSR pattern for
  // sub-column walks, and the position map. All nnz-sized — this is the
  // point of the sparse format: no O(n)-per-column window.
  detail::ExecutorFrame frame(dev, m, s, opt, cached_plan,
                              /*upload_mirrors=*/true);
  const LevelPlan& plan = frame.plan();

  const scheduling::ClusterSchedule& cs = plan.clusters;
  // The factorized values already live in m.csc.values (device mirrors
  // share storage with the FactorMatrix in this simulation); an on-GPU
  // pipeline would hand them straight to the triangular solves.
  return frame.run([&](index_t c, gpusim::Stream* stream) {
    const index_t lo = cs.first_level(c);
    const index_t hi = cs.end_level(c);

    if (cs.is_fused(c)) {
      // Fused super-level: one launch, block per column, intra-cluster
      // dependencies resolved through ready flags.
      frame.run_fused_cluster(
          lo, hi, "numeric_fused", stream, "sparse",
          [&](index_t, index_t j, gpusim::KernelContext& ctx) {
            ctx.add_ops(detail::process_column_sparse(m, j));
          });
      return;
    }

    const index_t l = lo;
    const index_t width = s.level_width(l);
    const double warp_eff = plan.warp_eff[l];
    const scheduling::LevelType type = plan.type[l];
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
        dev.launch({.name = "numeric_div_C",
                    .blocks = 1,
                    .threads_per_block = 256,
                    .warp_efficiency = warp_eff,
                    .stream = stream},
                   [&](std::int64_t, gpusim::KernelContext& ctx) {
                     ctx.add_ops(
                         detail::divide_column(m, j, detail::csc_at(m)));
                   });
        const offset_t first = detail::first_sub_column(m, j);
        const offset_t subs = m.pattern.row_ptr[j + 1] - first;
        if (subs == 0) continue;  // next column of the level
        dev.launch({.name = "numeric_update_C",
                    .blocks = subs,
                    .threads_per_block = 256,
                    .warp_efficiency = warp_eff,
                    .stream = stream},
                   [&](std::int64_t b, gpusim::KernelContext& ctx) {
                     std::uint64_t ops = 0;
                     detail::update_sub_column_bsearch(
                         m, j, first + static_cast<offset_t>(b), ops);
                     ctx.add_ops(ops);
                   });
      }
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
                  .stream = stream},
                 [&](std::int64_t b, gpusim::KernelContext& ctx) {
                   const index_t j =
                       s.level_cols[s.level_ptr[l] + static_cast<index_t>(b)];
                   ctx.add_ops(detail::process_column_sparse(m, j));
                 });
    }
  });
}

}  // namespace e2elu::numeric
