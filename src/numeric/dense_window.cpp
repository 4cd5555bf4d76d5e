// GLU3.0-style dense-window numeric executor.
//
// Active columns are scattered into dense length-n arrays so element
// access is direct indexing. The window holds M = free_bytes /
// (n * sizeof(value_t)) columns; a batch must fit every column it
// factorizes *and* every sub-column those updates write, so wide levels
// are processed in multiple scatter/factor/gather rounds and the block
// count per factor kernel never exceeds M — the concurrency ceiling
// Table 4 reports and Figure 8 shows the sparse format removing.

#include <algorithm>
#include <memory>
#include <optional>
#include <vector>

#include "gpusim/device_buffer.hpp"
#include "numeric/column_kernel.hpp"
#include "numeric/factor_window.hpp"
#include "numeric/numeric.hpp"
#include "support/timer.hpp"
#include "trace/trace.hpp"

namespace e2elu::numeric {

namespace {

/// One scatter/factor/gather round: the columns it factorizes plus the
/// dense slots it has claimed (factor columns and their sub-columns).
struct Batch {
  std::vector<index_t> factor_cols;
  std::vector<index_t> slot_cols;  ///< column resident in each slot
};

}  // namespace

NumericStats factorize_dense_window(gpusim::Device& dev, FactorMatrix& m,
                                    const scheduling::LevelSchedule& s,
                                    const NumericOptions& opt,
                                    const LevelPlan* plan) {
  WallTimer timer;
  NumericStats stats;
  const std::uint64_t ops_before = dev.stats().kernel_ops;
  const index_t n = m.n();
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

  std::optional<DeviceFactorMatrix> mirrors;
  if (!opt.device_resident && !opt.window.enabled) mirrors.emplace(dev, m);

  const index_t window = max_parallel_dense_columns(dev.free_bytes(), n);
  E2ELU_CHECK_MSG(window >= 2,
                  "device cannot hold two dense columns of length "
                      << n << "; use the sparse binary-search format");
  stats.window_columns = window;
  gpusim::DeviceBuffer<value_t> dense(
      dev, static_cast<std::size_t>(window) * static_cast<std::size_t>(n));

  // slot_of[col] = dense slot while resident in the current batch.
  std::vector<index_t> slot_of(static_cast<std::size_t>(n), -1);

  auto dense_at = [&](index_t slot, index_t row) -> value_t& {
    return dense[static_cast<std::size_t>(slot) * n + row];
  };

  auto scatter = [&](const Batch& b, double warp_eff) {
    dev.launch({.name = "dense_scatter",
                .blocks = static_cast<std::int64_t>(b.slot_cols.size()),
                .threads_per_block = 256,
                .warp_efficiency = warp_eff},
               [&](std::int64_t sl, gpusim::KernelContext& ctx) {
                 const index_t col = b.slot_cols[static_cast<std::size_t>(sl)];
                 const auto slot = static_cast<index_t>(sl);
                 for (offset_t p = m.csc.col_ptr[col];
                      p < m.csc.col_ptr[col + 1]; ++p) {
                   dense_at(slot, m.csc.row_idx[p]) = m.csc.values[p];
                   ctx.add_ops(1);
                 }
               });
  };
  auto gather = [&](const Batch& b, double warp_eff) {
    dev.launch({.name = "dense_gather",
                .blocks = static_cast<std::int64_t>(b.slot_cols.size()),
                .threads_per_block = 256,
                .warp_efficiency = warp_eff},
               [&](std::int64_t sl, gpusim::KernelContext& ctx) {
                 const index_t col = b.slot_cols[static_cast<std::size_t>(sl)];
                 const auto slot = static_cast<index_t>(sl);
                 for (offset_t p = m.csc.col_ptr[col];
                      p < m.csc.col_ptr[col + 1]; ++p) {
                   m.csc.values[p] = dense_at(slot, m.csc.row_idx[p]);
                   ctx.add_ops(1);
                 }
               });
  };

  /// Factorizes one column against dense-resident sub-columns.
  auto process_column_dense = [&](index_t j,
                                  gpusim::KernelContext& ctx) {
    std::uint64_t ops = 0;
    const index_t jslot = slot_of[j];
    const value_t diag = detail::load_pivot(dense_at(jslot, j), j);
    const offset_t dp = m.diag_pos[j];
    const offset_t col_end = m.csc.col_ptr[j + 1];
    for (offset_t p = dp + 1; p < col_end; ++p) {
      dense_at(jslot, m.csc.row_idx[p]) /= diag;
      ++ops;
    }
    for (offset_t rp = m.pattern.row_ptr[j]; rp < m.pattern.row_ptr[j + 1];
         ++rp) {
      const index_t k = m.pattern.col_idx[rp];
      if (k <= j) continue;
      const index_t kslot = slot_of[k];
      const value_t ujk = dense_at(kslot, j);
      ++ops;
      if (ujk == value_t{0}) continue;
      for (offset_t p = dp + 1; p < col_end; ++p) {
        const index_t i = m.csc.row_idx[p];
        // Direct dense indexing — the O(1) access the format buys.
        detail::atomic_sub(dense_at(kslot, i),
                           dense_at(jslot, i) * ujk);
        ++ops;
      }
    }
    ctx.add_ops(ops);
  };

  /// GLU3.0 type-C mode for one column: a one-block division kernel, then
  /// an update kernel with a block per sub-column — the batch is too
  /// narrow for block-per-column to occupy the device.
  auto factor_column_subparallel = [&](index_t j, double warp_eff,
                                       gpusim::Stream* stream) {
    const index_t jslot = slot_of[j];
    dev.launch({.name = "dense_div_C",
                .blocks = 1,
                .threads_per_block = 256,
                .warp_efficiency = warp_eff,
                .stream = stream},
               [&](std::int64_t, gpusim::KernelContext& ctx) {
                 const value_t diag =
                     detail::load_pivot(dense_at(jslot, j), j);
                 for (offset_t p = m.diag_pos[j] + 1;
                      p < m.csc.col_ptr[j + 1]; ++p) {
                   dense_at(jslot, m.csc.row_idx[p]) /= diag;
                   ctx.add_ops(1);
                 }
               });
    std::vector<index_t> subs;
    for (offset_t rp = m.pattern.row_ptr[j]; rp < m.pattern.row_ptr[j + 1];
         ++rp) {
      if (m.pattern.col_idx[rp] > j) subs.push_back(m.pattern.col_idx[rp]);
    }
    if (subs.empty()) return;
    dev.launch({.name = "dense_update_C",
                .blocks = static_cast<std::int64_t>(subs.size()),
                .threads_per_block = 256,
                .warp_efficiency = warp_eff,
                .stream = stream},
               [&](std::int64_t b, gpusim::KernelContext& ctx) {
                 std::uint64_t ops = 0;
                 const index_t k2 = subs[static_cast<std::size_t>(b)];
                 const index_t kslot = slot_of[k2];
                 const value_t ujk = dense_at(kslot, j);
                 ++ops;
                 if (ujk != value_t{0}) {
                   for (offset_t p = m.diag_pos[j] + 1;
                        p < m.csc.col_ptr[j + 1]; ++p) {
                     const index_t i = m.csc.row_idx[p];
                     detail::atomic_sub(dense_at(kslot, i),
                                        dense_at(jslot, i) * ujk);
                     ++ops;
                   }
                 }
                 ctx.add_ops(ops);
               });
  };

  // The kernel mode follows the GLU3.0 level taxonomy (set per level in
  // the loop below): narrow type-C levels parallelize over sub-columns;
  // wide levels use block-per-column even when the window forces small
  // batches — the batches of one level pipeline through the same grid.
  scheduling::LevelType level_type = scheduling::LevelType::A;

  // Streams the per-column type-C launches rotate over. The serial
  // scatter/gather kernels are full barriers, so batches stay ordered.
  std::vector<std::unique_ptr<gpusim::Stream>> streams;
  for (int i = 1; i < opt.async_streams; ++i) {
    streams.push_back(std::make_unique<gpusim::Stream>(dev));
  }

  auto run_batch = [&](Batch& b, double warp_eff) {
    if (b.factor_cols.empty()) return;
    scatter(b, warp_eff);
    if (level_type != scheduling::LevelType::C) {
      // Type A/B: block per column.
      dev.launch({.name = "dense_factor",
                  .blocks = static_cast<std::int64_t>(b.factor_cols.size()),
                  .threads_per_block = 256,
                  .warp_efficiency = warp_eff},
                 [&](std::int64_t i, gpusim::KernelContext& ctx) {
                   process_column_dense(
                       b.factor_cols[static_cast<std::size_t>(i)], ctx);
                 });
    } else {
      for (std::size_t i = 0; i < b.factor_cols.size(); ++i) {
        factor_column_subparallel(
            b.factor_cols[i], warp_eff,
            streams.empty() ? nullptr : streams[i % streams.size()].get());
      }
    }
    gather(b, warp_eff);
    for (index_t c : b.slot_cols) slot_of[c] = -1;
    b.factor_cols.clear();
    b.slot_cols.clear();
    ++stats.num_batches;
  };

  auto claim_slot = [&](Batch& b, index_t col) {
    if (slot_of[col] >= 0) return;
    slot_of[col] = static_cast<index_t>(b.slot_cols.size());
    b.slot_cols.push_back(col);
  };

  auto run_level = [&](index_t l) {
    const double warp_eff = plan->warp_eff[l];
    level_type = plan->type[l];
    TRACE_SPAN("numeric.level", dev,
               {{"level", l},
                {"width", s.level_width(l)},
                {"type", scheduling::level_type_name(level_type)},
                {"format", "dense"},
                {"window", window}});
    Batch batch;
    for (index_t k = s.level_ptr[l]; k < s.level_ptr[l + 1]; ++k) {
      const index_t j = s.level_cols[k];
      // Slots this column needs that the batch does not already hold.
      std::vector<index_t> wanted{j};
      for (offset_t rp = m.pattern.row_ptr[j]; rp < m.pattern.row_ptr[j + 1];
           ++rp) {
        if (m.pattern.col_idx[rp] > j) wanted.push_back(m.pattern.col_idx[rp]);
      }
      index_t new_slots = 0;
      for (index_t c : wanted) {
        if (slot_of[c] < 0) ++new_slots;
      }

      if (static_cast<index_t>(batch.slot_cols.size()) + new_slots > window) {
        run_batch(batch, warp_eff);
        // The flush released every resident column, so this column now
        // needs its full footprint.
        new_slots = static_cast<index_t>(wanted.size());
        // A single column whose footprint exceeds the window: factor it
        // alone, streaming its sub-columns through the window in groups.
        if (new_slots > window) {
          claim_slot(batch, j);
          scatter(batch, warp_eff);
          dev.launch({.name = "dense_div_huge",
                      .blocks = 1,
                      .threads_per_block = 256,
                      .warp_efficiency = warp_eff},
                     [&](std::int64_t, gpusim::KernelContext& ctx) {
                       const index_t jslot = slot_of[j];
                       const value_t diag =
                           detail::load_pivot(dense_at(jslot, j), j);
                       for (offset_t p = m.diag_pos[j] + 1;
                            p < m.csc.col_ptr[j + 1]; ++p) {
                         dense_at(jslot, m.csc.row_idx[p]) /= diag;
                         ctx.add_ops(1);
                       }
                     });
          gather(batch, warp_eff);  // write L(:,j) back before streaming
          const index_t jslot_keep = 0;
          // Stream sub-columns in groups of window-1 (slot 0 pins j).
          std::vector<index_t> subs;
          for (offset_t rp = m.pattern.row_ptr[j];
               rp < m.pattern.row_ptr[j + 1]; ++rp) {
            if (m.pattern.col_idx[rp] > j) subs.push_back(m.pattern.col_idx[rp]);
          }
          slot_of[j] = jslot_keep;  // keep j resident across groups
          for (std::size_t g = 0; g < subs.size();
               g += static_cast<std::size_t>(window - 1)) {
            Batch group;
            group.slot_cols.push_back(j);  // slot 0
            const std::size_t end = std::min(
                subs.size(), g + static_cast<std::size_t>(window - 1));
            for (std::size_t t = g; t < end; ++t) {
              slot_of[subs[t]] = static_cast<index_t>(group.slot_cols.size());
              group.slot_cols.push_back(subs[t]);
            }
            scatter(group, warp_eff);
            dev.launch(
                {.name = "dense_update_huge",
                 .blocks = static_cast<std::int64_t>(end - g),
                 .threads_per_block = 256,
                 .warp_efficiency = warp_eff},
                [&](std::int64_t b, gpusim::KernelContext& ctx) {
                  std::uint64_t ops = 0;
                  const index_t k2 = subs[g + static_cast<std::size_t>(b)];
                  const index_t kslot = slot_of[k2];
                  const value_t ujk = dense_at(kslot, j);
                  ++ops;
                  if (ujk != value_t{0}) {
                    for (offset_t p = m.diag_pos[j] + 1;
                         p < m.csc.col_ptr[j + 1]; ++p) {
                      const index_t i = m.csc.row_idx[p];
                      detail::atomic_sub(dense_at(kslot, i),
                                         dense_at(0, i) * ujk);
                      ++ops;
                    }
                  }
                  ctx.add_ops(ops);
                });
            // Gather only the sub-columns; j itself is unchanged here.
            Batch sub_only;
            sub_only.slot_cols.assign(group.slot_cols.begin() + 1,
                                      group.slot_cols.end());
            // Temporarily renumber for gather's slot indexing.
            for (std::size_t t = 0; t < sub_only.slot_cols.size(); ++t) {
              slot_of[sub_only.slot_cols[t]] = static_cast<index_t>(t + 1);
            }
            dev.launch({.name = "dense_gather",
                        .blocks =
                            static_cast<std::int64_t>(sub_only.slot_cols.size()),
                        .threads_per_block = 256,
                        .warp_efficiency = warp_eff},
                       [&](std::int64_t sl, gpusim::KernelContext& ctx) {
                         const index_t col =
                             sub_only.slot_cols[static_cast<std::size_t>(sl)];
                         const index_t slot = static_cast<index_t>(sl) + 1;
                         for (offset_t p = m.csc.col_ptr[col];
                              p < m.csc.col_ptr[col + 1]; ++p) {
                           m.csc.values[p] = dense_at(slot, m.csc.row_idx[p]);
                           ctx.add_ops(1);
                         }
                       });
            for (index_t c : sub_only.slot_cols) slot_of[c] = -1;
            ++stats.num_batches;
          }
          slot_of[j] = -1;
          batch = Batch{};  // the pinned slot for j is released
          continue;
        }
      }
      for (index_t c : wanted) claim_slot(batch, c);
      batch.factor_cols.push_back(j);
    }
    run_batch(batch, warp_eff);
  };

  std::optional<scheduling::ReadyFlags> flags;  // fused clusters only
  const scheduling::ClusterSchedule& cs = plan->clusters;
  auto execute_cluster = [&](index_t cl) {
    const index_t lo = cs.first_level(cl);
    const index_t hi = cs.end_level(cl);

    if (cs.is_fused(cl)) {
      // A fused cluster needs its whole footprint — every factor column
      // plus every sub-column they update — resident at once: there is no
      // level boundary left to gather/re-scatter at. If the window cannot
      // hold it, this cluster falls back to the per-level path.
      Batch batch;
      bool fits = true;
      for (index_t p = s.level_ptr[lo]; p < s.level_ptr[hi] && fits; ++p) {
        const index_t j = s.level_cols[p];
        claim_slot(batch, j);
        for (offset_t rp = m.pattern.row_ptr[j];
             rp < m.pattern.row_ptr[j + 1]; ++rp) {
          if (m.pattern.col_idx[rp] > j) {
            claim_slot(batch, m.pattern.col_idx[rp]);
          }
        }
        fits = static_cast<index_t>(batch.slot_cols.size()) <= window;
      }
      if (!fits) {
        for (index_t c2 : batch.slot_cols) slot_of[c2] = -1;
        for (index_t l = lo; l < hi; ++l) run_level(l);
        return;
      }

      const double warp_eff = detail::cluster_warp_eff(*plan, s, lo, hi);
      scatter(batch, warp_eff);
      detail::run_fused_cluster(
          dev, m, s, lo, hi,
          {.name = "dense_fused",
           .threads_per_block = 256,
           .warp_efficiency = warp_eff},
          "dense", flags, stats,
          [&](index_t, index_t j, gpusim::KernelContext& ctx) {
            process_column_dense(j, ctx);
          });
      gather(batch, warp_eff);
      for (index_t c2 : batch.slot_cols) slot_of[c2] = -1;
      ++stats.num_batches;
      return;
    }

    run_level(lo);
  };

  if (opt.window.enabled) {
    // Windowed dense mode models residency and transfer accounting only:
    // the scatter/factor/gather kernels launch on the default stream (a
    // full barrier in the sim), so the window's prefetches cannot overlap
    // them — the stall counters reflect that. The sparse and replay
    // executors are the paths where the overlap is real; this one exists
    // so the dense format stays usable out-of-core.
    detail::run_windowed(dev, m, s, *plan, opt.window, stats,
                         [&](index_t cl, gpusim::Stream&) {
                           execute_cluster(cl);
                         });
  } else {
    for (index_t cl = 0; cl < cs.num_clusters(); ++cl) {
      execute_cluster(cl);
    }
  }

  stats.ops = dev.stats().kernel_ops - ops_before;
  stats.wall_ms = timer.millis();
  return stats;
}

}  // namespace e2elu::numeric
