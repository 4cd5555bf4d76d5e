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
#include <string>
#include <vector>

#include "gpusim/device_buffer.hpp"
#include "numeric/column_kernel.hpp"
#include "numeric/numeric.hpp"
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
                                    const LevelPlan* cached_plan) {
  detail::ExecutorFrame frame(dev, m, s, opt, cached_plan,
                              /*upload_mirrors=*/true);
  const LevelPlan& plan = frame.plan();
  NumericStats& stats = frame.stats();
  const index_t n = m.n();

  const index_t window = max_parallel_dense_columns(dev.free_bytes(), n);
  if (window < 2) {
    // A device OOM, not a usage error: the device may hold the sparse
    // mirrors but not two dense columns, and the caller's recovery
    // answers a numeric OOM with the sparse format.
    throw gpusim::OutOfDeviceMemory(
        "device cannot hold two dense columns of length " +
        std::to_string(n) + "; use the sparse binary-search format");
  }
  stats.window_columns = window;
  gpusim::DeviceBuffer<value_t> dense(
      dev, static_cast<std::size_t>(window) * static_cast<std::size_t>(n));

  // slot_of[col] = dense slot while resident in the current batch.
  std::vector<index_t> slot_of(static_cast<std::size_t>(n), -1);

  auto dense_at = [&](index_t slot, index_t row) -> value_t& {
    return dense[static_cast<std::size_t>(slot) * n + row];
  };

  // The dense format's element access: CSC position p of a resident
  // column j lives at its row in j's slot — the O(1) access the format
  // buys.
  auto column_at = [&](index_t j) {
    return [&, slot = slot_of[j]](offset_t p) -> value_t& {
      return dense_at(slot, m.csc.row_idx[p]);
    };
  };
  auto update = [&](index_t j, offset_t rp, std::uint64_t& ops) {
    const index_t jslot = slot_of[j];
    const index_t kslot = slot_of[m.pattern.col_idx[rp]];
    const index_t* rows = m.csc.row_idx.data() + m.diag_pos[j] + 1;  // i_t
    detail::update_sub_column(
        dense_at(kslot, j), detail::l_length(m, j),
        [&](offset_t t) { return dense_at(jslot, rows[t]); },
        [&](offset_t t) -> value_t& { return dense_at(kslot, rows[t]); },
        ops);
  };
  auto process_column = [&](index_t j) {
    return detail::process_column(
        m, j, column_at(j),
        [&](offset_t rp, std::uint64_t& ops) { update(j, rp, ops); });
  };

  auto launch = [&](const char* name, std::size_t blocks, double warp_eff,
                    const gpusim::KernelBody& body) {
    dev.launch({.name = name,
                .blocks = static_cast<std::int64_t>(blocks),
                .threads_per_block = 256,
                .warp_efficiency = warp_eff},
               body);
  };
  auto scatter = [&](const Batch& b, double warp_eff) {
    launch("dense_scatter", b.slot_cols.size(), warp_eff,
           [&](std::int64_t sl, gpusim::KernelContext& ctx) {
             const index_t col = b.slot_cols[static_cast<std::size_t>(sl)];
             for (offset_t p = m.csc.col_ptr[col]; p < m.csc.col_ptr[col + 1];
                  ++p) {
               dense_at(static_cast<index_t>(sl), m.csc.row_idx[p]) =
                   m.csc.values[p];
               ctx.add_ops(1);
             }
           });
  };
  // Writes slots [first_slot, size) back to As.
  auto gather = [&](const Batch& b, double warp_eff,
                    std::size_t first_slot = 0) {
    launch("dense_gather", b.slot_cols.size() - first_slot, warp_eff,
           [&](std::int64_t sl, gpusim::KernelContext& ctx) {
             const std::size_t slot = first_slot + static_cast<std::size_t>(sl);
             const index_t col = b.slot_cols[slot];
             for (offset_t p = m.csc.col_ptr[col]; p < m.csc.col_ptr[col + 1];
                  ++p) {
               m.csc.values[p] =
                   dense_at(static_cast<index_t>(slot), m.csc.row_idx[p]);
               ctx.add_ops(1);
             }
           });
  };

  // GLU3.0 type-C mode for one column: a one-block division kernel, then
  // an update kernel with a block per sub-column in [first, first + count).
  auto div_kernel = [&](const char* name, index_t j, double warp_eff) {
    launch(name, 1, warp_eff, [&](std::int64_t, gpusim::KernelContext& ctx) {
      ctx.add_ops(detail::divide_column(m, j, column_at(j)));
    });
  };
  auto update_kernel = [&](const char* name, index_t j, offset_t first,
                           offset_t count, double warp_eff) {
    launch(name, static_cast<std::size_t>(count), warp_eff,
           [&](std::int64_t b, gpusim::KernelContext& ctx) {
             std::uint64_t ops = 0;
             update(j, first + static_cast<offset_t>(b), ops);
             ctx.add_ops(ops);
           });
  };

  auto claim_slot = [&](Batch& b, index_t col) {
    if (slot_of[col] >= 0) return;
    slot_of[col] = static_cast<index_t>(b.slot_cols.size());
    b.slot_cols.push_back(col);
  };
  // Column j plus every sub-column its updates write.
  auto claim_footprint = [&](Batch& b, index_t j) {
    claim_slot(b, j);
    for (offset_t rp = detail::first_sub_column(m, j);
         rp < m.pattern.row_ptr[j + 1]; ++rp) {
      claim_slot(b, m.pattern.col_idx[rp]);
    }
  };
  auto release = [&](Batch& b) {
    for (index_t c : b.slot_cols) slot_of[c] = -1;
    b = Batch{};
  };

  // The kernel mode follows the GLU3.0 level taxonomy: narrow type-C
  // levels parallelize over sub-columns; wide levels use block-per-column
  // even when the window forces small batches — the batches of one level
  // pipeline through the same grid.
  auto run_batch = [&](Batch& b, scheduling::LevelType type,
                       double warp_eff) {
    if (b.factor_cols.empty()) return;
    scatter(b, warp_eff);
    if (type != scheduling::LevelType::C) {
      // Type A/B: block per column.
      launch("dense_factor", b.factor_cols.size(), warp_eff,
             [&](std::int64_t i, gpusim::KernelContext& ctx) {
               ctx.add_ops(
                   process_column(b.factor_cols[static_cast<std::size_t>(i)]));
             });
    } else {
      for (const index_t j : b.factor_cols) {
        div_kernel("dense_div_C", j, warp_eff);
        const offset_t first = detail::first_sub_column(m, j);
        const offset_t count = m.pattern.row_ptr[j + 1] - first;
        if (count > 0) {
          update_kernel("dense_update_C", j, first, count, warp_eff);
        }
      }
    }
    gather(b, warp_eff);
    release(b);
    ++stats.num_batches;
  };

  // A single column whose footprint exceeds the window: factor it alone,
  // streaming its sub-columns through the window in groups of window - 1
  // (slot 0 pins j).
  auto run_huge_column = [&](index_t j, double warp_eff) {
    Batch pinned;
    claim_slot(pinned, j);
    scatter(pinned, warp_eff);
    div_kernel("dense_div_huge", j, warp_eff);
    gather(pinned, warp_eff);  // write L(:,j) back before streaming
    const offset_t first = detail::first_sub_column(m, j);
    const offset_t end = m.pattern.row_ptr[j + 1];
    for (offset_t g = first; g < end; g += window - 1) {
      const offset_t group_end = std::min<offset_t>(end, g + window - 1);
      Batch group = pinned;
      for (offset_t rp = g; rp < group_end; ++rp) {
        claim_slot(group, m.pattern.col_idx[rp]);
      }
      scatter(group, warp_eff);
      update_kernel("dense_update_huge", j, g, group_end - g, warp_eff);
      // Gather only the sub-columns; j itself is unchanged here.
      gather(group, warp_eff, 1);
      for (std::size_t t = 1; t < group.slot_cols.size(); ++t) {
        slot_of[group.slot_cols[t]] = -1;
      }
      ++stats.num_batches;
    }
    release(pinned);
  };

  auto run_level = [&](index_t l) {
    const double warp_eff = plan.warp_eff[l];
    const scheduling::LevelType type = plan.type[l];
    TRACE_SPAN("numeric.level", dev,
               {{"level", l},
                {"width", s.level_width(l)},
                {"type", scheduling::level_type_name(type)},
                {"format", "dense"},
                {"window", window}});
    Batch batch;
    for (index_t k = s.level_ptr[l]; k < s.level_ptr[l + 1]; ++k) {
      const index_t j = s.level_cols[k];
      // Slots this column needs that the batch does not already hold.
      const offset_t first = detail::first_sub_column(m, j);
      const offset_t footprint = 1 + m.pattern.row_ptr[j + 1] - first;
      offset_t new_slots = slot_of[j] < 0 ? 1 : 0;
      for (offset_t rp = first; rp < m.pattern.row_ptr[j + 1]; ++rp) {
        if (slot_of[m.pattern.col_idx[rp]] < 0) ++new_slots;
      }
      if (static_cast<offset_t>(batch.slot_cols.size()) + new_slots > window) {
        run_batch(batch, type, warp_eff);
        // The flush released every resident column, so this column now
        // needs its full footprint.
        if (footprint > window) {
          run_huge_column(j, warp_eff);
          continue;
        }
      }
      claim_footprint(batch, j);
      batch.factor_cols.push_back(j);
    }
    run_batch(batch, type, warp_eff);
  };

  const scheduling::ClusterSchedule& cs = plan.clusters;
  // The window (when enabled) models residency and transfer accounting
  // only: the scatter/factor/gather kernels launch on the default stream
  // (a full barrier in the sim), so the window's prefetches cannot overlap
  // them — the stall counters reflect that. The sparse and replay
  // executors are the paths where the overlap is real; this one ignores
  // the stream so the dense format stays usable out-of-core.
  return frame.run([&](index_t cl, gpusim::Stream*) {
    const index_t lo = cs.first_level(cl);
    const index_t hi = cs.end_level(cl);
    if (!cs.is_fused(cl)) {
      run_level(lo);
      return;
    }

    // A fused cluster needs its whole footprint — every factor column
    // plus every sub-column they update — resident at once: there is no
    // level boundary left to gather/re-scatter at. If the window cannot
    // hold it, this cluster falls back to the per-level path.
    Batch batch;
    for (index_t p = s.level_ptr[lo]; p < s.level_ptr[hi]; ++p) {
      claim_footprint(batch, s.level_cols[p]);
      if (static_cast<index_t>(batch.slot_cols.size()) > window) {
        release(batch);
        for (index_t l = lo; l < hi; ++l) run_level(l);
        return;
      }
    }
    const double warp_eff = detail::cluster_warp_eff(plan, s, lo, hi);
    scatter(batch, warp_eff);
    frame.run_fused_cluster(
        lo, hi, "dense_fused", nullptr, "dense",
        [&](index_t, index_t j, gpusim::KernelContext& ctx) {
          ctx.add_ops(process_column(j));
        });
    gather(batch, warp_eff);
    release(batch);
    ++stats.num_batches;
  });
}

}  // namespace e2elu::numeric
