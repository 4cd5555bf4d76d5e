// The GPU symbolic factorization (§3.2): one two-stage skeleton and the
// row runners that schedule it.
//
// The skeleton (two_stage_symbolic) is the paper's scheme, written once:
// symbolic_1 counts each row's fill, a device prefix sum sizes the CSR
// arrays, symbolic_2 writes each row's positions and sorts them. Its stage
// bodies are generic over the fill2 workspace, so a row runner supplies
// only where the per-row O(n) traversal scratch lives and how rows are
// scheduled — one launch per chunk of rows, or one launch for all:
//
//   Algorithm 3     every row in order, chunks sized so the scratch fits
//                   in device memory:
//                     chunk_size = free_device_bytes / scratch_bytes_per_row(n)
//   Algorithm 4     rows split at the point n1 where the frontier first
//                   becomes "large" (>= 50% of the peak); rows below n1 use
//                   queues bounded by the observed frontier (a much smaller
//                   footprint), so their chunks — and with them the number
//                   of concurrently resident thread blocks — are larger
//   unified memory  the full O(n^2) scratch as managed memory and every
//                   row in one launch per stage (Figures 5/6, Table 3):
//                   the capacity wall disappears from the code, and the
//                   cost, which this runner measures rather than assumes,
//                   is the page-fault traffic of irregular scratch accesses
//
// count_fill_out_of_core runs Algorithm 3's stage 1 alone: it is how the
// parallel ordering's fill gate sizes nnz(L+U) of its candidates. The
// chunked drivers accept such counts back: handed the stage-1 counts of
// exactly their input pattern, they upload them and skip symbolic_1.

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <mutex>
#include <numeric>
#include <optional>

#include "gpusim/device_buffer.hpp"
#include "gpusim/unified_buffer.hpp"
#include "support/check.hpp"
#include "symbolic/fill2.hpp"
#include "symbolic/symbolic.hpp"
#include "symbolic/workspace.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu::symbolic {

namespace {

double warp_eff_for(const gpusim::Device& dev, const Csr& a) {
  return dev.spec().simt_efficiency(a.nnz_per_row());
}

/// Sorting cost model for the symbolic_2 emit buffers: f * ceil(log2 f).
std::uint64_t sort_ops(std::size_t len) {
  if (len < 2) return len;
  return static_cast<std::uint64_t>(len) *
         static_cast<std::uint64_t>(std::bit_width(len - 1));
}

struct PassResult {
  index_t chunk_rows = 0;
  index_t num_chunks = 0;
};

/// Runs one chunked kernel pass over `rows` with queue capacity `qcap`.
/// `body(row, ws, ctx)` returns true if the row overflowed its bounded
/// queues; such rows are appended to *overflow for reprocessing (must be
/// non-null whenever qcap < n).
template <typename Body>
PassResult chunked_pass(gpusim::Device& dev, const Csr& a,
                        std::span<const index_t> rows, std::size_t qcap,
                        double warp_eff, const char* name, const Body& body,
                        std::vector<index_t>* overflow) {
  PassResult pr;
  if (rows.empty()) return pr;
  const index_t n = a.n;
  const std::size_t slots = PlainWorkspace::slots(n, qcap);
  const std::size_t bytes_per_row = slots * sizeof(index_t);
  const std::size_t free = dev.free_bytes();
  E2ELU_CHECK_MSG(free >= bytes_per_row,
                  "device cannot hold even one row's symbolic scratch ("
                      << bytes_per_row << " bytes needed, " << free
                      << " free)");
  std::size_t chunk =
      std::min<std::size_t>(rows.size(), free / bytes_per_row);
  // The computed chunk fits free_bytes by construction, but the free-space
  // probe races other consumers (and fault injection fails allocations
  // outright), so the scratch allocation keeps halving the chunk until it
  // lands. Smaller chunks only cost extra kernel iterations — the result
  // is identical.
  std::optional<gpusim::DeviceBuffer<index_t>> ws_buf;
  for (;;) {
    try {
      ws_buf.emplace(dev, chunk * slots);
      break;
    } catch (const gpusim::OutOfDeviceMemory&) {
      if (chunk <= 1) throw;
      chunk /= 2;
      trace::MetricsRegistry::global()
          .counter("recovery.symbolic.chunk_retry")
          .add(1);
    }
  }
  ws_buf->fill(-1);  // visit stamps: -1 never equals a row id

  std::mutex overflow_mutex;
  pr.chunk_rows = static_cast<index_t>(chunk);
  pr.num_chunks = static_cast<index_t>((rows.size() + chunk - 1) / chunk);
  for (std::size_t begin = 0; begin < rows.size(); begin += chunk) {
    const std::size_t count = std::min(chunk, rows.size() - begin);
    TRACE_SPAN("symbolic.chunk", dev,
               {{"stage", name},
                {"chunk", begin / chunk},
                {"rows", count},
                {"queue_cap", qcap}});
    dev.launch(
        {.name = name,
         .blocks = static_cast<std::int64_t>(count),
         .threads_per_block = 256,
         .warp_efficiency = warp_eff},
        [&](std::int64_t b, gpusim::KernelContext& ctx) {
          const index_t row = rows[begin + static_cast<std::size_t>(b)];
          std::span<index_t> slice{
              ws_buf->data() + static_cast<std::size_t>(b) * slots, slots};
          PlainWorkspace ws = PlainWorkspace::from_slice_bounded(slice, n, qcap);
          if (body(row, ws, ctx)) {
            E2ELU_CHECK_MSG(overflow != nullptr,
                            "row " << row << " overflowed a full-size queue");
            std::lock_guard<std::mutex> lock(overflow_mutex);
            overflow->push_back(row);
          }
        });
  }
  return pr;
}

// The two-stage skeleton. A row runner `run_pass(kernel, body)` launches
// `body(row, ws, ctx)` — generic over the workspace, true when the row
// overflowed bounded queues — once for every row of one stage, and
// returns the stage's chunking.

/// Stage 1 (symbolic_1): every row's fill count into `counts`.
template <typename Runner>
PassResult count_stage(const Csr& a, const char* kernel, Runner&& run_pass,
                       gpusim::DeviceBuffer<index_t>& counts) {
  return run_pass(kernel, [&](index_t row, auto& ws,
                              gpusim::KernelContext& ctx) {
    const RowStats st = fill2_row(a, row, ws, [](index_t) {});
    if (st.overflow) return true;
    counts[static_cast<std::size_t>(row)] = st.fill_count;
    ctx.add_ops(st.ops);
    return false;
  });
}

/// Algorithm 3's row schedule: every row in order, one block per row,
/// full-size queues, chunks sized to the device's free memory.
auto all_rows_runner(gpusim::Device& dev, const Csr& a) {
  std::vector<index_t> rows(static_cast<std::size_t>(a.n));
  std::iota(rows.begin(), rows.end(), 0);
  return [&dev, &a, rows = std::move(rows),
          warp_eff = warp_eff_for(dev, a)](const char* kernel,
                                           const auto& body) {
    return chunked_pass(dev, a, rows, static_cast<std::size_t>(a.n),
                        warp_eff, kernel, body, nullptr);
  };
}

void check_stage1_counts(const Csr& a, std::span<const index_t> counts) {
  E2ELU_CHECK_MSG(
      counts.empty() || counts.size() == static_cast<std::size_t>(a.n),
      "handed " << counts.size() << " stage-1 counts for a matrix of " << a.n
                << " rows");
}

/// Kernel names of the two stages; fault plans and traces key on them.
struct StageKernels {
  const char* count = "symbolic_1";
  const char* fill = "symbolic_2";
};

template <typename Runner>
SymbolicResult two_stage_symbolic(gpusim::Device& dev, const Csr& a,
                                  Runner&& run_pass,
                                  std::span<const index_t> stage1_counts,
                                  StageKernels kernels = {}) {
  const index_t n = a.n;
  const std::uint64_t ops_before = dev.stats().kernel_ops;

  SymbolicResult res;
  res.fill_count.assign(n, 0);

  // Stage 1 (symbolic_1): count fill per row, unless the counts were
  // handed over — then they only travel to the device.
  gpusim::DeviceBuffer<index_t> d_fill_count(dev, static_cast<std::size_t>(n));
  const bool reuse = !stage1_counts.empty();
  if (reuse) {
    d_fill_count.copy_from_host(stage1_counts);
  } else {
    TRACE_SPAN("symbolic.stage1", dev, {{"rows", n}});
    const PassResult pr =
        count_stage(a, kernels.count, run_pass, d_fill_count);
    res.chunk_rows = pr.chunk_rows;
    res.num_chunks = pr.num_chunks;
  }

  // Device prefix sum over the counts -> row offsets (Algorithm 3 line 7).
  res.filled.n = n;
  res.filled.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  {
    TRACE_SPAN("symbolic.prefix_sum", dev);
    dev.launch({.name = "prefix_sum",
                .blocks = (n + 255) / 256,
                .threads_per_block = 256},
               [&](std::int64_t b, gpusim::KernelContext& ctx) {
                 const index_t lo = static_cast<index_t>(b) * 256;
                 const index_t hi = std::min(n, lo + 256);
                 ctx.add_ops(static_cast<std::uint64_t>(hi - lo));
               });
    for (index_t i = 0; i < n; ++i) {
      res.filled.row_ptr[i + 1] =
          res.filled.row_ptr[i] + d_fill_count[static_cast<std::size_t>(i)];
    }
    std::copy(d_fill_count.data(), d_fill_count.data() + n,
              res.fill_count.begin());
  }

  // Allocate the factorized pattern on the device (Algorithm 3 line 8).
  const offset_t total = res.filled.nnz();
  gpusim::DeviceBuffer<index_t> d_as_cols(dev, static_cast<std::size_t>(total));

  // Stage 2 (symbolic_2): record positions, then sort each row segment so
  // the CSC conversion and the numeric binary search see sorted indices.
  {
    TRACE_SPAN("symbolic.stage2", dev, {{"rows", n}, {"fill_nnz", total}});
    const PassResult pr = run_pass(kernels.fill, [&](index_t row, auto& ws,
                                                     gpusim::KernelContext&
                                                         ctx) {
      const offset_t seg_begin = res.filled.row_ptr[row];
      const offset_t seg_end = res.filled.row_ptr[row + 1];
      offset_t w = seg_begin;
      const RowStats st = fill2_row(a, row, ws, [&](index_t col) {
        // A count that diverged stays inside its own segment until the
        // check below reports it.
        if (w < seg_end) d_as_cols[static_cast<std::size_t>(w)] = col;
        ++w;
      });
      if (st.overflow) return true;
      E2ELU_CHECK_MSG(w == seg_end, "stage-2 fill count for row "
                                        << row << " diverged from stage 1");
      std::sort(d_as_cols.data() + seg_begin, d_as_cols.data() + w);
      ctx.add_ops(st.ops + sort_ops(static_cast<std::size_t>(w - seg_begin)));
      return false;
    });
    if (reuse) {
      res.chunk_rows = pr.chunk_rows;
      res.num_chunks = pr.num_chunks;
    }
  }

  res.filled.col_idx.assign(d_as_cols.data(), d_as_cols.data() + total);
  res.ops = dev.stats().kernel_ops - ops_before;
  return res;
}

/// Host-memory guard: like the paper (whose unified-memory runs are
/// limited by the 128 GB host), refuse scratch allocations beyond a
/// budget. Override with E2ELU_UM_HOST_BYTES.
std::size_t um_host_budget() {
  if (const char* env = std::getenv("E2ELU_UM_HOST_BYTES")) {
    const long long v = std::strtoll(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 2ull << 30;
}

}  // namespace

SymbolicResult symbolic_out_of_core(gpusim::Device& dev, const Csr& a,
                                    const SymbolicOptions& /*opt*/,
                                    std::span<const index_t> stage1_counts) {
  check_stage1_counts(a, stage1_counts);
  // Keep the input matrix resident for the whole run (it fits: nnz-sized;
  // it is the O(n)-per-row scratch that does not).
  gpusim::DeviceBuffer<offset_t> d_row_ptr(dev, std::span(a.row_ptr));
  gpusim::DeviceBuffer<index_t> d_col_idx(dev, std::span(a.col_idx));
  return two_stage_symbolic(dev, a, all_rows_runner(dev, a), stage1_counts);
}

offset_t count_fill_out_of_core(gpusim::Device& dev, const Csr& a,
                                const char* kernel,
                                std::vector<index_t>* row_counts) {
  gpusim::DeviceBuffer<offset_t> d_row_ptr(dev, std::span(a.row_ptr));
  gpusim::DeviceBuffer<index_t> d_col_idx(dev, std::span(a.col_idx));
  gpusim::DeviceBuffer<index_t> d_fill_count(dev,
                                              static_cast<std::size_t>(a.n));
  count_stage(a, kernel, all_rows_runner(dev, a), d_fill_count);
  std::vector<index_t> counts(static_cast<std::size_t>(a.n));
  d_fill_count.copy_to_host(counts);
  const offset_t total =
      std::accumulate(counts.begin(), counts.end(), offset_t{0});
  if (row_counts != nullptr) *row_counts = std::move(counts);
  return total;
}

SymbolicResult symbolic_out_of_core_dynamic(
    gpusim::Device& dev, const Csr& a, const SymbolicOptions& opt,
    std::span<const index_t> stage1_counts) {
  return symbolic_out_of_core_multipart(dev, a, /*parts=*/2, opt,
                                        stage1_counts);
}

SymbolicResult symbolic_out_of_core_multipart(
    gpusim::Device& dev, const Csr& a, index_t parts,
    const SymbolicOptions& opt, std::span<const index_t> stage1_counts) {
  E2ELU_CHECK_MSG(parts >= 1, "need at least one partition");
  check_stage1_counts(a, stage1_counts);
  if (parts == 1) return symbolic_out_of_core(dev, a, opt, stage1_counts);

  const index_t n = a.n;
  gpusim::DeviceBuffer<offset_t> d_row_ptr(dev, std::span(a.row_ptr));
  gpusim::DeviceBuffer<index_t> d_col_idx(dev, std::span(a.col_idx));
  const double warp_eff = warp_eff_for(dev, a);

  // --- Planner: sample the frontier-growth curve (Figure 3) on device. ---
  trace::Span span_plan("symbolic.plan", dev, {{"parts", parts}});
  const index_t num_samples = std::min<index_t>(opt.planner_samples, n);
  std::vector<index_t> sample_rows(static_cast<std::size_t>(num_samples));
  for (index_t s = 0; s < num_samples; ++s) {
    sample_rows[s] =
        static_cast<index_t>((static_cast<std::int64_t>(s) + 1) * n /
                             (num_samples + 1));
  }
  std::vector<index_t> sample_peak(static_cast<std::size_t>(num_samples), 0);
  chunked_pass(dev, a, sample_rows, static_cast<std::size_t>(n), warp_eff,
               "frontier_sample",
               [&](index_t row, PlainWorkspace& ws,
                   gpusim::KernelContext& ctx) {
                 const RowStats st = fill2_row(a, row, ws, [](index_t) {});
                 ctx.add_ops(st.ops);
                 const auto it = std::find(sample_rows.begin(),
                                           sample_rows.end(), row);
                 sample_peak[it - sample_rows.begin()] = st.max_frontier;
                 return false;
               },
               nullptr);

  // n1 = first row where the frontier reaches the "large" fraction of the
  // peak; rows before it form the low-footprint partitions.
  const index_t peak =
      num_samples == 0 ? 0
                       : *std::max_element(sample_peak.begin(), sample_peak.end());
  const double threshold = opt.large_frontier_fraction * peak;
  index_t n1 = n;
  for (index_t s = 0; s < num_samples; ++s) {
    if (static_cast<double>(sample_peak[s]) >= threshold && peak > 0) {
      n1 = sample_rows[s];
      break;
    }
  }

  // Subdivide [0, n1) into parts-1 ranges; each range's queue bound comes
  // from the frontier peak its samples saw (a margin covers sampling
  // error; the rare row that still overflows migrates to the full-size
  // tail partition).
  struct Range {
    index_t begin, end;
    std::size_t qbound;
  };
  std::vector<Range> ranges;
  const index_t bounded_parts = parts - 1;
  for (index_t pidx = 0; pidx < bounded_parts; ++pidx) {
    Range r;
    r.begin = static_cast<index_t>(static_cast<std::int64_t>(n1) * pidx /
                                   bounded_parts);
    r.end = static_cast<index_t>(static_cast<std::int64_t>(n1) * (pidx + 1) /
                                 bounded_parts);
    index_t range_peak = 0;
    for (index_t s = 0; s < num_samples; ++s) {
      if (sample_rows[s] >= r.begin && sample_rows[s] < r.end) {
        range_peak = std::max(range_peak, sample_peak[s]);
      }
    }
    r.qbound = std::min<std::size_t>(
        static_cast<std::size_t>(n),
        std::max<std::size_t>(
            64, static_cast<std::size_t>(opt.queue_bound_margin *
                                         (range_peak + 1))));
    if (r.begin < r.end) ranges.push_back(r);
  }

  span_plan.attr("n1", n1);
  span_plan.attr("peak_frontier", peak);
  span_plan.end();

  std::vector<index_t> tail(static_cast<std::size_t>(n - n1));
  std::iota(tail.begin(), tail.end(), n1);

  SymbolicResult res = two_stage_symbolic(
      dev, a, [&](const char* kernel, const auto& body) {
        PassResult total;
        std::vector<index_t> spill = tail;
        for (const Range& r : ranges) {
          std::vector<index_t> rows(static_cast<std::size_t>(r.end - r.begin));
          std::iota(rows.begin(), rows.end(), r.begin);
          std::vector<index_t> overflow;
          const PassResult pr = chunked_pass(dev, a, rows, r.qbound, warp_eff,
                                             kernel, body, &overflow);
          if (total.chunk_rows == 0) total.chunk_rows = pr.chunk_rows;
          total.num_chunks += pr.num_chunks;
          spill.insert(spill.end(), overflow.begin(), overflow.end());
        }
        std::sort(spill.begin(), spill.end());
        const PassResult pr_tail =
            chunked_pass(dev, a, spill, static_cast<std::size_t>(n), warp_eff,
                         kernel, body, nullptr);
        total.num_chunks += pr_tail.num_chunks;
        return total;
      },
      stage1_counts);
  return res;
}

SymbolicResult symbolic_unified_memory(gpusim::Device& dev, const Csr& a,
                                       bool prefetch,
                                       const SymbolicOptions& /*opt*/) {
  const index_t n = a.n;
  const std::size_t slots = UnifiedWorkspace::slots(n);
  const std::size_t total_slots = static_cast<std::size_t>(n) * slots;
  E2ELU_CHECK_MSG(
      total_slots * sizeof(index_t) <= um_host_budget(),
      "unified-memory scratch (" << total_slots * sizeof(index_t)
          << " bytes) exceeds the host-memory budget — the same wall the "
             "paper hits for matrices beyond ~41k rows");

  // The input matrix itself is device-resident (nnz-sized, it fits);
  // only the quadratic scratch is managed.
  gpusim::DeviceBuffer<offset_t> d_row_ptr(dev, std::span(a.row_ptr));
  gpusim::DeviceBuffer<index_t> d_col_idx(dev, std::span(a.col_idx));
  const double warp_eff = warp_eff_for(dev, a);

  // Built by the first stage, after the skeleton's counts array (the
  // resident-page budget is the free memory at construction), and kept
  // for the second: symbolic_2 finds the pages symbolic_1 left resident.
  std::optional<gpusim::UnifiedBuffer<index_t>> scratch;
  auto all_rows_at_once = [&](const char* kernel, const auto& body) {
    if (!scratch) scratch.emplace(dev, total_slots);
    TRACE_SPAN("symbolic.um_stage", dev,
               {{"stage", kernel},
                {"rows", n},
                {"prefetch", prefetch ? 1 : 0}});
    dev.launch(
        {.name = kernel,
         .blocks = n,
         .threads_per_block = 256,
         .warp_efficiency = warp_eff},
        [&](std::int64_t b, gpusim::KernelContext& ctx) {
          gpusim::UnifiedBuffer<index_t>::Stream stream;
          UnifiedWorkspace ws{&*scratch, &stream,
                              static_cast<std::size_t>(b) * slots, n};
          if (prefetch) {
            // cudaMemPrefetchAsync of the predictably-touched scratch: the
            // fill stamps and the first frontier queue. The second queue
            // is the producer side of a double buffer filled by the
            // traversal itself (and the bitmap tail is scattered into
            // data-dependently), so that traffic keeps demand-faulting —
            // which is why, as in Table 3, prefetching shrinks but does
            // not eliminate the fault-service time.
            scratch->prefetch(ws.base, 2 * static_cast<std::size_t>(n));
          }
          // First-touch initialisation of the visit stamps. Charged at
          // memset rate (16 elements per op).
          for (index_t i = 0; i < n; ++i) ws.fill(i) = -1;
          ctx.add_ops(static_cast<std::uint64_t>(n) / 16 + 1);
          E2ELU_CHECK_MSG(!body(static_cast<index_t>(b), ws, ctx),
                          "row " << b << " overflowed a full-size queue");
        });
    return PassResult{.chunk_rows = n, .num_chunks = 1};
  };
  return two_stage_symbolic(
      dev, a, all_rows_at_once, {},
      {.count = "symbolic_1_um", .fill = "symbolic_2_um"});
}

}  // namespace e2elu::symbolic
