#include "scheduling/levelize.hpp"

#include <algorithm>
#include <atomic>

#include "gpusim/device_buffer.hpp"
#include "matrix/convert.hpp"
#include "scheduling/ready_flags.hpp"
#include "support/check.hpp"
#include "trace/trace.hpp"

namespace e2elu::scheduling {

namespace {

/// True iff the strict-upper parts of pattern rows i and j intersect
/// beyond column j — i.e. the columns share a sub-column. Two-pointer
/// walk over the sorted rows.
bool share_sub_column(const Csr& filled, index_t i, index_t j) {
  const auto ri = filled.row_cols(i);
  const auto rj = filled.row_cols(j);
  auto x = std::upper_bound(ri.begin(), ri.end(), j);
  auto y = std::upper_bound(rj.begin(), rj.end(), j);
  while (x != ri.end() && y != rj.end()) {
    if (*x < *y) {
      ++x;
    } else if (*y < *x) {
      ++y;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace

DependencyGraph build_dependency_graph(const Csr& filled,
                                       DependencyRule rule) {
  const index_t n = filled.n;
  // Successors of i = {j > i : (i,j) in As} union {j > i : (j,i) in As,
  // kept per `rule`}. The first set is the upper part of CSR row i; the
  // second is the lower part of CSC column i, i.e. the upper part of
  // row i of As^T.
  const Csr t = transpose(filled);

  DependencyGraph g;
  g.n = n;
  g.adj_ptr.assign(static_cast<std::size_t>(n) + 1, 0);

  auto merge_upper = [&](index_t i, auto&& emit) {
    const auto ra = filled.row_cols(i);
    const auto rt = t.row_cols(i);
    std::size_t x = 0, y = 0;
    // Skip to strictly-above-diagonal entries.
    while (x < ra.size() && ra[x] <= i) ++x;
    while (y < rt.size() && rt[y] <= i) ++y;
    while (x < ra.size() || y < rt.size()) {
      if (y == rt.size() || (x < ra.size() && ra[x] < rt[y])) {
        emit(ra[x++]);  // U dependency
      } else if (x == ra.size() || rt[y] < ra[x]) {
        // L-only coupling As(j,i) != 0: always an edge under the
        // symmetrized rule; under DoubleU only when a shared sub-column
        // makes column i actually write data column j reads.
        const index_t j = rt[y++];
        if (rule == DependencyRule::Symmetrized ||
            share_sub_column(filled, i, j)) {
          emit(j);
        }
      } else {
        emit(ra[x]);  // both directions present
        ++x;
        ++y;
      }
    }
  };

  // Reserve from a cheap counting pass: row i emits at most its
  // strict-upper lengths in As and As^T combined (the merge only dedups
  // U+L-coupled entries or drops L-only ones, never adds). The merge —
  // which under DoubleU runs a row intersection per L-only entry — then
  // executes exactly once per row into its slot, instead of twice as a
  // count pass plus an emission pass, and the dedup of entries present in
  // both directions happens during that single emission.
  std::vector<offset_t> bound(static_cast<std::size_t>(n) + 1, 0);
  for (index_t i = 0; i < n; ++i) {
    const auto ra = filled.row_cols(i);
    const auto rt = t.row_cols(i);
    const offset_t upper =
        static_cast<offset_t>(ra.end() -
                              std::upper_bound(ra.begin(), ra.end(), i)) +
        static_cast<offset_t>(rt.end() -
                              std::upper_bound(rt.begin(), rt.end(), i));
    bound[i + 1] = bound[i] + upper;
  }
  g.adj.resize(static_cast<std::size_t>(bound[n]));
  for (index_t i = 0; i < n; ++i) {
    offset_t w = bound[i];
    merge_upper(i, [&](index_t j) { g.adj[w++] = j; });
    g.adj_ptr[i + 1] = g.adj_ptr[i] + (w - bound[i]);
  }
  // Compact the slack out in place (left-to-right is safe: the packed
  // position never passes the reserved one).
  for (index_t i = 0; i < n; ++i) {
    std::copy(g.adj.begin() + bound[i],
              g.adj.begin() + bound[i] + (g.adj_ptr[i + 1] - g.adj_ptr[i]),
              g.adj.begin() + g.adj_ptr[i]);
  }
  g.adj.resize(static_cast<std::size_t>(g.adj_ptr[n]));
  g.adj.shrink_to_fit();

  // Predecessor lists, the sync-free levelizer's input: the transpose of
  // the successor lists. Sources are visited in ascending order, so every
  // list comes out sorted.
  g.pred_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (index_t j : g.adj) ++g.pred_ptr[j + 1];
  for (index_t v = 0; v < n; ++v) g.pred_ptr[v + 1] += g.pred_ptr[v];
  g.pred.resize(g.adj.size());
  std::vector<offset_t> cursor(g.pred_ptr.begin(), g.pred_ptr.end() - 1);
  for (index_t i = 0; i < n; ++i) {
    for (offset_t k = g.adj_ptr[i]; k < g.adj_ptr[i + 1]; ++k) {
      g.pred[static_cast<std::size_t>(cursor[g.adj[k]]++)] = i;
    }
  }
  return g;
}

namespace {

/// Packs per-column levels into the grouped representation.
LevelSchedule pack_schedule(std::vector<index_t> level) {
  LevelSchedule s;
  s.level = std::move(level);
  const index_t n = static_cast<index_t>(s.level.size());
  index_t max_level = -1;
  for (index_t l : s.level) {
    E2ELU_CHECK_MSG(l >= 0, "column left unleveled — dependency cycle?");
    max_level = std::max(max_level, l);
  }
  s.level_ptr.assign(static_cast<std::size_t>(max_level) + 2, 0);
  for (index_t l : s.level) ++s.level_ptr[l + 1];
  for (std::size_t l = 1; l < s.level_ptr.size(); ++l) {
    s.level_ptr[l] += s.level_ptr[l - 1];
  }
  s.level_cols.resize(n);
  std::vector<index_t> cursor(s.level_ptr.begin(), s.level_ptr.end() - 1);
  for (index_t c = 0; c < n; ++c) {
    s.level_cols[cursor[s.level[c]]++] = c;
  }
  return s;
}

}  // namespace

LevelSchedule levelize_sequential(const DependencyGraph& g) {
  std::vector<index_t> indegree(g.n, 0);
  for (index_t j : g.adj) ++indegree[j];

  std::vector<index_t> level(g.n, -1);
  std::vector<index_t> queue, next;
  for (index_t v = 0; v < g.n; ++v) {
    if (indegree[v] == 0) queue.push_back(v);
  }
  index_t level_num = 0;
  while (!queue.empty()) {
    next.clear();
    for (index_t v : queue) {
      level[v] = level_num;
      for (offset_t k = g.adj_ptr[v]; k < g.adj_ptr[v + 1]; ++k) {
        if (--indegree[g.adj[k]] == 0) next.push_back(g.adj[k]);
      }
    }
    queue.swap(next);
    ++level_num;
  }
  return pack_schedule(std::move(level));
}

namespace {

/// Shared GPU Kahn body. `from_device` selects whether the per-level
/// cons_queue/update launches are dynamic-parallelism children (Algorithm
/// 5) or host launches with a host sync per level (the prior-work
/// approach); everything else is identical, so the measured difference is
/// purely launch/synchronization overhead.
LevelSchedule gpu_kahn(gpusim::Device& dev, const DependencyGraph& g,
                       bool from_device) {
  const index_t n = g.n;
  trace::Span span_kahn("levelize.kahn", dev,
                        {{"n", n},
                         {"edges", g.num_edges()},
                         {"dynamic", from_device ? 1 : 0}});
  gpusim::DeviceBuffer<offset_t> d_adj_ptr(dev, std::span(g.adj_ptr));
  gpusim::DeviceBuffer<index_t> d_adj(dev, std::span(g.adj));
  gpusim::DeviceBuffer<index_t> d_level(dev, static_cast<std::size_t>(n));
  std::vector<std::atomic<index_t>> indegree(static_cast<std::size_t>(n));

  // cnt_indegree (Algorithm 5, line 15), as an init kernel plus an
  // atomic-increment kernel — the zeroing must not race with increments
  // from blocks covering other vertex ranges.
  dev.launch({.name = "init_indegree",
              .blocks = std::max<index_t>(1, (n + 255) / 256),
              .threads_per_block = 256},
             [&](std::int64_t b, gpusim::KernelContext& ctx) {
               const index_t lo = static_cast<index_t>(b) * 256;
               const index_t hi = std::min(n, lo + 256);
               for (index_t v = lo; v < hi; ++v) {
                 indegree[v].store(0, std::memory_order_relaxed);
               }
               ctx.add_ops(static_cast<std::uint64_t>(hi - lo) / 16 + 1);
             });
  dev.launch({.name = "cnt_indegree",
              .blocks = std::max<index_t>(1, (n + 255) / 256),
              .threads_per_block = 256},
             [&](std::int64_t b, gpusim::KernelContext& ctx) {
               const index_t lo = static_cast<index_t>(b) * 256;
               const index_t hi = std::min(n, lo + 256);
               for (index_t v = lo; v < hi; ++v) {
                 for (offset_t k = g.adj_ptr[v]; k < g.adj_ptr[v + 1]; ++k) {
                   indegree[g.adj[k]].fetch_add(1, std::memory_order_relaxed);
                   ctx.add_ops(1);
                 }
               }
             });

  // Parent Topo kernel: one extra device launch in the dynamic version.
  if (from_device) {
    dev.launch({.name = "Topo", .blocks = 1, .threads_per_block = 1},
               [](std::int64_t, gpusim::KernelContext&) {});
  }

  std::vector<index_t> queue, next;
  std::mutex next_mutex;
  // Initial cons_queue: all roots (Algorithm 5, line 4).
  dev.launch({.name = "cons_queue",
              .blocks = std::max<index_t>(1, (n + 255) / 256),
              .threads_per_block = 256,
              .from_device = from_device},
             [&](std::int64_t b, gpusim::KernelContext& ctx) {
               const index_t lo = static_cast<index_t>(b) * 256;
               const index_t hi = std::min(n, lo + 256);
               std::vector<index_t> local;
               for (index_t v = lo; v < hi; ++v) {
                 ctx.add_ops(1);
                 if (indegree[v].load(std::memory_order_relaxed) == 0) {
                   local.push_back(v);
                   d_level[v] = 0;
                 }
               }
               std::lock_guard<std::mutex> lock(next_mutex);
               queue.insert(queue.end(), local.begin(), local.end());
             });

  index_t level_num = 1;
  while (!queue.empty()) {
    // update kernel: drain the queue, decrement successors, and collect
    // the next frontier (Algorithm 5, lines 7-9, with the queue
    // construction fused into the decrement as the zero-crossing test).
    next.clear();
    dev.launch(
        {.name = "update",
         .blocks = static_cast<std::int64_t>(queue.size()),
         .threads_per_block = 256,
         .from_device = from_device},
        [&](std::int64_t b, gpusim::KernelContext& ctx) {
          const index_t v = queue[static_cast<std::size_t>(b)];
          std::vector<index_t> local;
          for (offset_t k = g.adj_ptr[v]; k < g.adj_ptr[v + 1]; ++k) {
            ctx.add_ops(1);
            const index_t j = g.adj[k];
            if (indegree[j].fetch_sub(1, std::memory_order_acq_rel) == 1) {
              local.push_back(j);
              d_level[j] = level_num;
            }
          }
          if (!local.empty()) {
            std::lock_guard<std::mutex> lock(next_mutex);
            next.insert(next.end(), local.begin(), local.end());
          }
        });
    if (!from_device) {
      // Host-driven variant: reading qsize back forces a D2H round-trip
      // and a stream sync every level.
      dev.copy_d2h(sizeof(index_t));
    }
    queue.swap(next);
    ++level_num;
  }

  span_kahn.attr("levels", level_num - 1);
  span_kahn.end();
  std::vector<index_t> level(d_level.data(), d_level.data() + n);
  return pack_schedule(std::move(level));
}

}  // namespace

LevelSchedule levelize_gpu_host_launched(gpusim::Device& device,
                                         const DependencyGraph& g) {
  return gpu_kahn(device, g, false);
}

LevelSchedule levelize_gpu_dynamic(gpusim::Device& device,
                                   const DependencyGraph& g) {
  return gpu_kahn(device, g, true);
}

LevelSchedule levelize_sync_free(gpusim::Device& dev,
                                 std::span<const offset_t> ptr,
                                 std::span<const index_t> idx,
                                 ClaimOrder order, FusedCost* cost) {
  E2ELU_CHECK_MSG(!ptr.empty(), "predecessor CSR needs n+1 row offsets");
  const auto n = static_cast<index_t>(ptr.size() - 1);
  const bool descending = order == ClaimOrder::Descending;
  trace::Span span("levelize.sync_free", dev, {{"n", n}});
  gpusim::DeviceBuffer<offset_t> d_ptr(dev, ptr);
  gpusim::DeviceBuffer<index_t> d_idx(dev, idx);
  gpusim::DeviceBuffer<index_t> d_level(dev, static_cast<std::size_t>(n));
  ReadyFlags flags(static_cast<std::size_t>(n));
  std::atomic<std::uint64_t> edges{0};

  // Block b claims the b-th vertex in `order`, so every predecessor sits
  // at a lower block index — the ready-flag protocol's deadlock-freedom
  // condition. A warp scans one vertex's list, so lane use follows the
  // mean list length.
  const double mean_len =
      n == 0 ? 0.0 : static_cast<double>(idx.size()) / n;
  const FusedCost charged = flags.launch(
      dev,
      {.name = "levelize_sync_free",
       .blocks = n,
       .threads_per_block = 32,
       .warp_efficiency = dev.spec().simt_efficiency(mean_len)},
      [&](std::int64_t b, gpusim::KernelContext& ctx) {
        const index_t v = descending ? n - 1 - static_cast<index_t>(b)
                                     : static_cast<index_t>(b);
        index_t level = 0;
        std::uint64_t found = 0;
        flags.run_block(
            static_cast<std::size_t>(v), ctx,
            [&](auto&& wait) {
              for (offset_t k = d_ptr[v]; k < d_ptr[v + 1]; ++k) {
                const index_t p = d_idx[k];
                ctx.add_ops(1);
                if (descending ? p > v : p < v) {
                  wait(static_cast<std::size_t>(p));
                  level = std::max(level, d_level[p] + 1);
                  ++found;
                }
              }
            },
            [&] {
              d_level[v] = level;
              ctx.add_ops(1);
            });
        edges.fetch_add(found, std::memory_order_relaxed);
      },
      "model.levelize");

  LevelSchedule s = pack_schedule(
      std::vector<index_t>(d_level.data(), d_level.data() + n));
  span.attr("edges", static_cast<std::int64_t>(edges.load()));
  span.attr("levels", s.num_levels());
  span.attr("chain_us", charged.chain_us);
  span.attr("charged_us", charged.charged_us);
  if (cost != nullptr) *cost = charged;
  return s;
}

LevelSchedule levelize_sync_free(gpusim::Device& device,
                                 const DependencyGraph& g, FusedCost* cost) {
  return levelize_sync_free(device, g.pred_ptr, g.pred, ClaimOrder::Ascending,
                            cost);
}

void validate_schedule(const DependencyGraph& g, const LevelSchedule& s) {
  E2ELU_CHECK(s.level.size() == static_cast<std::size_t>(g.n));
  E2ELU_CHECK(s.level_cols.size() == static_cast<std::size_t>(g.n));
  std::vector<bool> seen(g.n, false);
  for (index_t c : s.level_cols) {
    E2ELU_CHECK_MSG(!seen[c], "column " << c << " scheduled twice");
    seen[c] = true;
  }
  for (index_t l = 0; l < s.num_levels(); ++l) {
    E2ELU_CHECK(s.level_ptr[l] < s.level_ptr[l + 1]);
    for (index_t k = s.level_ptr[l]; k < s.level_ptr[l + 1]; ++k) {
      E2ELU_CHECK(s.level[s.level_cols[k]] == l);
    }
  }
  for (index_t i = 0; i < g.n; ++i) {
    for (offset_t k = g.adj_ptr[i]; k < g.adj_ptr[i + 1]; ++k) {
      E2ELU_CHECK_MSG(s.level[i] < s.level[g.adj[k]],
                      "edge " << i << "->" << g.adj[k]
                              << " violates level order");
    }
  }
}

LevelType classify_level(index_t width, double avg_sub_columns) {
  constexpr index_t kWide = 32;
  constexpr double kHeavy = 32.0;
  if (width >= kWide && avg_sub_columns < kHeavy) return LevelType::A;
  if (width < kWide && avg_sub_columns >= kHeavy) return LevelType::C;
  return LevelType::B;
}

std::vector<LevelType> classify_schedule(const LevelSchedule& s,
                                         const Csr& filled) {
  std::vector<LevelType> types(static_cast<std::size_t>(s.num_levels()));
  for (index_t l = 0; l < s.num_levels(); ++l) {
    std::uint64_t total_sub = 0;
    for (index_t k = s.level_ptr[l]; k < s.level_ptr[l + 1]; ++k) {
      const index_t j = s.level_cols[k];
      // Sub-columns of j = strictly-upper entries of filled row j.
      const auto cols = filled.row_cols(j);
      const auto it = std::upper_bound(cols.begin(), cols.end(), j);
      total_sub += static_cast<std::uint64_t>(cols.end() - it);
    }
    const index_t width = s.level_width(l);
    types[l] = classify_level(
        width, width == 0 ? 0.0 : static_cast<double>(total_sub) / width);
  }
  return types;
}

}  // namespace e2elu::scheduling
