// Parallel diagonal matching (MC64-lite) on the simulated device.
//
// Phase 1 seeds the matching with deterministic propose/dispose rounds:
// every unmatched row proposes its best unclaimed column (magnitude, then
// smaller column id), then every unclaimed column picks its best proposer
// (magnitude, then smaller row id). A row proposes exactly one column per
// round, so the column-side writes — including the winner's row_matched
// flag — are disjoint across blocks.
//
// Phase 2 completes it with rounds of parallel augmenting-path searches:
// a chunk of unmatched rows runs Kuhn DFS against a *snapshot* of the
// matching (private visited scratch per searcher), then each successful
// searcher claims every column on its path with a commutative atomic
// fetch-min on its row id. A searcher that holds all of its claims
// commits; holding all claims means winners' paths are column-disjoint,
// which makes their commits write-disjoint and mutually compatible.
// Losers retry against the updated matching; a searcher whose DFS finds
// no augmenting path is permanently unmatched (augmenting along other
// rows never creates a path for it — the standard Hungarian-algorithm
// lemma), so the search terminates and reports every uncoverable column.
//
// Determinism (DESIGN.md 6i): snapshot reads + disjoint writes +
// commutative min claims — the pool's execution order never reaches the
// result.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <memory>
#include <sstream>
#include <vector>

#include "core/factor_error.hpp"
#include "gpusim/device_buffer.hpp"
#include "preprocess/parallel/parallel_preprocess.hpp"
#include "support/check.hpp"
#include "trace/trace.hpp"

namespace e2elu::preprocess {

namespace {

constexpr std::int64_t kRowsPerBlock = 256;
constexpr int kProposeRoundCap = 32;
constexpr std::size_t kMaxSearchers = 64;

std::int64_t blocks_for(std::int64_t count) {
  return std::max<std::int64_t>(1, (count + kRowsPerBlock - 1) /
                                       kRowsPerBlock);
}

}  // namespace

Permutation parallel_diagonal_matching(gpusim::Device& dev, const Csr& a,
                                       const PreprocessOptions&) {
  TRACE_SPAN("preprocess.matching", dev, {{"n", a.n}, {"nnz", a.nnz()}});
  const index_t n = a.n;
  if (n == 0) return {};

  // Device residency of the bipartite graph: the matrix and its
  // transpose (the dispose kernel needs column -> rows adjacency). The
  // matrix is uploaded; the transpose is built on the device from it.
  gpusim::DeviceBuffer<offset_t> d_rp(dev,
                                      std::span<const offset_t>(a.row_ptr));
  gpusim::DeviceBuffer<index_t> d_ci(
      dev, std::max<std::size_t>(std::size_t{1}, a.col_idx.size()));
  if (!a.col_idx.empty()) {
    d_ci.copy_from_host(std::span<const index_t>(a.col_idx));
  }
  const Csr at = parallel_transpose(dev, a, "match.build_csc");
  gpusim::DeviceBuffer<offset_t> d_tp(dev, at.row_ptr.size());
  gpusim::DeviceBuffer<index_t> d_ti(
      dev, std::max<std::size_t>(std::size_t{1}, at.col_idx.size()));

  const bool with_values = !a.values.empty();
  const double avg_len =
      static_cast<double>(a.nnz()) / std::max<index_t>(n, 1);
  const double warp_eff = dev.spec().simt_efficiency(std::max(avg_len, 1.0));

  std::vector<index_t> col_to_row(n, -1);
  std::vector<char> row_matched(n, 0);
  std::vector<index_t> propose(n, -1);

  // ---- Phase 1: propose/dispose greedy seeding -----------------------
  const std::int64_t vert_blocks = blocks_for(n);
  for (int round = 0; round < kProposeRoundCap; ++round) {
    dev.launch(
        {.name = "match.propose",
         .blocks = vert_blocks,
         .threads_per_block = static_cast<int>(kRowsPerBlock),
         .warp_efficiency = warp_eff},
        [&](std::int64_t b, gpusim::KernelContext& ctx) {
          const index_t lo = static_cast<index_t>(b * kRowsPerBlock);
          const index_t hi = std::min<index_t>(
              n, lo + static_cast<index_t>(kRowsPerBlock));
          std::uint64_t work = 0;
          for (index_t i = lo; i < hi; ++i) {
            propose[i] = -1;
            if (row_matched[i]) continue;
            const auto cols = a.row_cols(i);
            work += cols.size();
            index_t best = -1;
            value_t best_mag = -1;
            for (std::size_t k = 0; k < cols.size(); ++k) {
              if (col_to_row[cols[k]] >= 0) continue;
              const value_t mag =
                  with_values ? std::abs(a.row_vals(i)[k]) : value_t{1};
              if (mag > best_mag ||
                  (mag == best_mag && cols[k] < best)) {
                best_mag = mag;
                best = cols[k];
              }
            }
            propose[i] = best;
          }
          ctx.add_ops(work + static_cast<std::uint64_t>(hi - lo));
        });

    std::vector<index_t> block_new(static_cast<std::size_t>(vert_blocks), 0);
    dev.launch(
        {.name = "match.dispose",
         .blocks = vert_blocks,
         .threads_per_block = static_cast<int>(kRowsPerBlock),
         .warp_efficiency = warp_eff},
        [&](std::int64_t b, gpusim::KernelContext& ctx) {
          const index_t lo = static_cast<index_t>(b * kRowsPerBlock);
          const index_t hi = std::min<index_t>(
              n, lo + static_cast<index_t>(kRowsPerBlock));
          std::uint64_t work = 0;
          index_t matched_here = 0;
          for (index_t j = lo; j < hi; ++j) {
            if (col_to_row[j] >= 0) continue;
            const auto rows = at.row_cols(j);
            work += rows.size();
            index_t best = -1;
            value_t best_mag = -1;
            for (std::size_t k = 0; k < rows.size(); ++k) {
              const index_t i = rows[k];
              if (propose[i] != j) continue;
              const value_t mag =
                  with_values ? std::abs(at.row_vals(j)[k]) : value_t{1};
              if (mag > best_mag || (mag == best_mag && i < best)) {
                best_mag = mag;
                best = i;
              }
            }
            if (best >= 0) {
              // Row `best` proposed only column j, so these two writes
              // are owned by this block alone.
              col_to_row[j] = best;
              row_matched[best] = 1;
              ++matched_here;
            }
          }
          block_new[static_cast<std::size_t>(b)] = matched_here;
          ctx.add_ops(work + static_cast<std::uint64_t>(hi - lo));
        });
    index_t new_matches = 0;
    for (index_t m : block_new) new_matches += m;  // commutative
    if (new_matches == 0) break;
  }

  // ---- Phase 2: parallel augmenting-path rounds ----------------------
  std::vector<index_t> pending;
  for (index_t i = 0; i < n; ++i) {
    if (!row_matched[i]) pending.push_back(i);
  }
  std::vector<index_t> dead_rows;

  if (!pending.empty()) {
    // Private visited scratch per concurrent searcher; halve the chunk
    // on OOM like the symbolic chunked passes do.
    std::size_t chunk =
        std::min<std::size_t>(kMaxSearchers, pending.size());
    gpusim::DeviceBuffer<std::int8_t> visited;
    while (true) {
      try {
        visited = gpusim::DeviceBuffer<std::int8_t>(
            dev, chunk * static_cast<std::size_t>(n));
        break;
      } catch (const gpusim::OutOfDeviceMemory&) {
        E2ELU_CHECK_MSG(chunk > 1,
                        "matching scratch does not fit on the device even "
                        "for a single searcher");
        chunk /= 2;
      }
    }

    constexpr index_t kUnclaimed = std::numeric_limits<index_t>::max();
    std::unique_ptr<std::atomic<index_t>[]> claim(
        new std::atomic<index_t>[static_cast<std::size_t>(n)]);
    for (index_t j = 0; j < n; ++j) {
      claim[j].store(kUnclaimed, std::memory_order_relaxed);
    }

    // (column, row-now-matched-to-it) pairs per searcher, in commit order.
    std::vector<std::vector<std::pair<index_t, index_t>>> path(chunk);
    std::vector<char> success(chunk, 0);
    std::vector<char> committed(chunk, 0);

    while (!pending.empty()) {
      std::vector<index_t> retry;
      for (std::size_t start = 0; start < pending.size(); start += chunk) {
        const std::size_t count =
            std::min(chunk, pending.size() - start);
        visited.fill(0);  // device-side memset, free

        dev.launch(
            {.name = "match.augment",
             .blocks = static_cast<std::int64_t>(count),
             .threads_per_block = 1,
             .warp_efficiency = warp_eff},
            [&](std::int64_t b, gpusim::KernelContext& ctx) {
              const std::size_t slot = static_cast<std::size_t>(b);
              const index_t r = pending[start + slot];
              std::int8_t* seen =
                  visited.data() + slot * static_cast<std::size_t>(n);
              auto& p = path[slot];
              p.clear();
              std::uint64_t work = 0;
              // Kuhn DFS against the snapshot; columns are visited in
              // CSR order, so the found path is deterministic.
              auto dfs = [&](auto&& self, index_t i) -> bool {
                for (index_t j : a.row_cols(i)) {
                  ++work;
                  if (seen[j]) continue;
                  seen[j] = 1;
                  if (col_to_row[j] < 0 || self(self, col_to_row[j])) {
                    p.emplace_back(j, i);
                    return true;
                  }
                }
                return false;
              };
              success[slot] = dfs(dfs, r) ? 1 : 0;
              ctx.add_ops(work);
            });

        dev.launch(
            {.name = "match.claim",
             .blocks = static_cast<std::int64_t>(count),
             .threads_per_block = 1,
             .warp_efficiency = warp_eff},
            [&](std::int64_t b, gpusim::KernelContext& ctx) {
              const std::size_t slot = static_cast<std::size_t>(b);
              if (!success[slot]) return;
              const index_t r = pending[start + slot];
              for (const auto& [j, i] : path[slot]) {
                (void)i;
                index_t cur = claim[j].load(std::memory_order_relaxed);
                while (r < cur && !claim[j].compare_exchange_weak(
                                      cur, r, std::memory_order_relaxed)) {
                }
              }
              ctx.add_ops(path[slot].size());
            });

        dev.launch(
            {.name = "match.commit",
             .blocks = static_cast<std::int64_t>(count),
             .threads_per_block = 1,
             .warp_efficiency = warp_eff},
            [&](std::int64_t b, gpusim::KernelContext& ctx) {
              const std::size_t slot = static_cast<std::size_t>(b);
              committed[slot] = 0;
              if (!success[slot]) return;
              const index_t r = pending[start + slot];
              bool owns_all = true;
              for (const auto& [j, i] : path[slot]) {
                (void)i;
                if (claim[j].load(std::memory_order_relaxed) != r) {
                  owns_all = false;
                  break;
                }
              }
              if (owns_all) {
                // Winners hold every column on their path, so winners'
                // paths are column-disjoint and these writes disjoint.
                for (const auto& [j, i] : path[slot]) col_to_row[j] = i;
                row_matched[r] = 1;
                committed[slot] = 1;
              }
              ctx.add_ops(2 * path[slot].size());
            });

        // Reset the claims touched this chunk and triage the searchers.
        for (std::size_t s = 0; s < count; ++s) {
          for (const auto& [j, i] : path[s]) {
            (void)i;
            claim[j].store(kUnclaimed, std::memory_order_relaxed);
          }
          const index_t r = pending[start + s];
          if (!success[s]) {
            dead_rows.push_back(r);  // permanently unmatched
          } else if (!committed[s]) {
            retry.push_back(r);  // lost a claim; re-search next sweep
          }
        }
      }
      pending = std::move(retry);
    }
  }

  if (!dead_rows.empty()) {
    std::vector<index_t> unmatched_cols;
    for (index_t j = 0; j < n; ++j) {
      if (col_to_row[j] < 0) unmatched_cols.push_back(j);
    }
    std::ostringstream msg;
    msg << "no perfect matching covers the diagonal; " << unmatched_cols.size()
        << " column(s) unmatched:";
    for (std::size_t k = 0; k < unmatched_cols.size() && k < 16; ++k) {
      msg << ' ' << unmatched_cols[k];
    }
    if (unmatched_cols.size() > 16) msg << " ...";
    throw FactorError(FaultKind::StructurallySingular, "preprocess",
                      msg.str(),
                      unmatched_cols.empty() ? -1 : unmatched_cols.front());
  }

  Permutation q(n);
  for (index_t j = 0; j < n; ++j) q[col_to_row[j]] = j;
  return q;
}

}  // namespace e2elu::preprocess
