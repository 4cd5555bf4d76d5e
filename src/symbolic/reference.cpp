// Host-side symbolic implementations: sequential reference, multithreaded
// CPU baseline, the elimination oracle, and the frontier profiler.

#include <algorithm>
#include <set>

#include "support/check.hpp"
#include "support/thread_pool.hpp"
#include "symbolic/fill2.hpp"
#include "symbolic/symbolic.hpp"
#include "symbolic/workspace.hpp"

namespace e2elu::symbolic {

namespace {

/// Runs fill2 over all rows with per-worker plain scratch, collecting the
/// sorted filled pattern. Shared by reference (1 worker view) and CPU
/// baseline (pool).
SymbolicResult host_fill2(const Csr& a, bool parallel) {
  const index_t n = a.n;
  SymbolicResult res;
  res.fill_count.assign(n, 0);
  std::vector<std::vector<index_t>> rows(n);
  std::vector<std::uint64_t> worker_ops(ThreadPool::global().num_threads(), 0);

  auto process_rows = [&](std::size_t begin, std::size_t end,
                          std::size_t worker) {
    std::vector<index_t> slice(PlainWorkspace::slots(n, n), -1);
    PlainWorkspace ws = PlainWorkspace::from_slice({slice}, n);
    for (std::size_t src = begin; src < end; ++src) {
      auto& row = rows[src];
      const RowStats st = fill2_row(a, static_cast<index_t>(src), ws,
                                    [&](index_t col) { row.push_back(col); });
      E2ELU_CHECK(!st.overflow);
      std::sort(row.begin(), row.end());
      res.fill_count[src] = st.fill_count;
      worker_ops[worker] += st.ops;
    }
  };

  if (parallel) {
    ThreadPool::global().parallel_for_ranges(n, process_rows);
  } else {
    process_rows(0, n, 0);
  }
  for (std::uint64_t w : worker_ops) res.ops += w;

  res.filled.n = n;
  res.filled.row_ptr.assign(static_cast<std::size_t>(n) + 1, 0);
  for (index_t i = 0; i < n; ++i) {
    res.filled.row_ptr[i + 1] =
        res.filled.row_ptr[i] + static_cast<offset_t>(rows[i].size());
  }
  res.filled.col_idx.resize(res.filled.nnz());
  for (index_t i = 0; i < n; ++i) {
    std::copy(rows[i].begin(), rows[i].end(),
              res.filled.col_idx.begin() + res.filled.row_ptr[i]);
  }
  return res;
}

}  // namespace

SymbolicResult symbolic_reference(const Csr& a) { return host_fill2(a, false); }

SymbolicResult symbolic_cpu(const Csr& a) { return host_fill2(a, true); }

Csr symbolic_elimination_oracle(const Csr& a) {
  const index_t n = a.n;
  std::vector<std::set<index_t>> rows(n);
  for (index_t i = 0; i < n; ++i) {
    const auto cols = a.row_cols(i);
    rows[i].insert(cols.begin(), cols.end());
    rows[i].insert(i);  // elimination needs the diagonal
  }
  // Column-by-column elimination: eliminating k merges k's upper row into
  // every row i > k that contains k.
  for (index_t k = 0; k < n; ++k) {
    std::vector<index_t> upper(rows[k].upper_bound(k), rows[k].end());
    for (index_t i = k + 1; i < n; ++i) {
      if (rows[i].count(k) != 0) {
        rows[i].insert(upper.begin(), upper.end());
      }
    }
  }
  Csr out(n);
  for (index_t i = 0; i < n; ++i) {
    out.row_ptr[i + 1] = out.row_ptr[i] + static_cast<offset_t>(rows[i].size());
  }
  out.col_idx.reserve(out.nnz());
  for (index_t i = 0; i < n; ++i) {
    out.col_idx.insert(out.col_idx.end(), rows[i].begin(), rows[i].end());
  }
  return out;
}

std::vector<index_t> frontier_profile(const Csr& a) {
  const index_t n = a.n;
  std::vector<index_t> peak(n, 0);
  ThreadPool::global().parallel_for_ranges(
      n, [&](std::size_t begin, std::size_t end, std::size_t) {
        std::vector<index_t> slice(PlainWorkspace::slots(n, n), -1);
        PlainWorkspace ws = PlainWorkspace::from_slice({slice}, n);
        for (std::size_t src = begin; src < end; ++src) {
          peak[src] =
              fill2_row(a, static_cast<index_t>(src), ws, [](index_t) {})
                  .max_frontier;
        }
      });
  return peak;
}

}  // namespace e2elu::symbolic
