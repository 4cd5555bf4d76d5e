#include "solve/triangular.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "scheduling/ready_flags.hpp"
#include "support/check.hpp"
#include "trace/trace.hpp"

namespace e2elu::solve {

namespace {

double vector_norm(std::span<const value_t> v) {
  double acc = 0;
  for (value_t x : v) acc += static_cast<double>(x) * x;
  return std::sqrt(acc);
}

}  // namespace

TriangularSolver::TriangularSolver(gpusim::Device& device, const Csr& factor,
                                   bool lower)
    : device_(&device), factor_(&factor), lower_(lower) {
  validate(factor);
  E2ELU_CHECK_MSG(has_full_diagonal(factor),
                  "triangular factor is missing diagonal entries");
  // Row i's substitution reads x[j] for its strict entries (i,j), so the
  // factor's own rows are the predecessor lists. The upper solve's edges
  // point downward (j > i), so its blocks claim rows in descending order.
  schedule_ = scheduling::levelize_sync_free(
      device, factor.row_ptr, factor.col_idx,
      lower ? scheduling::ClaimOrder::Ascending
            : scheduling::ClaimOrder::Descending);
  // The numeric clusterer under its device-derived defaults: no solve
  // knob, the same width threshold and column cap numeric fusion uses.
  clusters_ = scheduling::build_cluster_schedule(schedule_, device.spec(),
                                                 {.enabled = true});

  diag_pos_.resize(static_cast<std::size_t>(factor.n));
  for (index_t i = 0; i < factor.n; ++i) {
    const auto cols = factor.row_cols(i);
    const auto it = std::lower_bound(cols.begin(), cols.end(), i);
    diag_pos_[i] = factor.row_ptr[i] + (it - cols.begin());
  }
  warp_eff_ = device.spec().simt_efficiency(factor.nnz_per_row());

  // Factor bytes each level's rows touch (values + column indices) — the
  // chunking granularity of the streaming solve.
  level_bytes_.assign(static_cast<std::size_t>(schedule_.num_levels()), 0);
  for (index_t l = 0; l < schedule_.num_levels(); ++l) {
    for (index_t k = schedule_.level_ptr[l]; k < schedule_.level_ptr[l + 1];
         ++k) {
      const index_t i = schedule_.level_cols[k];
      const offset_t nnz = factor.row_ptr[i + 1] - factor.row_ptr[i];
      level_bytes_[l] +=
          static_cast<std::size_t>(nnz) * (sizeof(value_t) + sizeof(index_t));
    }
  }
}

void TriangularSolver::rebind(const Csr& factor) {
  E2ELU_CHECK_MSG(same_pattern(*factor_, factor),
                  "rebind: factor pattern differs from the one this solver "
                  "was levelized for; build a new solver");
  E2ELU_CHECK_MSG(!factor.values.empty(), "rebind: factor has no values");
  factor_ = &factor;
}

void TriangularSolver::launch_levels(index_t lo, index_t hi,
                                     std::span<value_t> x, index_t num_rhs,
                                     gpusim::Stream* stream,
                                     scheduling::ReadyFlags* flags) const {
  const Csr& f = *factor_;
  const bool fused = hi - lo > 1;
  const index_t first = schedule_.level_ptr[lo];
  const index_t width = schedule_.level_ptr[hi] - first;
  const auto n = static_cast<std::size_t>(f.n);
  // Block b substitutes row slot b % width of the cluster in RHS column
  // b / width. The one substitution body of every solve path: per column,
  // the same elements in the same order as the host reference.
  auto row_of = [&](std::int64_t b) {
    return schedule_.level_cols[first + static_cast<index_t>(b % width)];
  };
  auto substitute = [&](std::int64_t b, gpusim::KernelContext& ctx) {
    const index_t i = row_of(b);
    value_t* col = x.data() + static_cast<std::size_t>(b / width) * n;
    value_t acc = col[i];
    for (offset_t k = f.row_ptr[i]; k < f.row_ptr[i + 1]; ++k) {
      const index_t j = f.col_idx[k];
      if (j != i) acc -= f.values[k] * col[j];
      ctx.add_ops(1);
    }
    // Unit diagonal for L (stored as 1); explicit divide for U.
    const value_t diag = f.values[diag_pos_[i]];
    E2ELU_CHECK_MSG(diag != value_t{0}, "singular diagonal at " << i);
    col[i] = lower_ ? acc : acc / diag;
  };
  const gpusim::LaunchConfig cfg{
      .name = fused ? (lower_ ? "lower_solve_fused" : "upper_solve_fused")
                  : (lower_ ? "lower_solve_level" : "upper_solve_level"),
      .blocks = static_cast<std::int64_t>(width) * num_rhs,
      .threads_per_block = 128,
      .warp_efficiency = warp_eff_,
      .fused_levels = static_cast<int>(hi - lo),
      .stream = stream};
  if (!fused) {
    device_->launch(cfg, substitute);
    return;
  }

  // Fused: RHS-major blocks put every predecessor of (row i, rhs r) — a
  // row of an earlier level, same column — at a lower block index, as the
  // ready-flag protocol requires. The wait is free in ops: a sync-free
  // solve checks a row's flag as it reads that row's x, so the
  // substitution op already covers it.
  trace::Span span("solve.cluster", *device_,
                   {{"first_level", lo},
                    {"levels", hi - lo},
                    {"rows", width},
                    {"rhs", num_rhs}});
  const scheduling::FusedCost cost = flags->launch(
      *device_, cfg, [&](std::int64_t b, gpusim::KernelContext& ctx) {
        const index_t i = row_of(b);
        const std::size_t base = static_cast<std::size_t>(b / width) * n;
        flags->run_block(
            base + static_cast<std::size_t>(i), ctx,
            [&](auto&& wait) {
              for (offset_t k = f.row_ptr[i]; k < f.row_ptr[i + 1]; ++k) {
                const index_t j = f.col_idx[k];
                if (j != i && schedule_.level[j] >= lo) {
                  wait(base + static_cast<std::size_t>(j));
                }
              }
            },
            [&] { substitute(b, ctx); });
      },
      "model.fusion");
  span.attr("chain_us", cost.chain_us);
  span.attr("charged_us", cost.charged_us);
}

void TriangularSolver::solve(std::vector<value_t>& x) const {
  solve_many(x, 1);
}

void TriangularSolver::solve_many(std::span<value_t> x,
                                  index_t num_rhs) const {
  const auto n = static_cast<std::size_t>(factor_->n);
  E2ELU_CHECK_MSG(num_rhs >= 0, "negative batch size");
  E2ELU_CHECK(x.size() == n * static_cast<std::size_t>(num_rhs));
  if (num_rhs == 0) return;
  TRACE_SPAN(lower_ ? "solve.lower" : "solve.upper", *device_,
             {{"n", factor_->n},
              {"levels", schedule_.num_levels()},
              {"clusters", clusters_.num_clusters()},
              {"rhs", num_rhs},
              {"streamed", stream_opt_.enabled ? 1 : 0}});
  // One flag per (row, rhs), fresh per sweep: every item retires once.
  std::optional<scheduling::ReadyFlags> flags;
  if (clusters_.fused_level_count() > 0) {
    flags.emplace(n * static_cast<std::size_t>(num_rhs));
  }
  scheduling::ReadyFlags* fp = flags ? &*flags : nullptr;
  const std::uint64_t ops_before = device_->stats().kernel_ops;
  if (stream_opt_.enabled) {
    solve_streamed(x, num_rhs, fp);
  } else {
    for (index_t c = 0; c < clusters_.num_clusters(); ++c) {
      launch_levels(clusters_.first_level(c), clusters_.end_level(c), x,
                    num_rhs, nullptr, fp);
    }
  }
  ops_ += device_->stats().kernel_ops - ops_before;
}

void TriangularSolver::solve_streamed(std::span<value_t> x, index_t num_rhs,
                                      scheduling::ReadyFlags* flags) const {
  if (schedule_.num_levels() == 0) return;
  const std::size_t budget = stream_opt_.budget_bytes != 0
                                 ? stream_opt_.budget_bytes
                                 : device_->free_bytes();
  E2ELU_CHECK_MSG(budget > 0, "streaming solve budget must be positive");
  const int ahead = std::max(0, stream_opt_.prefetch_ahead);
  const std::size_t capacity =
      std::max<std::size_t>(budget / static_cast<std::size_t>(1 + ahead), 1);

  // Launch units: the clusters, except that a cluster too big for one
  // chunk splits at level boundaries into pieces that fit — a fused launch
  // needs all of its rows resident, and the budget is a memory bound. Only
  // a single overweight level still travels alone (its transfer just
  // takes longer).
  std::vector<index_t> unit_ptr{0};  // level boundaries
  std::vector<std::size_t> unit_bytes;
  for (index_t c = 0; c < clusters_.num_clusters(); ++c) {
    std::size_t bytes = 0;
    for (index_t l = clusters_.first_level(c); l < clusters_.end_level(c);
         ++l) {
      if (l > unit_ptr.back() && bytes + level_bytes_[l] > capacity) {
        unit_ptr.push_back(l);
        unit_bytes.push_back(bytes);
        bytes = 0;
      }
      bytes += level_bytes_[l];
    }
    unit_ptr.push_back(clusters_.end_level(c));
    unit_bytes.push_back(bytes);
  }

  // Greedy chunking of whole units under the per-chunk capacity.
  const auto num_units = static_cast<index_t>(unit_bytes.size());
  std::vector<index_t> chunk_ptr{0};  // unit boundaries
  std::vector<std::size_t> chunk_bytes;
  index_t u = 0;
  while (u < num_units) {
    index_t end = u;
    std::size_t bytes = 0;
    while (end < num_units &&
           (end == u || bytes + unit_bytes[end] <= capacity)) {
      bytes += unit_bytes[end];
      ++end;
    }
    chunk_ptr.push_back(end);
    chunk_bytes.push_back(bytes);
    u = end;
  }
  const auto num_chunks = static_cast<index_t>(chunk_bytes.size());

  // The factor chunks are read-only: fetch ahead on the transfer stream,
  // solve on the compute stream, drop on retirement. The budget bound is
  // respected by construction (1 + ahead chunks of `capacity` bytes).
  gpusim::RawDeviceAllocation arena(
      *device_, std::min(budget, device_->free_bytes()));
  gpusim::Stream xfer(*device_);
  gpusim::Stream compute(*device_);
  std::vector<gpusim::Event> fetched(static_cast<std::size_t>(num_chunks));
  index_t next_fetch = 0;
  auto fetch = [&](index_t c, bool lookahead) {
    device_->copy_h2d_async(chunk_bytes[c], xfer);
    fetched[c].record(xfer);
    stream_stats_.fetch_bytes += chunk_bytes[c];
    stream_stats_.max_chunk_bytes =
        std::max<std::uint64_t>(stream_stats_.max_chunk_bytes, chunk_bytes[c]);
    if (lookahead) ++stream_stats_.prefetches;
    next_fetch = c + 1;
  };
  for (index_t c = 0; c < num_chunks; ++c) {
    if (next_fetch <= c) fetch(c, /*lookahead=*/false);
    while (next_fetch < num_chunks && next_fetch <= c + ahead) {
      fetch(next_fetch, /*lookahead=*/true);
    }
    stream_stats_.stall_us +=
        std::max(0.0, fetched[c].timestamp_us() - compute.ready_us());
    compute.wait(fetched[c]);
    for (index_t k = chunk_ptr[c]; k < chunk_ptr[c + 1]; ++k) {
      launch_levels(unit_ptr[k], unit_ptr[k + 1], x, num_rhs, &compute,
                    flags);
    }
  }
  stream_stats_.chunks += static_cast<std::uint64_t>(num_chunks);
  device_->synchronize();
}

LuSolver::LuSolver(gpusim::Device& device, const Csr& l, const Csr& u)
    : lower_(device, l, /*lower=*/true), upper_(device, u, /*lower=*/false) {}

void LuSolver::rebind(const Csr& l, const Csr& u) {
  // Validate both before swapping either, so a failed rebind leaves the
  // solver consistently bound to the old factors.
  E2ELU_CHECK_MSG(same_pattern(lower_.factor(), l),
                  "rebind: L pattern differs from the levelized factor");
  E2ELU_CHECK_MSG(same_pattern(upper_.factor(), u),
                  "rebind: U pattern differs from the levelized factor");
  lower_.rebind(l);
  upper_.rebind(u);
}

std::vector<value_t> LuSolver::solve(std::span<const value_t> b) const {
  std::vector<value_t> x(b.begin(), b.end());
  lower_.solve(x);
  upper_.solve(x);
  return x;
}

std::vector<double> refine(const Csr& a, const LuSolver& solver,
                           std::span<const value_t> b,
                           std::vector<value_t>& x, int max_iters,
                           double tol) {
  E2ELU_CHECK(b.size() == static_cast<std::size_t>(a.n));
  x = solver.solve(b);
  std::vector<double> history;
  std::vector<value_t> r(static_cast<std::size_t>(a.n));
  const double bnorm = vector_norm(b);
  for (int iter = 0; iter < max_iters; ++iter) {
    // r = b - A x.
    for (index_t i = 0; i < a.n; ++i) {
      value_t acc = b[i];
      const auto cols = a.row_cols(i);
      const auto vals = a.row_vals(i);
      for (std::size_t k = 0; k < cols.size(); ++k) {
        acc -= vals[k] * x[cols[k]];
      }
      r[i] = acc;
    }
    const double rel = bnorm == 0 ? vector_norm(r) : vector_norm(r) / bnorm;
    history.push_back(rel);
    if (rel < tol) break;
    const std::vector<value_t> dx = solver.solve(r);
    for (index_t i = 0; i < a.n; ++i) x[i] += dx[i];
  }
  return history;
}

}  // namespace e2elu::solve
