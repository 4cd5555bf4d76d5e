// PipelineSolver: repeated GPU solves against a SparseLU factorization.
//
// SparseLU::solve() is a host-side convenience; applications like circuit
// transient simulation solve thousands of right-hand sides per
// factorization and want those on the device too. PipelineSolver wraps
// the level-scheduled triangular solvers with the factorization's row and
// column permutations and equilibration scales, so `solve(b)` answers the
// *original* system A x = b.
//
// Batched multi-RHS solves: the level schedule and its clustering are
// properties of the factor pattern alone, so B right-hand sides sweep
// every cluster together with a grid of (cluster rows x B) blocks. Launch
// overhead per RHS collapses by a factor of B while the per-(row, rhs)
// arithmetic is exactly the one-RHS kernel's, so results are
// bit-identical to B independent solve() calls. A block of B right-hand
// sides is a column-major n x B array, column r at [r*n, (r+1)*n).
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/sparse_lu.hpp"
#include "solve/triangular.hpp"
#include "trace/trace.hpp"

namespace e2elu::solve {

/// Outcome of one solve_refined() call: how many correction sweeps
/// actually ran and the residual they achieved.
struct RefineReport {
  int iterations = 0;       ///< correction solves applied (<= max_iters)
  double residual_inf = 0;  ///< achieved relative residual, inf-norm
  bool converged = false;   ///< residual_inf dropped below tol
};

class PipelineSolver {
 public:
  /// Prepares level schedules for both factors on `device`. The
  /// FactorResult must outlive the solver.
  PipelineSolver(gpusim::Device& device, const FactorResult& factorization)
      : factorization_(&factorization),
        lu_(device, factorization.l, factorization.u) {}

  /// Rebinds to updated factors with the same pattern — e.g. after a
  /// refactor::Refactorizer::refactorize — without rebuilding the level
  /// schedules. The new FactorResult must outlive the solver. Throws (and
  /// leaves the solver on the old factors) if the patterns differ.
  void rebind(const FactorResult& factorization) {
    E2ELU_CHECK_MSG(factorization.n == factorization_->n,
                    "rebind: factorization order differs");
    lu_.rebind(factorization.l, factorization.u);
    factorization_ = &factorization;
  }

  /// Solves A x = b on the device (two clustered triangular sweeps).
  std::vector<value_t> solve(std::span<const value_t> b) const {
    return solve_many(b, 1);
  }

  /// Solves A x_r = b_r for every column r of the column-major n x num_rhs
  /// block `b`; returns the solutions in the same layout. Column by column
  /// this is exactly SparseLU::solve's transformation — the factors are of
  /// As = Dr A Dc (Dr = Dc = I without equilibration) permuted, so
  ///   c[i] = row_scale[row_perm[i]] * b[row_perm[i]]      (before L),
  ///   x[col_perm[j]] = col_scale[col_perm[j]] * y[j]      (after U)
  /// — and the results are bit-identical to it.
  std::vector<value_t> solve_many(std::span<const value_t> b,
                                  index_t num_rhs) const {
    const FactorResult& f = *factorization_;
    const auto n = static_cast<std::size_t>(f.n);
    E2ELU_CHECK_MSG(num_rhs >= 0, "negative batch size");
    E2ELU_CHECK(b.size() == n * static_cast<std::size_t>(num_rhs));
    TRACE_SPAN("solve.pipeline", {{"n", f.n}, {"rhs", num_rhs}});
    if (num_rhs == 0) return {};
    const bool scaled = f.scaling.enabled();
    std::vector<value_t> y(b.size());
    for (std::size_t off = 0; off < b.size(); off += n) {
      for (index_t i = 0; i < f.n; ++i) {
        const index_t i0 = f.row_perm[i];
        y[off + i] = scaled ? f.scaling.row_scale[i0] * b[off + i0]
                            : b[off + i0];
      }
    }
    lu_.lower().solve_many(y, num_rhs);
    lu_.upper().solve_many(y, num_rhs);
    std::vector<value_t> x(b.size());
    for (std::size_t off = 0; off < b.size(); off += n) {
      for (index_t j = 0; j < f.n; ++j) {
        const index_t j0 = f.col_perm[j];
        x[off + j0] = scaled ? f.scaling.col_scale[j0] * y[off + j]
                             : y[off + j];
      }
    }
    return x;
  }

  /// Solves with iterative refinement against the original matrix.
  /// Converged systems exit early: the ||r||inf / ||b||inf relative
  /// residual is tested before every correction, so an already-accurate
  /// solution costs one pair of triangular sweeps, not 1 + max_iters
  /// pairs. The achieved residual and iteration count are reported
  /// through `report` when given.
  std::vector<value_t> solve_refined(const Csr& a,
                                     std::span<const value_t> b,
                                     int max_iters = 3, double tol = 1e-14,
                                     RefineReport* report = nullptr) const {
    std::vector<value_t> x = solve(b);
    std::vector<value_t> r(static_cast<std::size_t>(a.n));
    double b_inf = 0;
    for (const value_t v : b) {
      b_inf = std::max(b_inf, std::abs(static_cast<double>(v)));
    }
    RefineReport rep;
    for (int iter = 0;; ++iter) {
      double r_inf = 0;
      for (index_t i = 0; i < a.n; ++i) {
        value_t acc = b[i];
        const auto cols = a.row_cols(i);
        const auto vals = a.row_vals(i);
        for (std::size_t k = 0; k < cols.size(); ++k) {
          acc -= vals[k] * x[cols[k]];
        }
        r[i] = acc;
        r_inf = std::max(r_inf, std::abs(static_cast<double>(acc)));
      }
      rep.residual_inf = b_inf == 0 ? r_inf : r_inf / b_inf;
      if (rep.residual_inf < tol) {
        rep.converged = true;
        break;
      }
      if (iter == max_iters) break;
      const std::vector<value_t> dx = solve(r);
      for (index_t i = 0; i < a.n; ++i) x[i] += dx[i];
      rep.iterations = iter + 1;
    }
    if (report != nullptr) *report = rep;
    return x;
  }

  /// Kernel launches one solve_many() performs, whatever `num_rhs` is:
  /// one per cluster per factor (the permutations and scaling are
  /// host-side).
  std::uint64_t launches_per_batch() const {
    return static_cast<std::uint64_t>(lu_.lower().num_clusters()) +
           static_cast<std::uint64_t>(lu_.upper().num_clusters());
  }

  const LuSolver& lu() const { return lu_; }
  /// The bound factorization (updated by rebind).
  const FactorResult& factorization() const { return *factorization_; }

 private:
  const FactorResult* factorization_;
  LuSolver lu_;
};

}  // namespace e2elu::solve
