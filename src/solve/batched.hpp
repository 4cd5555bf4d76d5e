// Batched multi-RHS triangular solves: one kernel launch per cluster for a
// whole block of right-hand sides.
//
// The motivating consumer of the end-to-end pipeline (GLU3.0's circuit
// workload) solves thousands of right-hand sides per factorization. The
// level schedule and its clustering are properties of the factor pattern
// alone, so B right-hand sides sweep every cluster together with a grid of
// (cluster rows x B) blocks: launch overhead per RHS collapses by a factor
// of B while the per-(row, rhs) arithmetic is exactly the one-RHS
// kernel's — results are bit-identical to B independent solve() calls.
// These wrappers bind to existing solvers; the sweep itself is
// TriangularSolver::solve_many / PipelineSolver::solve_many.
//
// Layout convention: a block of B right-hand sides is a column-major
// n x B array, column r at [r*n, (r+1)*n).
#pragma once

#include <span>
#include <vector>

#include "solve/pipeline_solver.hpp"
#include "solve/triangular.hpp"

namespace e2elu::solve {

/// Batched sweeps over an existing TriangularSolver's cached schedule.
/// Holds no state of its own beyond the binding: rebind() on the
/// underlying solver (same pattern, new values) is picked up
/// automatically, and work items land in its ops() once per (row, rhs).
/// The underlying solver must outlive this object.
class BatchedTriangularSolver {
 public:
  explicit BatchedTriangularSolver(const TriangularSolver& base)
      : base_(&base) {}

  /// Solves in place for `num_rhs` right-hand sides: `x` is the
  /// column-major n x num_rhs block, holding B on entry and X on return.
  void solve_many(std::span<value_t> x, index_t num_rhs) const {
    base_->solve_many(x, num_rhs);
  }

  const TriangularSolver& base() const { return *base_; }

 private:
  const TriangularSolver* base_;
};

/// Batched counterpart of PipelineSolver::solve, bound to an existing
/// PipelineSolver: a rebind() on it (e.g. after refactor::Refactorizer::
/// refactorize) retargets the batched path too.
class BatchedPipelineSolver {
 public:
  explicit BatchedPipelineSolver(const PipelineSolver& base) : base_(&base) {}

  /// Solves A x_r = b_r for every column r of the column-major n x num_rhs
  /// block `b`; returns the solutions in the same layout. Bit-identical to
  /// num_rhs sequential PipelineSolver::solve calls.
  std::vector<value_t> solve_many(std::span<const value_t> b,
                                  index_t num_rhs) const {
    return base_->solve_many(b, num_rhs);
  }

  /// Kernel launches one call performs, whatever `num_rhs` is: one per
  /// cluster per factor (the permutations and scaling are host-side).
  std::uint64_t launches_per_batch() const {
    return static_cast<std::uint64_t>(base_->lu().lower().num_clusters()) +
           static_cast<std::uint64_t>(base_->lu().upper().num_clusters());
  }

  const PipelineSolver& base() const { return *base_; }

 private:
  const PipelineSolver* base_;
};

}  // namespace e2elu::solve
