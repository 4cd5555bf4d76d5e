// Level-scheduled sparse triangular solves on the simulated device, plus
// iterative refinement.
//
// The paper's pipeline ends at numeric factorization, but its premise —
// "a complete sparse LU factorization workflow on a GPU" — implies the
// consumer: solving L y = b and U x = y for each right-hand side of the
// application (circuit simulators solve thousands of times per
// factorization). Triangular solves carry the same row-dependency
// structure the paper levelizes for numeric factorization, so the same
// one-launch sync-free levelizer schedules them, reading each factor row
// as its own predecessor list: rows within a level are independent and
// solve in parallel.
//
// Circuit schedules are deep and narrow, so a kernel per level makes the
// solve launch-bound. Each solver therefore clusters its levels once, at
// construction, with the numeric fusion clusterer under the device-derived
// thresholds: a run of narrow levels becomes ONE launch whose blocks spin
// on per-row ready flags (the synchronization-free SpTRSV of Liu et al.),
// and wide levels keep their own launch. Substitution has no atomics, so
// fused and per-level sweeps produce the same bits.
#pragma once

#include <span>
#include <vector>

#include "gpusim/device.hpp"
#include "matrix/csr.hpp"
#include "scheduling/fusion.hpp"
#include "scheduling/levelize.hpp"

namespace e2elu::scheduling {
class ReadyFlags;
}

namespace e2elu::solve {

/// Streaming (out-of-core) solve: when enabled, the factor rows are not
/// device-resident — consecutive clusters are grouped into chunks whose
/// rows fit budget_bytes / (1 + prefetch_ahead), and each chunk's rows
/// stream in on a transfer stream ahead of the compute stream's
/// substitution kernels, mirroring the numeric factor window. Chunks end
/// on cluster boundaries, because a fused launch needs all of its rows; a
/// cluster too big for one chunk is split at level boundaries first. The
/// factor is read-only during a solve, so a retired chunk is simply
/// dropped (no write-back). Factors produced by a windowed factorization
/// live on the host; this is how their solves get them back without ever
/// holding L or U whole on the device.
struct SolveStreamOptions {
  bool enabled = false;
  std::size_t budget_bytes = 0;  ///< 0 = device free bytes at solve entry
  int prefetch_ahead = 1;
};

/// Accumulated streaming counters over all solve() calls.
struct SolveStreamStats {
  std::uint64_t chunks = 0;
  std::uint64_t prefetches = 0;  ///< chunk fetches issued ahead
  std::uint64_t fetch_bytes = 0;
  std::uint64_t max_chunk_bytes = 0;  ///< largest single chunk fetched
  double stall_us = 0;  ///< compute blocked on an unfinished fetch
};

/// A triangular factor prepared for repeated level-parallel solves: the
/// per-row levels are computed once (on the device, by the sync-free
/// levelizer), clustered once, and reused for every right-hand side.
class TriangularSolver {
 public:
  /// `lower` selects forward substitution (unit diagonal assumed stored,
  /// as produced by extract_lu) vs backward substitution with an explicit
  /// diagonal.
  TriangularSolver(gpusim::Device& device, const Csr& factor, bool lower);

  /// Solves in place: x holds b on entry, the solution on return. The
  /// one-column case of solve_many.
  void solve(std::vector<value_t>& x) const;

  /// Solves in place for `num_rhs` right-hand sides: `x` is the
  /// column-major n x num_rhs block (column r at [r*n, (r+1)*n)), holding
  /// B on entry and X on return. One launch per cluster whatever num_rhs
  /// is, grid = cluster rows x num_rhs, RHS-major. Each column's
  /// arithmetic is identical, operation for operation, to solve() of that
  /// column, and ops count once per (row element, rhs).
  void solve_many(std::span<value_t> x, index_t num_rhs) const;

  /// Rebinds to a factor with the identical pattern but updated values
  /// (a re-factorization): the cached level schedule, clusters and
  /// diagonal positions stay valid, so nothing is recomputed. Throws if the
  /// pattern differs. The factor must outlive the solver.
  void rebind(const Csr& factor);

  const Csr& factor() const { return *factor_; }

  /// Enables/disables streaming mode for subsequent solve() calls.
  void set_stream_options(const SolveStreamOptions& opt) { stream_opt_ = opt; }
  const SolveStreamStats& stream_stats() const { return stream_stats_; }

  index_t num_levels() const { return schedule_.num_levels(); }
  /// Launches one sweep issues: a multi-level cluster runs as one fused
  /// launch, every other level as its own.
  index_t num_clusters() const { return clusters_.num_clusters(); }
  /// Work items performed by this solver's kernels, summed over all
  /// solve()/solve_many() calls, once per (row element, rhs): one B-wide
  /// batch reports exactly B times the work of one solve().
  std::uint64_t ops() const { return ops_; }

 private:
  /// Streaming sweep: chunks the clusters under the budget, prefetches
  /// upcoming chunks on a transfer stream, launches on a compute stream.
  void solve_streamed(std::span<value_t> x, index_t num_rhs,
                      scheduling::ReadyFlags* flags) const;
  /// The substitution kernel for levels [lo, hi) over all num_rhs
  /// columns, on `stream` (null = default): one fused launch when it spans
  /// several levels, synchronized through `flags` (indexed by
  /// rhs * n + row), a plain level launch otherwise.
  void launch_levels(index_t lo, index_t hi, std::span<value_t> x,
                     index_t num_rhs, gpusim::Stream* stream,
                     scheduling::ReadyFlags* flags) const;

  gpusim::Device* device_;
  const Csr* factor_;
  bool lower_;
  scheduling::LevelSchedule schedule_;
  scheduling::ClusterSchedule clusters_;
  std::vector<offset_t> diag_pos_;  ///< position of (i,i) in each row
  std::vector<std::size_t> level_bytes_;  ///< factor-row bytes per level
  SolveStreamOptions stream_opt_;
  mutable SolveStreamStats stream_stats_;
  mutable std::uint64_t ops_ = 0;
  double warp_eff_ = 1.0;
};

/// One factorization, many solves: wraps both factors.
class LuSolver {
 public:
  LuSolver(gpusim::Device& device, const Csr& l, const Csr& u);

  /// Solves L U x = b.
  std::vector<value_t> solve(std::span<const value_t> b) const;

  /// Rebinds both factors to same-pattern replacements without rebuilding
  /// the level schedules. Validates both patterns before swapping either.
  void rebind(const Csr& l, const Csr& u);

  /// Streaming mode for both factors (see SolveStreamOptions).
  void set_stream_options(const SolveStreamOptions& opt) {
    lower_.set_stream_options(opt);
    upper_.set_stream_options(opt);
  }

  const TriangularSolver& lower() const { return lower_; }
  const TriangularSolver& upper() const { return upper_; }

 private:
  TriangularSolver lower_;
  TriangularSolver upper_;
};

/// Iterative refinement: improves x for A x = b using the (possibly
/// lower-accuracy) factorization-based solver. Returns the relative
/// residual history, one entry per iteration (including the initial
/// solve). Stops early below `tol`.
std::vector<double> refine(const Csr& a, const LuSolver& solver,
                           std::span<const value_t> b,
                           std::vector<value_t>& x, int max_iters = 5,
                           double tol = 1e-14);

}  // namespace e2elu::solve
