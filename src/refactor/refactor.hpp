// Refactorization engine: pattern-reuse numeric re-factorization for
// sequences of matrices whose values change but whose sparsity pattern
// does not — the paper's motivating SPICE workload (one Newton/transient
// step per matrix) and GLU3.0's core re-factorization mode.
//
// A Refactorizer is built from one full SparseLU::factorize run and keeps
// what that run built for its numeric stage (FactorizationArtifacts) plus
// the permutations. refactorize(a_new) scatters the new values through the
// cached permutations into As, re-uploads only the values array, and runs
// only the pipeline's numeric stage (SparseLU::refactorize) — no
// preprocessing, symbolic factorization or levelization. Faults there get
// the pipeline's own recovery.
//
// The engine owns the value map and scatter, the stability monitor, and
// the residency of the replay plan (cuSOLVER-rf / NICSLU style: the exact
// destination of every sub-column update, resolved once per pattern),
// which the numeric stage runs as its third format. The O(flops) task
// array lives in device memory when it fits and in unified (managed)
// memory otherwise; when not even the O(fill) per-sub-column arrays fit,
// the stage runs the cached one-shot format.
//
// Static-pivot safety: the cached permutations were chosen for the
// original values, so each refactorization is monitored (pivot growth,
// smallest pivot, finiteness, perturbed pivots). Past the thresholds — or
// when the stage's retry budget is spent — the engine falls back to a
// fresh end-to-end factorization of the new matrix and refreshes every
// cache, reporting the event in RefactorReport/RefactorStats.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/sparse_lu.hpp"
#include "numeric/numeric.hpp"

namespace e2elu::refactor {

struct RefactorOptions {
  /// Fall back when max|As| over the factorized matrix exceeds this many
  /// times max|A| of the input (element growth of the static-pivot
  /// elimination).
  double max_pivot_growth = 1e8;
  /// Fall back when the smallest |U(j,j)| drops below this times max|A|.
  double min_pivot_ratio = 1e-12;
};

/// Outcome of one refactorize() call.
struct RefactorReport {
  bool reused = false;     ///< the numeric-only path completed and was kept
  bool fell_back = false;  ///< a full end-to-end factorization ran instead
  const char* fallback_reason = "";
  double pivot_growth = 0;  ///< max|As_factored| / max|A_input|
  double min_pivot = 0;     ///< smallest |U(j,j)| of the reuse attempt
  PhaseReport scatter;      ///< permuted value scatter + device upload
  /// The re-run numeric stage (launch count left 0: the call's device
  /// launches are in `device`).
  PhaseReport numeric;
  index_t recovery_retries = 0;  ///< numeric retries taken in place
  double fallback_sim_us = 0;    ///< full-pipeline time when fell_back
  gpusim::DeviceStats device;    ///< this call's device-counter deltas
  double total_sim_us() const {
    return scatter.sim_us + numeric.sim_us + fallback_sim_us;
  }
};

/// Aggregates over the life of one Refactorizer.
struct RefactorStats {
  std::uint64_t calls = 0;
  std::uint64_t reused = 0;               ///< numeric-only successes
  std::uint64_t stability_fallbacks = 0;  ///< pivot monitor / numeric failure
  double reused_sim_us = 0;    ///< total simulated time on the reuse path
  double fallback_sim_us = 0;  ///< total simulated time in fallbacks
  RefactorReport last;
};

class Refactorizer {
 public:
  /// Runs one full factorization of `a` (building the cache) with
  /// SparseLU under `options`.
  explicit Refactorizer(const Csr& a, Options options = {},
                        RefactorOptions refactor_options = {});

  /// Re-factorizes a same-pattern matrix through the cached pipeline
  /// state; throws if the pattern differs. On fallback the cache is
  /// refreshed from a_new.
  RefactorReport refactorize(const Csr& a_new);

  /// The current factors; updated in place by every refactorize() call,
  /// so solvers bound to this object stay valid while the pattern holds.
  const FactorResult& factors() const { return factors_; }
  const RefactorStats& stats() const { return stats_; }
  /// The long-lived device holding the cached structure buffers; its
  /// counters accumulate over all refactorize() calls.
  gpusim::Device& device() { return device_; }

  /// Exact device-resident bytes this cache pins between calls: the
  /// structure + value buffers of As plus the replay task list
  /// (device-memory portion only — a managed-memory task array pages in
  /// and out on demand and pins nothing). This is the cost signal an LRU
  /// evictor charges a cached plan with; it equals the device's
  /// allocated_bytes() whenever no call is in flight, and is republished
  /// to the refactor.device_footprint_bytes gauge on every rebuild.
  std::size_t device_footprint_bytes() const;

 private:
  void rebuild(const Csr& a);
  /// Writes a's values into As through the cached maps (fill-in zeroed,
  /// zero diagonals patched) and uploads them; returns max|As| of the
  /// scattered values.
  double scatter(const Csr& a);
  RefactorReport fall_back(const Csr& a_new, const char* reason,
                           RefactorReport rep);

  Options options_;
  RefactorOptions ropt_;
  gpusim::Device device_;

  Csr base_pattern_;  ///< input pattern the cache was built for (no values)
  FactorResult factors_;
  FactorizationArtifacts artifacts_;
  numeric::ReplayPlan replay_;
  /// a.values position -> cached CSC position, through the permutations.
  std::vector<offset_t> value_map_;
  /// Per-entry equilibration factor row_scale[i0]*col_scale[j0] applied
  /// during scatter, empty when the cached factorization was unscaled.
  /// Replays reuse the *original* scales (static scaling), keeping the
  /// cached factors and solve() consistent for same-pattern sequences.
  std::vector<value_t> entry_scale_;
  std::optional<numeric::DeviceFactorMatrix> device_matrix_;
  std::optional<numeric::DeviceReplayPlan> device_replay_;
  RefactorStats stats_;
};

}  // namespace e2elu::refactor
