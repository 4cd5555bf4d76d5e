// JobReport: the per-job telemetry record of the FactorService.
//
// The paper's argument is phase accounting for one factorization; the
// service's operational questions are the same accounting per *job*:
// how long did this submission wait in the queue, did it route warm or
// cold, what did the device do for it, and did any recovery machinery
// fire. One JobReport answers all of that for one job. It is returned to
// the client inside JobResult (so a tenant can see its own breakdown),
// recorded into the per-tenant latency histograms and SLO accounting
// (telemetry/service_telemetry.hpp), and kept in the flight recorder's
// ring so an incident dump carries the recent history.
//
// Timing invariant (test-enforced): the wall phases partition the job's
// end-to-end latency exactly —
//
//   total_us = queue_wait_us + cache_lookup_us + build_us + replay_us
//              + solve_us + other_us
//
// by construction: the first five are disjoint measured subintervals of
// admission -> completion, and other_us is defined as the remainder
// (worker dispatch, cache insertion, accounting). Because each phase
// histogram receives exactly these addends, the per-phase histogram sums
// tile the end-to-end histogram's sum.
#pragma once

#include <cstdint>
#include <string>

#include "gpusim/device.hpp"
#include "support/types.hpp"

namespace e2elu::telemetry {

struct JobReport {
  std::uint64_t job_id = 0;
  std::string tenant;
  int priority = 0;

  /// What was submitted: order, nonzeros, and the pattern-cache key. The
  /// hash names the cached plan an offline replay needs (the incident
  /// file's pointer back to the submission's structure).
  index_t n = 0;
  offset_t nnz = 0;
  std::uint64_t structure_hash = 0;

  /// Routing outcome.
  bool cache_hit = false;
  bool replayed = false;
  bool demoted = false;  ///< stability fallback re-ran the full pipeline
  bool sharded = false;  ///< routed to the multi-device sharded path
  int sharded_devices = 0;  ///< group members the sharded run used
  bool failed = false;
  std::string error;       ///< what() of the failure ("" when clean)
  std::string error_kind;  ///< fault_kind_name ("" when clean/unstructured)

  /// Wall-clock phase breakdown, microseconds (see the tiling invariant
  /// above). Phases that did not run are 0.
  double queue_wait_us = 0;    ///< admission -> worker pop
  double cache_lookup_us = 0;  ///< pattern-cache probe
  double build_us = 0;         ///< cold full-pipeline build (incl. retries)
  double replay_us = 0;        ///< warm numeric-only replay
  double solve_us = 0;         ///< triangular solve of the submitted rhs
  double other_us = 0;         ///< remainder: dispatch, insertion, accounting
  double total_us = 0;         ///< admission -> completion, = sum of phases

  /// Pre-processing sub-phase breakdown (wall, microseconds) of a cold
  /// build: matching / ordering / scaling are measured disjoint
  /// subintervals of the build's preprocess stage and other_us is defined
  /// as the remainder (permutation application, diagonal patching), so
  ///
  ///   preprocess_total_us = preprocess_match_us + preprocess_order_us
  ///                         + preprocess_scale_us + preprocess_other_us
  ///
  /// exactly, and preprocess_total_us is itself contained in build_us —
  /// the top-level tiling invariant is untouched. All zero on warm
  /// replays.
  double preprocess_match_us = 0;
  double preprocess_order_us = 0;
  double preprocess_scale_us = 0;
  double preprocess_other_us = 0;
  double preprocess_total_us = 0;

  /// Simulated device+host time the job consumed, and this job's share of
  /// the device counters (a delta, not a cumulative snapshot).
  double sim_us = 0;
  std::uint64_t launches = 0;
  gpusim::DeviceStats device;

  /// Recovery/fault accounting of this job: the build's FactorResult on
  /// cold, sharded and demoted jobs; on a reused replay, the replay's
  /// own retries (it neither replans nor perturbs).
  index_t symbolic_replans = 0;
  index_t pivot_perturbations = 0;
  index_t recovery_retries = 0;

  /// Wall time of admission on the tracer-epoch clock (Tracer::now_us()),
  /// so reports order consistently with trace spans.
  double submitted_at_us = 0;
};

}  // namespace e2elu::telemetry
