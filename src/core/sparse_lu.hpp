// SparseLU: the end-to-end pipeline of Figure 2 and the library's main
// public entry point.
//
//   pre-processing -> symbolic factorization -> levelization -> numeric
//   factorization -> triangular solves
//
// Every phase runs "on the GPU" (the simulated device) in the GPU modes;
// Mode::CpuBaseline is the paper's comparison system, a multicore-CPU
// symbolic + levelization feeding the GLU3.0-style numeric phase. The
// numeric stage is swappable (NumericExecutor): the default runs on one
// device, sharding::ShardedFactorizer plugs in a device group, and
// refactorize() runs the stage alone on cached artifacts. Every stage
// recovers from faults through one helper (core/recovery.hpp).
//
// Typical use:
//   SparseLU lu(options);
//   FactorResult f = lu.factorize(A);
//   std::vector<value_t> x = SparseLU::solve(f, b);
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "core/factor_error.hpp"
#include "core/recovery.hpp"
#include "gpusim/device.hpp"
#include "gpusim/spec.hpp"
#include "matrix/csr.hpp"
#include "numeric/numeric.hpp"
#include "preprocess/preprocess.hpp"
#include "scheduling/levelize.hpp"
#include "symbolic/symbolic.hpp"

namespace e2elu {

/// Where each phase executes and how data movement is handled.
enum class Mode {
  OutOfCoreGpu,          ///< Algorithm 3 symbolic, GPU levelization
  OutOfCoreGpuDynamic,   ///< Algorithm 4 symbolic, GPU levelization
  UnifiedMemoryGpu,      ///< managed-memory symbolic with prefetch
  UnifiedMemoryGpuNoPrefetch,  ///< managed-memory symbolic, demand paging
  CpuBaseline,           ///< modified GLU3.0: CPU symbolic + levelization
};

enum class NumericFormat {
  Auto,               ///< paper's rule: sparse iff n > L/(TB_max*sizeof)
  DenseWindow,        ///< GLU3.0 dense format
  SparseBinarySearch  ///< Algorithm 6
};

enum class Ordering { None, Rcm, MinDegree };

/// Retry budgets for the per-phase recovery (with_recovery). Device
/// faults (OOM, lost launches) and numeric breakdowns (zero pivots) are
/// retried with escalating counter-measures — re-planned symbolic
/// partitioning, a numeric format fallback, diagonal perturbation —
/// before factorize() gives up with a FactorError. Disabling recovery
/// turns the first fault into its FactorError, which is what most unit
/// tests want.
struct RecoveryOptions {
  bool enabled = true;
  /// Symbolic attempts. Attempt k >= 1 re-plans through the Algorithm 4
  /// multipart planner with 2^k partitions: bounded queues shrink the
  /// scratch footprint, which is the principled answer to symbolic OOM.
  int max_symbolic_attempts = 4;
  /// Numeric attempts (covers transient faults, one perturbation round,
  /// and the dense -> sparse format fallback).
  int max_numeric_attempts = 4;
};

struct Options {
  Mode mode = Mode::OutOfCoreGpu;
  NumericFormat numeric_format = NumericFormat::Auto;
  gpusim::DeviceSpec device = gpusim::DeviceSpec::v100();
  gpusim::HostSpec host;  ///< CPU model for the baseline's time accounting
  /// Routes simulated-kernel bodies through this pool instead of
  /// ThreadPool::global(). A single-worker pool makes block execution
  /// order — and thus the bits of atomically accumulated factors —
  /// deterministic; services pin per-worker pools so concurrent jobs do
  /// not serialize on the global task slot. Not owned; must outlive every
  /// factorize() using these options.
  ThreadPool* pool = nullptr;

  Ordering ordering = Ordering::Rcm;
  /// Pre-processing execution mode + knobs. PreprocessMode::Serial is the
  /// paper's host-serial stage (modeled at one host thread's throughput);
  /// PreprocessMode::GpuParallel runs matching, minimum-degree ordering,
  /// and equilibration as kernels on the job's device
  /// (preprocess/parallel/).
  PreprocessOptions preprocess;
  /// Inter-column dependency detection for levelization; Symmetrized is
  /// GLU3.0's cheap safe rule, DoubleU the exact (original-GLU) rule that
  /// yields shallower schedules at higher detection cost.
  scheduling::DependencyRule dependency_rule =
      scheduling::DependencyRule::Symmetrized;
  bool match_diagonal = true;   ///< MC64-lite column permutation
  /// Patch zero diagonals with this value before factorizing (§4.4 uses
  /// 1000 for the rank-deficient Table 4 matrices). nullopt: throw on a
  /// structurally/numerically empty pivot instead.
  std::optional<value_t> diag_patch = 1000.0;

  symbolic::SymbolicOptions symbolic;
  numeric::NumericOptions numeric;
  RecoveryOptions recovery;
};

/// Per-phase cost accounting. `sim_us` is modeled device/host time from
/// measured operation counts; `wall_ms` is the host wall clock of this
/// process (a 1-core simulation — meaningful for regressions, not for
/// paper comparisons).
struct PhaseReport {
  double sim_us = 0;
  double wall_ms = 0;
  std::uint64_t ops = 0;
  std::uint64_t launches = 0;  ///< host + device kernel launches this phase
};

struct FactorResult {
  index_t n = 0;
  Csr l;  ///< unit lower-triangular factor (diagonal stored)
  Csr u;  ///< upper-triangular factor
  Permutation row_perm;  ///< factorized matrix is P_r A P_c^T -> LU
  Permutation col_perm;
  offset_t fill_nnz = 0;           ///< nnz(L+U)
  index_t num_levels = 0;
  index_t symbolic_chunks = 0;     ///< out-of-core iterations used
  bool used_sparse_numeric = false;
  index_t fused_levels = 0;        ///< levels executed inside fused launches

  /// Recovery accounting (all zero on a clean run).
  index_t symbolic_replans = 0;      ///< multipart re-plans after device OOM
  index_t pivot_perturbations = 0;   ///< diagonals bumped to unblock a pivot
  index_t recovery_retries = 0;      ///< total phase retries of any kind

  PhaseReport preprocess, symbolic, levelize, numeric;
  /// Pre-processing sub-phases. They tile `preprocess` together with its
  /// host-side remainder (permutation application + diagonal patching):
  /// preprocess.sim_us = preprocess_match.sim_us + preprocess_order.sim_us
  /// + preprocess_scale.sim_us + remainder, and the same for ops. Phases
  /// that did not run report zeros.
  PhaseReport preprocess_match, preprocess_order, preprocess_scale;
  /// Equilibration scales (empty unless PreprocessOptions::equilibrate).
  /// solve() un-does them around the triangular solves.
  Scaling scaling;
  gpusim::DeviceStats device_stats;  ///< whole-pipeline device counters

  double total_sim_us() const {
    return preprocess.sim_us + symbolic.sim_us + levelize.sim_us +
           numeric.sim_us;
  }
};

/// What one factorize() run built for its numeric stage: everything a
/// same-pattern re-factorization reuses without redoing the symbolic and
/// levelization phases. The permutations live in the accompanying
/// FactorResult. Consumed by SparseLU::refactorize through
/// refactor::Refactorizer.
struct FactorizationArtifacts {
  /// As after the elimination: the filled pattern of L+U (rows sorted) in
  /// both orientations, its position maps and the factored values.
  numeric::FactorMatrix matrix;
  scheduling::LevelSchedule schedule;  ///< column level schedule
  numeric::LevelPlan plan;             ///< the level plan the executor ran
  /// Resolved numeric format, a dense -> sparse OOM fallback included.
  bool use_sparse_numeric = false;
};

/// What the numeric stage hands its executor once levelization is done.
/// The referenced objects live until the numeric stage ends.
struct NumericStage {
  const Csr& filled;                         ///< symbolic's L+U pattern
  const scheduling::DependencyGraph& graph;  ///< levelization's input
  const scheduling::LevelSchedule& schedule;
};

/// The numeric stage of the pipeline (§3.4). SparseLU owns the value
/// fill, the zero-pivot policy, the retry budget and the phase report;
/// the executor owns where the elimination runs and how it answers a
/// device fault.
class NumericExecutor {
 public:
  virtual ~NumericExecutor() = default;
  /// Called once per factorize(), before the first attempt (an executor
  /// for refactorize() comes planned from its artifacts).
  virtual void plan(const NumericStage& stage) = 0;
  /// One elimination attempt over freshly scattered values.
  virtual numeric::NumericStats run(numeric::FactorMatrix& fm,
                                    const scheduling::LevelSchedule& s) = 0;
  /// Counter-measure for the device fault the last run() threw.
  virtual Retry on_device_fault(const Fault& fault) = 0;
  /// Simulated clock and launch count the numeric phase is charged by.
  virtual double clock_us() = 0;
  virtual std::uint64_t launches() const = 0;
  /// True when the elimination ran in the sparse binary-search format.
  virtual bool sparse() const = 0;
};

class SparseLU {
 public:
  explicit SparseLU(Options options = {});

  /// Runs the full pipeline on A (square, structurally non-singular).
  FactorResult factorize(const Csr& a);

  /// As factorize(), additionally exporting what the numeric stage ran
  /// on, for pattern-reuse re-factorization (refactorize()).
  FactorResult factorize(const Csr& a, FactorizationArtifacts& artifacts);

  /// Runs the full pipeline on `device` with `numeric` as the numeric
  /// stage. Options::pool is not applied: the device keeps its own.
  FactorResult factorize(const Csr& a, gpusim::Device& device,
                         NumericExecutor& numeric);

  /// Rewrites As's values before a retry: a failed elimination leaves
  /// them partially updated.
  using Refill = std::function<void(numeric::FactorMatrix&)>;

  /// The pipeline's numeric stage alone, on cached artifacts and on the
  /// caller's `device`, which already holds As's arrays. On entry
  /// artifacts.matrix holds the first attempt's values; `refill` rewrites
  /// them before each retry. Runs the artifacts' format, or the replay
  /// task list when `replay_storage` is given. Returns the numeric
  /// PhaseReport, recovery_retries and pivot_perturbations; the other
  /// fields stay empty.
  FactorResult refactorize(gpusim::Device& device,
                           FactorizationArtifacts& artifacts,
                           const numeric::ReplayPlan& replay,
                           numeric::DeviceReplayPlan* replay_storage,
                           const Refill& refill);

  /// Solves A x = b using a factorization from this class (applies the
  /// stored permutations around the triangular solves).
  static std::vector<value_t> solve(const FactorResult& f,
                                    std::span<const value_t> b);

  /// Relative residual ||Ax - b|| / ||b|| — the end-to-end accuracy check.
  static double residual(const Csr& a, std::span<const value_t> x,
                         std::span<const value_t> b);

 private:
  FactorResult factorize_impl(const Csr& a, gpusim::Device& dev,
                              NumericExecutor& numeric,
                              FactorizationArtifacts& artifacts);
  /// The numeric stage: attempts of `numeric` over `m` under
  /// with_recovery, the zero-pivot policy (retry, then perturb) and the
  /// phase report. A cold build passes its `stage`: the executor is
  /// planned and `m` filled inside the phase. Without one, `m` arrives
  /// filled and `refill` runs before retries only.
  FactorResult run_numeric(NumericExecutor& numeric, const NumericStage* stage,
                           numeric::FactorMatrix& m,
                           const scheduling::LevelSchedule& s,
                           const Refill& refill) const;
  /// Attempts a phase may spend on faults; 0 turns recovery off.
  int budget(int attempts) const {
    return options_.recovery.enabled ? attempts : 0;
  }

  Options options_;
};

/// Forward/backward substitution on CSR triangular factors (exposed for
/// tests and examples).
void lower_solve_unit(const Csr& l, std::vector<value_t>& x);
void upper_solve(const Csr& u, std::vector<value_t>& x);

}  // namespace e2elu
