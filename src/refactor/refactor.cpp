#include "refactor/refactor.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "preprocess/preprocess.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu::refactor {

Refactorizer::Refactorizer(const Csr& a, Options options,
                           RefactorOptions refactor_options)
    : options_(std::move(options)),
      ropt_(refactor_options),
      device_(options_.device) {
  if (options_.pool != nullptr) device_.use_pool(*options_.pool);
  rebuild(a);
}

void Refactorizer::rebuild(const Csr& a) {
  validate(a);
  base_pattern_ = a;
  base_pattern_.values.clear();

  // The cold build runs on SparseLU's own fresh device: this device still
  // holds the previous plan's buffers during a fallback, and the dense
  // window sizes its column cap from free memory.
  FactorizationArtifacts fresh;
  factors_ = SparseLU(options_).factorize(a, fresh);
  artifacts_ = std::move(fresh);
  const numeric::FactorMatrix& m = artifacts_.matrix;

  // Value scatter map: A(i0,j0) lands at B(r,c) = (inv_row[i0],
  // inv_col[j0]) of the factorized matrix B = P_r A P_c^T, whose pattern
  // is contained in the cached filled pattern (Theorem 1).
  const Permutation inv_row = invert_permutation(factors_.row_perm);
  const Permutation inv_col = invert_permutation(factors_.col_perm);
  value_map_.resize(static_cast<std::size_t>(a.nnz()));
  entry_scale_.clear();
  if (factors_.scaling.enabled()) {
    entry_scale_.resize(static_cast<std::size_t>(a.nnz()));
  }
  for (index_t i0 = 0; i0 < a.n; ++i0) {
    const index_t r = inv_row[i0];
    const auto cols = m.pattern.row_cols(r);
    for (offset_t k = a.row_ptr[i0]; k < a.row_ptr[i0 + 1]; ++k) {
      const index_t j0 = a.col_idx[k];
      if (!entry_scale_.empty()) {
        entry_scale_[static_cast<std::size_t>(k)] =
            factors_.scaling.row_scale[i0] * factors_.scaling.col_scale[j0];
      }
      const index_t c = inv_col[j0];
      const auto it = std::lower_bound(cols.begin(), cols.end(), c);
      E2ELU_CHECK_MSG(it != cols.end() && *it == c,
                      "filled pattern is missing permuted entry ("
                          << r << "," << c << ")");
      value_map_[static_cast<std::size_t>(k)] =
          m.csr_pos_to_csc[m.pattern.row_ptr[r] + (it - cols.begin())];
    }
  }

  // Replay task list: one host-side build per pattern, amortized over
  // every subsequent refactorization (the cuSOLVER-rf / NICSLU task-list
  // trade). The reuse path runs it even when the pipeline chose the dense
  // window: precomputed destinations deliver the O(1) element access the
  // window exists to provide, without its per-batch scatter/gather
  // staging, so the format trade-off that picked dense for the one-shot
  // run does not apply to a replayed one.
  replay_ = numeric::build_replay_plan(m, artifacts_.schedule);

  // Refresh the device-resident structure: release the previous
  // generation's allocations before charging the new uploads. In windowed
  // (out-of-core) mode the factor arrays never live on the device whole —
  // the numeric phase streams them through the factor window — so only
  // the replay arrays are kept resident: the cache can then hold plans
  // whose factors would never fit.
  device_matrix_.reset();
  device_replay_.reset();
  if (!options_.numeric.window.enabled) device_matrix_.emplace(device_, m);
  if (!replay_.empty()) {
    try {
      device_replay_.emplace(device_, replay_);
      // The task array now lives in the DeviceReplayPlan (device or
      // managed memory); drop the build-side copy.
      replay_.tasks.clear();
      replay_.tasks.shrink_to_fit();
    } catch (const gpusim::OutOfDeviceMemory&) {
      // Not even the O(fill) per-sub-column arrays fit next to the
      // resident structure: refactorizations run the cached format.
      replay_ = {};
    }
  }
  trace::MetricsRegistry::global()
      .gauge("refactor.device_footprint_bytes")
      .set(static_cast<double>(device_footprint_bytes()));
}

std::size_t Refactorizer::device_footprint_bytes() const {
  std::size_t total = 0;
  if (device_matrix_.has_value()) {
    total += device_matrix_->col_ptr.bytes() + device_matrix_->row_ptr.bytes() +
             device_matrix_->map.bytes() + device_matrix_->row_idx.bytes() +
             device_matrix_->col_idx.bytes() + device_matrix_->values.bytes();
  }
  if (device_replay_.has_value()) {
    total += device_replay_->ujk_pos.bytes() +
             device_replay_->src_start.bytes() +
             device_replay_->task_start.bytes();
    if (device_replay_->tasks_device.has_value()) {
      total += device_replay_->tasks_device->bytes();
    }
  }
  return total;
}

RefactorReport Refactorizer::fall_back(const Csr& a_new, const char* reason,
                                       RefactorReport rep) {
  TRACE_SPAN("refactor.fallback", {{"reason", reason}});
  rebuild(a_new);
  rep.reused = false;
  rep.fell_back = true;
  rep.fallback_reason = reason;
  rep.fallback_sim_us = factors_.total_sim_us();
  rep.device = factors_.device_stats;
  ++stats_.stability_fallbacks;
  stats_.fallback_sim_us += rep.total_sim_us();
  stats_.last = rep;
  return rep;
}

double Refactorizer::scatter(const Csr& a) {
  numeric::FactorMatrix& m = artifacts_.matrix;
  std::fill(m.csc.values.begin(), m.csc.values.end(), value_t{0});
  double max_abs = 0;
  for (std::size_t k = 0; k < value_map_.size(); ++k) {
    const value_t v =
        entry_scale_.empty() ? a.values[k] : a.values[k] * entry_scale_[k];
    m.csc.values[value_map_[k]] = v;
    max_abs = std::max(max_abs, std::abs(static_cast<double>(v)));
  }
  if (options_.diag_patch.has_value()) {
    for (index_t j = 0; j < a.n; ++j) {
      value_t& d = m.csc.values[m.diag_pos[j]];
      if (d == value_t{0}) d = *options_.diag_patch;
    }
  }
  // Windowed mode keeps no resident values array: the numeric phase
  // streams values in group by group and charges the transfers there.
  if (device_matrix_.has_value()) device_matrix_->upload_values(m);
  return max_abs;
}

RefactorReport Refactorizer::refactorize(const Csr& a_new) {
  ++stats_.calls;
  RefactorReport rep;
  trace::Span span_re("refactorize", device_,
                      {{"n", a_new.n}, {"nnz", a_new.nnz()}});
  validate(a_new);
  E2ELU_CHECK_MSG(a_new.n == base_pattern_.n &&
                      same_pattern(a_new, base_pattern_),
                  "refactorize: sparsity pattern differs from the cached "
                  "factorization (pattern reuse is only valid for "
                  "value-only changes); construct a new Refactorizer");
  E2ELU_CHECK_MSG(!a_new.values.empty(), "matrix has no values");

  const gpusim::DeviceStats dev_before = device_.stats();

  // ---- Scatter: new values through the cached permutations into As,
  // then one values-only upload (structure is resident). Billed here,
  // before the numeric stage's clock starts.
  WallTimer t_scatter;
  double max_abs_a = 0;
  {
    TRACE_SPAN("refactor.scatter", device_, {{"nnz", a_new.nnz()}});
    max_abs_a = scatter(a_new);
  }
  rep.scatter.ops = static_cast<std::uint64_t>(a_new.nnz());
  rep.scatter.wall_ms = t_scatter.millis();
  rep.scatter.sim_us =
      options_.host.time_us(rep.scatter.ops) +
      (device_.stats().sim_total_us() - dev_before.sim_total_us());

  // ---- The pipeline's numeric stage on the cached artifacts; a retry
  // scatters (and uploads) the values again.
  const gpusim::DeviceStats dev_numeric = device_.stats();
  WallTimer t_numeric;
  FactorResult num;
  try {
    TRACE_SPAN("refactor.numeric", device_);
    num = SparseLU(options_).refactorize(
        device_, artifacts_, replay_,
        device_replay_.has_value() ? &*device_replay_ : nullptr,
        [&](numeric::FactorMatrix&) { scatter(a_new); });
  } catch (const FactorError&) {
    // The retry budget is spent (or recovery is off): the values left in
    // As are partial, so the fallback rebuilds everything through the
    // full pipeline, whose own recovery then handles the cause. The
    // abandoned attempts are billed to the numeric stage all the same.
    const gpusim::DeviceStats spent = device_.stats().since(dev_numeric);
    rep.numeric.sim_us = spent.sim_total_us();
    rep.numeric.ops = spent.kernel_ops;
    rep.numeric.wall_ms = t_numeric.millis();
    return fall_back(a_new, "numeric failure (zero pivot or device fault)",
                     rep);
  }
  // Launches stay out of the report: callers add the call's device
  // launches (`device`) on top of it.
  rep.numeric.sim_us = num.numeric.sim_us;
  rep.numeric.ops = num.numeric.ops;
  rep.numeric.wall_ms = num.numeric.wall_ms;
  rep.recovery_retries = num.recovery_retries;

  // ---- Stability monitor: element growth and smallest pivot of the
  // static-pivot elimination under the *cached* permutations. A perturbed
  // pivot trips it too: those factors are of another matrix.
  const numeric::FactorMatrix& m = artifacts_.matrix;
  double max_abs_as = 0;
  bool finite = true;
  for (const value_t v : m.csc.values) {
    const double av = std::abs(static_cast<double>(v));
    finite = finite && std::isfinite(av);
    max_abs_as = std::max(max_abs_as, av);
  }
  double min_pivot = std::numeric_limits<double>::infinity();
  for (index_t j = 0; j < a_new.n; ++j) {
    min_pivot = std::min(
        min_pivot, std::abs(static_cast<double>(m.csc.values[m.diag_pos[j]])));
  }
  rep.pivot_growth = max_abs_a == 0
                         ? std::numeric_limits<double>::infinity()
                         : max_abs_as / max_abs_a;
  rep.min_pivot = min_pivot;
  if (!finite || num.pivot_perturbations > 0 ||
      rep.pivot_growth > ropt_.max_pivot_growth ||
      min_pivot < ropt_.min_pivot_ratio * max_abs_a) {
    return fall_back(a_new, "stability monitor", rep);
  }

  numeric::extract_lu(m, factors_.l, factors_.u);
  factors_.numeric = rep.numeric;
  rep.reused = true;
  rep.device = device_.stats().since(dev_before);
  ++stats_.reused;
  stats_.reused_sim_us += rep.total_sim_us();
  stats_.last = rep;
  return rep;
}

}  // namespace e2elu::refactor
