#include "core/sparse_lu.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "matrix/convert.hpp"
#include "preprocess/parallel/parallel_preprocess.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"
#include "trace/trace.hpp"

namespace e2elu {

SparseLU::SparseLU(Options options) : options_(std::move(options)) {}

namespace {

Permutation identity_permutation(index_t n) {
  Permutation p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  return p;
}

const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::OutOfCoreGpu: return "out_of_core";
    case Mode::OutOfCoreGpuDynamic: return "out_of_core_dynamic";
    case Mode::UnifiedMemoryGpu: return "unified_memory";
    case Mode::UnifiedMemoryGpuNoPrefetch: return "unified_memory_no_prefetch";
    case Mode::CpuBaseline: return "cpu_baseline";
  }
  return "?";
}

std::uint64_t launch_count(const gpusim::Device& dev) {
  return dev.stats().host_launches + dev.stats().device_launches;
}

/// The single-device executor: the paper's format rule picks the dense
/// window or the sparse binary search, and a device OOM in the dense
/// window falls back to the sparse format.
class DeviceExecutor final : public NumericExecutor {
 public:
  DeviceExecutor(gpusim::Device& dev, const Options& options)
      : dev_(dev), options_(options) {}

  void plan(const NumericStage& stage) override {
    sparse_ = options_.numeric_format == NumericFormat::Auto
                  ? numeric::should_use_sparse_format(options_.device,
                                                      stage.filled.n)
                  : options_.numeric_format ==
                        NumericFormat::SparseBinarySearch;
  }

  numeric::NumericStats run(numeric::FactorMatrix& fm,
                            const scheduling::LevelSchedule& s) override {
    trace::Span span("numeric", dev_,
                     {{"format", sparse_ ? "sparse" : "dense"},
                      {"levels", s.num_levels()}});
    const numeric::NumericStats stats =
        sparse_ ? numeric::factorize_sparse_bsearch(dev_, fm, s,
                                                    options_.numeric)
                : numeric::factorize_dense_window(dev_, fm, s,
                                                  options_.numeric);
    span.attr("fused_levels", stats.fused_levels);
    return stats;
  }

  Retry on_device_fault(const Fault& fault) override {
    if (fault.kind != FaultKind::DeviceOutOfMemory) {
      return {"recovery.launch_retry"};
    }
    if (sparse_) return {"recovery.numeric.retry"};
    // The dense window is the memory-hungry format; the sparse
    // binary-search path (§3.4) has no resident-window allocation, so
    // falling back to it is the structural answer to numeric OOM.
    sparse_ = true;
    return {"recovery.numeric.format_fallback"};
  }

  double clock_us() override { return dev_.stats().sim_total_us(); }
  std::uint64_t launches() const override { return launch_count(dev_); }
  bool sparse() const override { return sparse_; }

 private:
  gpusim::Device& dev_;
  const Options& options_;
  bool sparse_ = false;
};

}  // namespace

FactorResult SparseLU::factorize(const Csr& a_in) {
  return factorize_on_own_device(a_in, nullptr);
}

FactorResult SparseLU::factorize(const Csr& a_in,
                                 FactorizationArtifacts& artifacts) {
  return factorize_on_own_device(a_in, &artifacts);
}

FactorResult SparseLU::factorize(const Csr& a_in, gpusim::Device& device,
                                 NumericExecutor& numeric) {
  return factorize_impl(a_in, device, numeric, nullptr);
}

FactorResult SparseLU::factorize_on_own_device(
    const Csr& a_in, FactorizationArtifacts* artifacts) {
  gpusim::Device dev(options_.device);
  if (options_.pool != nullptr) dev.use_pool(*options_.pool);
  DeviceExecutor numeric(dev, options_);
  return factorize_impl(a_in, dev, numeric, artifacts);
}

FactorResult SparseLU::factorize_impl(const Csr& a_in, gpusim::Device& dev,
                                      NumericExecutor& numeric,
                                      FactorizationArtifacts* artifacts) {
  validate(a_in);
  E2ELU_CHECK_MSG(a_in.n > 0, "empty matrix");
  E2ELU_CHECK_MSG(!a_in.values.empty(), "matrix has no values");

  FactorResult res;
  res.n = a_in.n;
  const index_t n = a_in.n;
  trace::Span span_root("factorize", dev,
                        {{"n", n},
                         {"nnz", a_in.nnz()},
                         {"mode", mode_name(options_.mode)}});
  // Attempts a phase may spend on faults; 0 turns recovery off.
  const auto budget = [this](int attempts) {
    return options_.recovery.enabled ? attempts : 0;
  };

  // ---- Pre-processing (Figure 2, first box). Serial mode is the
  // paper's host-serial stage, modeled at a single host thread's
  // throughput; GpuParallel routes matching / minimum-degree / scaling
  // through the device (preprocess/parallel/). The permutation
  // application and diagonal patch stay host-side in both modes and are
  // accounted as the preprocess remainder.
  const bool par_pre =
      options_.preprocess.mode == PreprocessMode::GpuParallel;
  const double host_thread_rate = options_.host.ops_per_us_per_thread;
  WallTimer t_pre;
  Csr a = a_in;
  res.row_perm = identity_permutation(n);
  res.col_perm = identity_permutation(n);
  std::uint64_t pre_other_ops = 0;
  {
    TRACE_SPAN("preprocess", dev);
    // Sub-phase accounting: serial steps report counted ops at the
    // single-thread host rate; parallel steps report device deltas.
    const auto run_subphase = [&](PhaseReport& report, auto&& body) {
      WallTimer t;
      const double sim0 = dev.stats().sim_total_us();
      const std::uint64_t ops0 = dev.stats().kernel_ops;
      const std::uint64_t launches0 = launch_count(dev);
      std::uint64_t serial_ops = 0;
      body(serial_ops);
      report.ops =
          serial_ops + (dev.stats().kernel_ops - ops0);
      report.launches = launch_count(dev) - launches0;
      report.sim_us = (dev.stats().sim_total_us() - sim0) +
                      static_cast<double>(serial_ops) / host_thread_rate;
      report.wall_ms = t.millis();
    };

    if (options_.preprocess.equilibrate && !a.values.empty()) {
      run_subphase(res.preprocess_scale, [&](std::uint64_t& ops) {
        res.scaling = par_pre ? preprocess::parallel_equilibrate(dev, a)
                              : equilibrate(a, &ops);
      });
    }
    if (options_.match_diagonal && !has_full_diagonal(a)) {
      run_subphase(res.preprocess_match, [&](std::uint64_t& ops) {
        const Permutation q =
            par_pre ? preprocess::parallel_diagonal_matching(
                          dev, a, options_.preprocess)
                    : diagonal_matching(a, &ops);
        a = permute(a, res.row_perm, q);
        res.col_perm = q;
        pre_other_ops += static_cast<std::uint64_t>(a.nnz());  // permute
      });
    }
    if (options_.ordering != Ordering::None) {
      run_subphase(res.preprocess_order, [&](std::uint64_t& ops) {
        Permutation p;
        if (options_.ordering == Ordering::Rcm) {
          p = rcm_ordering(a, &ops);
        } else if (par_pre) {
          p = preprocess::parallel_min_degree_ordering(dev, a,
                                                       options_.preprocess);
        } else {
          MinDegreeStats st;
          p = min_degree_ordering(a, options_.preprocess, &st);
          ops = st.ops;
        }
        a = permute(a, p, p);
        pre_other_ops += static_cast<std::uint64_t>(a.nnz());  // permute
        // a(i,j) = a_in(p[i], col_perm[p[j]]).
        Permutation composed(static_cast<std::size_t>(n));
        for (index_t k = 0; k < n; ++k) composed[k] = res.col_perm[p[k]];
        res.row_perm = p;
        res.col_perm = std::move(composed);
      });
    }
    if (options_.diag_patch.has_value()) {
      patch_zero_diagonal(a, *options_.diag_patch);
      pre_other_ops += static_cast<std::uint64_t>(a.nnz());
    }
  }
  res.preprocess.wall_ms = t_pre.millis();
  res.preprocess.ops = res.preprocess_match.ops + res.preprocess_order.ops +
                       res.preprocess_scale.ops + pre_other_ops;
  res.preprocess.launches = res.preprocess_match.launches +
                            res.preprocess_order.launches +
                            res.preprocess_scale.launches;
  res.preprocess.sim_us =
      res.preprocess_match.sim_us + res.preprocess_order.sim_us +
      res.preprocess_scale.sim_us +
      static_cast<double>(pre_other_ops) / host_thread_rate;

  // ---- Symbolic factorization (§3.2).
  WallTimer t_sym;
  double sim_before = dev.stats().sim_total_us();
  std::uint64_t launches_before = launch_count(dev);
  symbolic::SymbolicResult sym;
  bool symbolic_on_device = options_.mode != Mode::CpuBaseline;
  {
    trace::Span span_sym("symbolic", dev, {{"mode", mode_name(options_.mode)}});
    const auto run_symbolic = [&](int attempt) {
      if (attempt > 0) {
        // Recovery: re-plan through the Algorithm 4 multipart planner
        // with an escalating part count. Every doubling bounds more
        // rows' queues, shrinking the per-row scratch the failed
        // attempt could not fit; the result pattern is identical.
        sym = symbolic::symbolic_out_of_core_multipart(
            dev, a, static_cast<index_t>(1) << attempt, options_.symbolic);
        symbolic_on_device = true;
        return;
      }
      switch (options_.mode) {
        case Mode::OutOfCoreGpu:
          sym = symbolic::symbolic_out_of_core(dev, a, options_.symbolic);
          break;
        case Mode::OutOfCoreGpuDynamic:
          sym = symbolic::symbolic_out_of_core_dynamic(dev, a,
                                                       options_.symbolic);
          break;
        case Mode::UnifiedMemoryGpu:
          sym = symbolic::symbolic_unified_memory(dev, a, /*prefetch=*/true,
                                                  options_.symbolic);
          break;
        case Mode::UnifiedMemoryGpuNoPrefetch:
          sym = symbolic::symbolic_unified_memory(dev, a, /*prefetch=*/false,
                                                  options_.symbolic);
          break;
        case Mode::CpuBaseline:
          sym = symbolic::symbolic_cpu(a);
          break;
      }
    };
    res.recovery_retries += with_recovery(
        "symbolic", budget(options_.recovery.max_symbolic_attempts),
        run_symbolic, [&](const Fault& fault) -> Retry {
          if (fault.kind != FaultKind::DeviceOutOfMemory) {
            return {"recovery.launch_retry"};
          }
          ++res.symbolic_replans;
          return {"recovery.symbolic.replan"};
        });
    res.symbolic.sim_us = symbolic_on_device
                              ? dev.stats().sim_total_us() - sim_before
                              : options_.host.time_us(sym.ops);
    span_sym.attr("chunks", sym.num_chunks);
    span_sym.attr("fill_nnz", sym.filled.nnz());
  }
  res.symbolic.wall_ms = t_sym.millis();
  res.symbolic.ops = sym.ops;
  res.symbolic.launches = launch_count(dev) - launches_before;
  res.fill_nnz = sym.filled.nnz();
  res.symbolic_chunks = sym.num_chunks;

  // ---- Levelization (§3.3). One baseline for all three counters, so the
  // cons_graph launch and any failed attempt count in each of them.
  WallTimer t_lvl;
  sim_before = dev.stats().sim_total_us();
  launches_before = launch_count(dev);
  const std::uint64_t ops_before_lvl = dev.stats().kernel_ops;
  const bool host_levelize = options_.mode == Mode::CpuBaseline;
  scheduling::DependencyGraph graph;
  scheduling::LevelSchedule schedule;
  {
    trace::Span span_lvl("levelize", dev);
    const auto run_levelize = [&](int) {
      graph = scheduling::build_dependency_graph(sym.filled,
                                                 options_.dependency_rule);
      if (host_levelize) {
        schedule = scheduling::levelize_sequential(graph);
        return;
      }
      // cons_graph (Algorithm 5 line 14): the dependency graph — its
      // successor and predecessor lists — is built on-device from the
      // filled pattern.
      dev.launch({.name = "cons_graph",
                  .blocks = std::max<index_t>(1, (n + 255) / 256),
                  .threads_per_block = 256},
                 [&](std::int64_t b, gpusim::KernelContext& ctx) {
                   const index_t lo = static_cast<index_t>(b) * 256;
                   const index_t hi = std::min(n, lo + 256);
                   ctx.add_ops(static_cast<std::uint64_t>(
                       graph.adj_ptr[hi] - graph.adj_ptr[lo] +
                       graph.pred_ptr[hi] - graph.pred_ptr[lo]));
                 });
      schedule = scheduling::levelize_sync_free(dev, graph);
    };
    // Levelization allocates nothing persistent, so one straight retry
    // covers transient (injected) faults before giving up.
    res.recovery_retries += with_recovery(
        "levelize", budget(2), run_levelize, [](const Fault& fault) -> Retry {
          return {fault.kind == FaultKind::DeviceOutOfMemory
                      ? "recovery.levelize.retry"
                      : "recovery.launch_retry"};
        });
    span_lvl.attr("levels", schedule.num_levels());
  }
  if (host_levelize) {
    // Previous work runs levelization single-threaded on the host.
    res.levelize.ops = static_cast<std::uint64_t>(graph.n) +
                       static_cast<std::uint64_t>(graph.num_edges());
    res.levelize.sim_us = static_cast<double>(res.levelize.ops) /
                          options_.host.ops_per_us_per_thread;
  } else {
    res.levelize.ops = dev.stats().kernel_ops - ops_before_lvl;
    res.levelize.sim_us = dev.stats().sim_total_us() - sim_before;
  }
  res.levelize.wall_ms = t_lvl.millis();
  res.levelize.launches = launch_count(dev) - launches_before;
  res.num_levels = schedule.num_levels();

  // ---- Numeric factorization (§3.4), on the executor.
  WallTimer t_num;
  const double num_clock_before = numeric.clock_us();
  launches_before = numeric.launches();
  numeric.plan({sym.filled, graph, schedule});
  numeric::FactorMatrix fm;
  std::vector<index_t> perturbed_cols;
  index_t last_zero_col = -1;
  const auto run_numeric = [&](int) {
    // A failed elimination leaves As partially updated, so every attempt
    // rebuilds the values from A; perturbed diagonals are re-applied on
    // top of the fresh scatter.
    {
      TRACE_SPAN("numeric.build", dev);
      fm = numeric::FactorMatrix::build(sym.filled, a);
    }
    const value_t bump = options_.diag_patch.value_or(value_t{1});
    for (const index_t c : perturbed_cols) {
      fm.csc.values[static_cast<std::size_t>(fm.diag_pos[c])] += bump;
    }
    const numeric::NumericStats nstats = numeric.run(fm, schedule);
    res.numeric.ops = nstats.ops;
    res.fused_levels = nstats.fused_levels;
  };
  res.recovery_retries += with_recovery(
      "numeric", budget(options_.recovery.max_numeric_attempts), run_numeric,
      [&](const Fault& fault) -> Retry {
        if (fault.kind != FaultKind::ZeroPivot) {
          return numeric.on_device_fault(fault);
        }
        if (fault.column != last_zero_col) {
          last_zero_col = fault.column;
          return {"recovery.numeric.retry"};
        }
        // The same column failed twice, so this is no transient fault:
        // bump its starting diagonal (the §4.4 patch value) and re-run —
        // the refactor engine's instability fallback, extended to
        // first-time factorization.
        perturbed_cols.push_back(fault.column);
        ++res.pivot_perturbations;
        return {"recovery.numeric.pivot_perturb"};
      });
  res.used_sparse_numeric = numeric.sparse();
  res.numeric.sim_us = numeric.clock_us() - num_clock_before;
  res.numeric.launches = numeric.launches() - launches_before;
  res.numeric.wall_ms = t_num.millis();

  {
    TRACE_SPAN("extract_lu", dev);
    numeric::extract_lu(fm, res.l, res.u);
  }
  res.device_stats = dev.stats();
  if (artifacts != nullptr) {
    artifacts->filled = std::move(sym.filled);
    artifacts->schedule = std::move(schedule);
    artifacts->use_sparse_numeric = res.used_sparse_numeric;
  }
  return res;
}

void lower_solve_unit(const Csr& l, std::vector<value_t>& x) {
  for (index_t i = 0; i < l.n; ++i) {
    value_t acc = x[i];
    for (offset_t k = l.row_ptr[i]; k < l.row_ptr[i + 1]; ++k) {
      const index_t j = l.col_idx[k];
      if (j < i) acc -= l.values[k] * x[j];
    }
    x[i] = acc;  // unit diagonal
  }
}

void upper_solve(const Csr& u, std::vector<value_t>& x) {
  for (index_t i = u.n; i-- > 0;) {
    value_t acc = x[i];
    value_t diag = 0;
    for (offset_t k = u.row_ptr[i]; k < u.row_ptr[i + 1]; ++k) {
      const index_t j = u.col_idx[k];
      if (j == i) {
        diag = u.values[k];
      } else if (j > i) {
        acc -= u.values[k] * x[j];
      }
    }
    E2ELU_CHECK_MSG(diag != value_t{0}, "singular U at row " << i);
    x[i] = acc / diag;
  }
}

std::vector<value_t> SparseLU::solve(const FactorResult& f,
                                     std::span<const value_t> b) {
  E2ELU_CHECK(b.size() == static_cast<std::size_t>(f.n));
  // Factorized B(i,j) = As(row_perm[i], col_perm[j]) = (LU)(i,j), where
  // As = Dr A Dc when equilibration ran (Dr, Dc diagonal) and As = A
  // otherwise. A x = b <=> As z = Dr b with x = Dc z, so:
  //   c[i] = row_scale[row_perm[i]] * b[row_perm[i]],
  //   x[col_perm[j]] = col_scale[col_perm[j]] * y[j].
  const bool scaled = f.scaling.enabled();
  std::vector<value_t> y(static_cast<std::size_t>(f.n));
  for (index_t i = 0; i < f.n; ++i) {
    const index_t i0 = f.row_perm[i];
    y[i] = scaled ? f.scaling.row_scale[i0] * b[i0] : b[i0];
  }
  lower_solve_unit(f.l, y);
  upper_solve(f.u, y);
  std::vector<value_t> x(static_cast<std::size_t>(f.n));
  for (index_t j = 0; j < f.n; ++j) {
    const index_t j0 = f.col_perm[j];
    x[j0] = scaled ? f.scaling.col_scale[j0] * y[j] : y[j];
  }
  return x;
}

double SparseLU::residual(const Csr& a, std::span<const value_t> x,
                          std::span<const value_t> b) {
  E2ELU_CHECK(x.size() == static_cast<std::size_t>(a.n));
  E2ELU_CHECK(b.size() == static_cast<std::size_t>(a.n));
  double err2 = 0, b2 = 0;
  for (index_t i = 0; i < a.n; ++i) {
    value_t acc = 0;
    const auto cols = a.row_cols(i);
    const auto vals = a.row_vals(i);
    for (std::size_t k = 0; k < cols.size(); ++k) acc += vals[k] * x[cols[k]];
    err2 += static_cast<double>((acc - b[i]) * (acc - b[i]));
    b2 += static_cast<double>(b[i] * b[i]);
  }
  return b2 == 0 ? std::sqrt(err2) : std::sqrt(err2 / b2);
}

}  // namespace e2elu
