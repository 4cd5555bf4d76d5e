// suite-default and suite-fillreduce: every Table 2 stand-in factorized
// from scratch, then solved on the device through a PipelineSolver.
//
// suite-default is the paper's Figure 4 configuration (default Options).
// PR is left out of it: its resident dense numeric phase alone costs ~11 s
// of host time, longer than a whole timed run, so one matrix would set
// the suite's wall clock. suite-fillreduce runs the fill-reducing path
// (minimum degree, GPU-parallel preprocessing, Algorithm 4 symbolic,
// sparse fused numeric) on column-shuffled matrices, so matching is live
// work; there PR is cheap and stays in.

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <optional>
#include <string>

#include "solve/pipeline_solver.hpp"
#include "support/timer.hpp"
#include "workload.hpp"
#include "workloads.hpp"

namespace e2elu::e2e {

namespace {

class SuiteWorkload final : public Workload {
 public:
  SuiteWorkload(const Config& cfg, bool fill_reducing) {
    for (SuiteMatrix& m : suite_matrices(cfg.seed)) {
      const bool keep = cfg.quick ? (m.abbr == "OT2" || m.abbr == "R15")
                                  : (fill_reducing || m.abbr != "PR");
      if (!keep) continue;
      Case c;
      c.abbr = m.abbr;
      c.opt = table2_options(m.a);  // sized from the unshuffled matrix
      const index_t n = m.a.n;
      if (fill_reducing) {
        c.opt.mode = Mode::OutOfCoreGpuDynamic;
        c.opt.ordering = Ordering::MinDegree;
        c.opt.preprocess.mode = PreprocessMode::GpuParallel;
        c.opt.numeric_format = NumericFormat::SparseBinarySearch;
        c.opt.numeric.fusion.enabled = true;
        Permutation id(static_cast<std::size_t>(n));
        std::iota(id.begin(), id.end(), 0);
        c.a = permute(m.a, id,
                      column_shuffle(n, derive_seed(0xc0ffee ^ n, cfg.seed)));
      } else {
        c.a = std::move(m.a);
      }
      c.b = multiply(c.a, random_vector(n, derive_seed(0xb0b ^ n, cfg.seed)));
      cases_.push_back(std::move(c));
    }
    // Warm-up: the smallest matrix through the whole path once, so lazy
    // process set-up (thread pool, first-touch pages) lands in setup_s.
    const Case& smallest = *std::min_element(
        cases_.begin(), cases_.end(),
        [](const Case& x, const Case& y) { return x.a.n < y.a.n; });
    const FactorResult f = SparseLU(smallest.opt).factorize(smallest.a);
    gpusim::Device dev(smallest.opt.device);
    (void)solve::PipelineSolver(dev, f).solve(smallest.b);
  }

  Rep run(Trace* trace, int parent) override {
    Rep rep;
    WallTimer rep_timer;
    for (const Case& c : cases_) {
      const std::uint64_t op = ++ops_;
      const Scope op_span(trace, "matrix", parent, op, false);
      WallTimer timer;
      try {
        FactorResult f;
        double factor_ms = 0, build_ms = 0, solve_ms = 0;
        {
          const Scope s(trace, "factorize", op_span.id(), op, true);
          f = SparseLU(c.opt).factorize(c.a);
          factor_ms = timer.millis();
        }
        gpusim::Device dev(c.opt.device);
        std::optional<solve::PipelineSolver> solver;
        std::vector<value_t> x;
        {
          const Scope s(trace, "solver_build", op_span.id(), op, true);
          WallTimer t;
          solver.emplace(dev, f);
          build_ms = t.millis();
        }
        {
          const Scope s(trace, "solve", op_span.id(), op, true);
          WallTimer t;
          x = solver->solve(c.b);
          solve_ms = t.millis();
        }
        rep.latency_ms.push_back(factor_ms + build_ms + solve_ms);

        Layers& l = rep.layers;
        const double solve_sim = dev.stats().sim_total_us();
        l.add_factorization(f, factor_ms);
        l.add_device(f.device_stats);
        l.add_device(dev.stats());
        l.sim_us += f.total_sim_us() + solve_sim;
        l.solve_sim_us += solve_sim;
        l.solve_wall_ms += build_ms + solve_ms;
        l.bind_wall_ms += build_ms;
        rep.detail.push_back({c.abbr, c.a.n, c.a.nnz(), f.preprocess.sim_us,
                              f.symbolic.sim_us, f.levelize.sim_us,
                              f.numeric.sim_us, solve_sim});
        if (!phases_tile(f)) ++rep.violations;

        const Scope s(trace, "check", op_span.id(), op, false);
        if (!solved(c.a, x, c.b)) ++rep.failed;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "[e2e] %s failed: %s\n", c.abbr.c_str(), e.what());
        rep.latency_ms.push_back(timer.millis());
        ++rep.failed;
      }
    }
    rep.wall_ms = rep_timer.millis();
    return rep;
  }

 private:
  struct Case {
    std::string abbr;
    Csr a;
    std::vector<value_t> b;  ///< A x_true for a seeded x_true
    Options opt;
  };
  std::vector<Case> cases_;
  std::uint64_t ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_suite(const Config& cfg, bool fill_reducing) {
  return std::make_unique<SuiteWorkload>(cfg, fill_reducing);
}

}  // namespace e2elu::e2e
