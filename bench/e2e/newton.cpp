// newton-refactor: the SPICE Newton loop on circuit stand-ins: four
// independent draws of each of G7, OT2, R15 and OT1 (one draw's fill, and
// with it the cost of a step, varies by up to 2x between seeds; sixteen
// circuits average that out). Set-up builds one Refactorizer and one
// PipelineSolver per circuit; each timed step then runs refactorize ->
// rebind -> device solve on a value-drifted matrix of the same pattern,
// 12 steps per circuit, closed loop, one client. Preprocess, symbolic and
// levelize never run inside a step, so their per-layer numbers here
// describe the plan builds in set-up. PR is left out: one full PR build
// costs ~12 s of host time.

#include <cstdio>
#include <memory>
#include <string>

#include "matrix/generators.hpp"
#include "refactor/refactor.hpp"
#include "solve/pipeline_solver.hpp"
#include "support/timer.hpp"
#include "workload.hpp"
#include "workloads.hpp"

namespace e2elu::e2e {

namespace {

class NewtonWorkload final : public Workload {
 public:
  explicit NewtonWorkload(const Config& cfg) {
    const int steps = cfg.quick ? 5 : 12;
    const int instances = cfg.quick ? 1 : 4;
    const std::vector<std::string> classes =
        cfg.quick ? std::vector<std::string>{"OT2", "R15"}
                  : std::vector<std::string>{"G7", "OT2", "R15", "OT1"};
    std::vector<SuiteMatrix> circuits;
    for (int k = 0; k < instances; ++k) {
      // Instance 0 is the seed's own stand-in (the Table 2 matrix at seed
      // 0); the others are independent draws of the same classes.
      const std::uint64_t seed =
          k == 0 ? cfg.seed
                 : derive_seed(cfg.seed, static_cast<std::uint64_t>(k));
      for (SuiteMatrix& m : suite_matrices(seed, classes)) {
        circuits.push_back(std::move(m));
      }
    }
    for (SuiteMatrix& m : circuits) {
      Circuit c;
      c.abbr = m.abbr;
      const Options opt = table2_options(m.a);
      WallTimer t;
      c.refac = std::make_unique<refactor::Refactorizer>(m.a, opt);
      builds_.add_factorization(c.refac->factors(), t.millis());
      E2ELU_CHECK_MSG(phases_tile(c.refac->factors()),
                      m.abbr << ": plan build phases do not tile");
      c.device = std::make_unique<gpusim::Device>(opt.device);
      c.solver = std::make_unique<solve::PipelineSolver>(*c.device,
                                                         c.refac->factors());
      for (int s = 1; s <= steps; ++s) {
        // Small step ids keep gen_value_drift's phase well resolved.
        const std::uint64_t step =
            cfg.seed % 1000 * 100 + static_cast<std::uint64_t>(s);
        Csr a = gen_value_drift(m.a, 0.05, step);
        const std::vector<value_t> x_true =
            random_vector(a.n, derive_seed(0x5eed + step, cfg.seed));
        c.b.push_back(multiply(a, x_true));
        c.steps.push_back(std::move(a));
      }
      circuits_.push_back(std::move(c));
    }
  }

  Rep run(Trace* trace, int parent) override {
    Rep rep;
    Layers& l = rep.layers;
    l = builds_;
    l.numeric = {};  // the numeric layer of this workload is the replay
    WallTimer rep_timer;
    for (Circuit& c : circuits_) {
      for (std::size_t s = 0; s < c.steps.size(); ++s) {
        const std::uint64_t op = ++ops_;
        const Scope op_span(trace, "step", parent, op, false);
        WallTimer timer;
        try {
          refactor::RefactorReport rr;
          double refactor_ms = 0, rebind_ms = 0, solve_ms = 0;
          {
            const Scope sp(trace, "refactorize", op_span.id(), op, true);
            rr = c.refac->refactorize(c.steps[s]);
            refactor_ms = timer.millis();
          }
          const gpusim::DeviceStats before = c.device->snapshot();
          {
            const Scope sp(trace, "rebind", op_span.id(), op, true);
            WallTimer t;
            c.solver->rebind(c.refac->factors());
            rebind_ms = t.millis();
          }
          std::vector<value_t> x;
          {
            const Scope sp(trace, "solve", op_span.id(), op, true);
            WallTimer t;
            x = c.solver->solve(c.b[s]);
            solve_ms = t.millis();
          }
          rep.latency_ms.push_back(refactor_ms + rebind_ms + solve_ms);

          const gpusim::DeviceStats solve_dev =
              c.device->stats().since(before);
          l.refactor_calls += 1;
          l.refactor_reused += rr.reused ? 1 : 0;
          l.refactor_fallbacks += rr.fell_back ? 1 : 0;
          l.refactor_sim_us += rr.total_sim_us();
          l.refactor_scatter_sim_us += rr.scatter.sim_us;
          l.numeric.add(rr.numeric);
          // The report's numeric phase carries no launch count; the call's
          // device delta does.
          l.numeric.launches += static_cast<double>(rr.device.host_launches +
                                                    rr.device.device_launches);
          l.add_device(rr.device);
          l.add_device(solve_dev);
          l.sim_us += rr.total_sim_us() + solve_dev.sim_total_us();
          l.solve_sim_us += solve_dev.sim_total_us();
          l.solve_wall_ms += rebind_ms + solve_ms;
          l.bind_wall_ms += rebind_ms;

          const Scope sp(trace, "check", op_span.id(), op, false);
          if (!solved(c.steps[s], x, c.b[s])) ++rep.failed;
        } catch (const std::exception& e) {
          std::fprintf(stderr, "[e2e] %s step %zu failed: %s\n",
                       c.abbr.c_str(), s + 1, e.what());
          rep.latency_ms.push_back(timer.millis());
          ++rep.failed;
        }
      }
    }
    rep.wall_ms = rep_timer.millis();
    return rep;
  }

 private:
  struct Circuit {
    std::string abbr;
    std::unique_ptr<refactor::Refactorizer> refac;
    std::unique_ptr<gpusim::Device> device;  ///< the solver's device
    std::unique_ptr<solve::PipelineSolver> solver;
    std::vector<Csr> steps;                  ///< drifted matrices
    std::vector<std::vector<value_t>> b;     ///< A_step x_true
  };
  std::vector<Circuit> circuits_;
  Layers builds_;  ///< accounting of the set-up plan builds
  std::uint64_t ops_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_newton(const Config& cfg) {
  return std::make_unique<NewtonWorkload>(cfg);
}

}  // namespace e2elu::e2e
