// Extension: GPU-parallel pre-processing vs the host-serial stage.
//
// The paper keeps pre-processing on the host ("we adopt the
// pre-processing steps of GLU"); preprocess/parallel/ moves diagonal
// matching, minimum-degree ordering, and equilibration onto the
// simulated device (distance-2 independent-set AMD after Chang, Buluc &
// Demmel; propose/dispose + parallel augmenting-path matching;
// max-reduction scaling kernels). This bench runs both modes over the
// Figure 4 suite with the structural diagonal destroyed by a fixed
// column shuffle — so matching has real work — and gates:
//
//   1. speed:    aggregate parallel preprocess sim time >= 10x faster
//                than the serial aggregate (single host thread vs the
//                device, same accounting the pipeline reports),
//   2. quality:  parallel AMD fill within 10% of (or better than) the
//                serial oracle on EVERY suite matrix,
//   3. validity: parallel matching restores a full structural diagonal
//                on every matrix, and end-to-end factors under either
//                mode converge to comparable solve residuals.
//
// The gate% column is the fill gate's share of the parallel time (the
// RCM candidate, both gathers and both stage-1 counts), the part of the
// device ordering that is not minimum degree.
//
// Writes BENCH_preprocess.json (argv[1] overrides) for bench_diff / CI.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "gpusim/device.hpp"
#include "preprocess/parallel/parallel_preprocess.hpp"
#include "support/rng.hpp"

using namespace e2elu;

namespace {

constexpr index_t kScale = 64;

Permutation column_shuffle(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  Permutation p(static_cast<std::size_t>(n));
  std::iota(p.begin(), p.end(), 0);
  for (index_t i = n - 1; i > 0; --i) {
    std::swap(p[i], p[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
  }
  return p;
}

Permutation identity_perm(index_t n) {
  Permutation id(static_cast<std::size_t>(n));
  std::iota(id.begin(), id.end(), 0);
  return id;
}

struct Row {
  std::string abbr;
  index_t n = 0;
  offset_t nnz = 0;
  double serial_sim_us = 0;    // matching + ordering + scaling, 1 thread
  double parallel_sim_us = 0;  // same three phases on the device
  double gate_pct = 0;         // fill gate's share of parallel_sim_us
  double speedup = 0;
  offset_t fill_serial = 0;
  offset_t fill_parallel = 0;
  double fill_ratio = 0;
  bool diagonal_restored = false;
  double residual_serial = 0;
  double residual_parallel = 0;
};

void write_json(const char* path, const std::vector<Row>& rows,
                double aggregate_speedup) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[ext_preprocess] cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"fig4_preprocess\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"abbr\": \"%s\", \"n\": %d, \"nnz\": %lld, "
        "\"serial_sim_us\": %.3f, \"parallel_sim_us\": %.3f, "
        "\"gate_pct\": %.1f, "
        "\"speedup\": %.3f, \"fill_serial\": %lld, \"fill_parallel\": %lld, "
        "\"fill_ratio\": %.4f, \"diagonal_restored\": %s}%s\n",
        r.abbr.c_str(), r.n, static_cast<long long>(r.nnz), r.serial_sim_us,
        r.parallel_sim_us, r.gate_pct, r.speedup,
        static_cast<long long>(r.fill_serial),
        static_cast<long long>(r.fill_parallel), r.fill_ratio,
        r.diagonal_restored ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"aggregate\": {\"speedup\": %.3f}\n}\n",
               aggregate_speedup);
  std::fclose(f);
  std::fprintf(stderr, "[ext_preprocess] wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  bench::TraceSession trace_session;
  const double host_rate = gpusim::HostSpec{}.ops_per_us_per_thread;

  std::printf("=== Extension: GPU-parallel preprocessing (d2-independent-"
              "set AMD + parallel matching) vs host-serial ===\n");
  std::printf("%-5s %7s %8s | %9s %9s %6s %7s | %9s %9s %6s | %5s %10s "
              "%10s\n",
              "abbr", "n", "nnz", "serial", "parallel", "gate%", "speedup",
              "fill-s", "fill-p", "ratio", "diag", "resid-s", "resid-p");
  bench::print_rule(123);

  std::vector<Row> rows;
  double serial_total = 0, parallel_total = 0, gate_total = 0;
  bool fill_ok = true, diag_ok = true, resid_ok = true;

  for (const SuiteEntry& e : table2_suite(kScale)) {
    Row r;
    r.abbr = e.abbr;
    r.n = e.matrix.n;
    r.nnz = e.matrix.nnz();

    // Fixed per-matrix column shuffle: destroys the structural diagonal
    // so matching is live work, deterministically.
    const Permutation id = identity_perm(e.matrix.n);
    const std::uint64_t seed = 0xc0ffee ^ static_cast<std::uint64_t>(r.n);
    const Csr shuffled = permute(e.matrix, id, column_shuffle(r.n, seed));

    // --- Serial aggregate: one host thread, the pipeline's accounting.
    std::uint64_t serial_ops = 0;
    const Permutation q_serial = diagonal_matching(shuffled, &serial_ops);
    const Csr matched = permute(shuffled, id, q_serial);
    MinDegreeStats serial_md;
    const Permutation p_serial = min_degree_ordering(matched, {}, &serial_md);
    serial_ops += serial_md.ops;
    {
      Csr scaled = matched;
      equilibrate(scaled, &serial_ops);
    }
    r.serial_sim_us = static_cast<double>(serial_ops) / host_rate;

    // --- Parallel aggregate: the same three phases as device kernels.
    gpusim::Device dev(bench::scaled_spec(
        device_memory_for(e.matrix, 4 * e.matrix.nnz()), kScale));
    const Permutation q_par =
        preprocess::parallel_diagonal_matching(dev, shuffled);
    r.diagonal_restored = is_permutation(q_par) &&
                          has_full_diagonal(permute(shuffled, id, q_par));
    // Ordering quality is compared on the SAME matched matrix so the gate
    // isolates the ordering, not differences in the matchings.
    MinDegreeStats par_md;
    const Permutation p_par =
        preprocess::parallel_min_degree_ordering(dev, matched, {}, &par_md);
    {
      Csr scaled = matched;
      preprocess::parallel_equilibrate(dev, scaled);
    }
    r.parallel_sim_us = dev.stats().sim_total_us();
    r.gate_pct = 100.0 * par_md.gate_sim_us / r.parallel_sim_us;

    r.speedup = r.parallel_sim_us == 0
                    ? 0
                    : r.serial_sim_us / r.parallel_sim_us;
    serial_total += r.serial_sim_us;
    parallel_total += r.parallel_sim_us;
    gate_total += par_md.gate_sim_us;

    r.fill_serial = symbolic::fill_of_ordering(matched, p_serial);
    r.fill_parallel = symbolic::fill_of_ordering(matched, p_par);
    r.fill_ratio = static_cast<double>(r.fill_parallel) /
                   static_cast<double>(r.fill_serial);
    fill_ok = fill_ok && r.fill_ratio <= 1.10;
    diag_ok = diag_ok && r.diagonal_restored;

    // --- End-to-end residual convergence under either mode.
    std::vector<value_t> b(static_cast<std::size_t>(r.n));
    Rng rng(seed ^ 0xb0b);
    for (auto& v : b) v = rng.next_double(-1.0, 1.0);
    for (const PreprocessMode mode :
         {PreprocessMode::Serial, PreprocessMode::GpuParallel}) {
      Options opt;
      opt.device = bench::scaled_spec(
          device_memory_for(e.matrix, 8 * e.matrix.nnz()), kScale);
      opt.ordering = Ordering::MinDegree;
      opt.preprocess.mode = mode;
      const FactorResult f = SparseLU(opt).factorize(shuffled);
      const double resid =
          SparseLU::residual(shuffled, SparseLU::solve(f, b), b);
      (mode == PreprocessMode::Serial ? r.residual_serial
                                      : r.residual_parallel) = resid;
    }
    resid_ok = resid_ok &&
               r.residual_parallel <= std::max(10.0 * r.residual_serial, 1e-8);

    std::printf("%-5s %7d %8lld | %7.1fus %7.1fus %5.1f%% %6.1fx | %9lld "
                "%9lld %6.3f | %5s %10.2e %10.2e\n",
                r.abbr.c_str(), r.n, static_cast<long long>(r.nnz),
                r.serial_sim_us, r.parallel_sim_us, r.gate_pct, r.speedup,
                static_cast<long long>(r.fill_serial),
                static_cast<long long>(r.fill_parallel), r.fill_ratio,
                r.diagonal_restored ? "ok" : "MISS", r.residual_serial,
                r.residual_parallel);
    std::fflush(stdout);
    rows.push_back(std::move(r));
  }
  bench::print_rule(123);

  const double aggregate =
      parallel_total == 0 ? 0 : serial_total / parallel_total;
  std::printf("aggregate preprocess sim: serial %.0fus, parallel %.0fus "
              "(fill gate %.1f%%) -> %.2fx\n",
              serial_total, parallel_total, 100.0 * gate_total / parallel_total,
              aggregate);

  write_json(argc > 1 ? argv[1] : "BENCH_preprocess.json", rows, aggregate);

  const bool speed_ok = aggregate >= 10.0;
  std::printf("gates: speedup>=10x %s | fill within 10%% on every matrix %s "
              "| full diagonal everywhere %s | residuals converge %s\n",
              speed_ok ? "PASS" : "FAIL", fill_ok ? "PASS" : "FAIL",
              diag_ok ? "PASS" : "FAIL", resid_ok ? "PASS" : "FAIL");
  return speed_ok && fill_ok && diag_ok && resid_ok ? 0 : 1;
}
