// Extension: level fusion on the numeric phase.
//
// The Figure 4 pipelines spend their numeric tail in type-C territory:
// thousands of narrow levels, each a handful of 1-block launches running
// the device almost empty. Level fusion (scheduling/fusion.hpp) collapses
// runs of consecutive narrow levels into single fused launches whose
// blocks order themselves through per-column ready flags, attacking both
// overheads at once: the per-level launch round-trips and the
// narrow-grid occupancy penalty.
//
// This bench runs every Table 2 matrix through the full pipeline twice —
// fusion off (the bit-exactness reference) and fusion on — and gates:
//   * factors bit-identical (memcmp) between the two runs,
//   * validate_clustering passes on every schedule,
//   * on the qualifying narrow-level workloads (>= half the levels
//     fused), aggregate numeric host launches drop >= 5x and aggregate
//     numeric simulated time drops >= 20%.
// Per-workload results are also written as BENCH_numeric.json (argv[1]
// overrides the path) for CI artifact upload.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "scheduling/fusion.hpp"

using namespace e2elu;

namespace {

struct Row {
  std::string abbr;
  index_t n = 0;
  offset_t nnz = 0;
  index_t num_levels = 0;
  index_t fused_levels = 0;
  std::uint64_t fused_launches = 0;
  std::uint64_t launches_base = 0, launches_fused = 0;
  double sim_base = 0, sim_fused = 0;        // numeric phase, us
  double total_base = 0, total_fused = 0;    // whole pipeline, us
  bool bit_identical = false;
  bool qualifying = false;
};

bool factors_bit_identical(const FactorResult& a, const FactorResult& b) {
  return a.l.values.size() == b.l.values.size() &&
         a.u.values.size() == b.u.values.size() &&
         std::memcmp(a.l.values.data(), b.l.values.data(),
                     a.l.values.size() * sizeof(value_t)) == 0 &&
         std::memcmp(a.u.values.data(), b.u.values.data(),
                     a.u.values.size() * sizeof(value_t)) == 0;
}

void write_json(const char* path, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[ext_fusion] cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"workloads\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    std::fprintf(
        f,
        "    {\"abbr\": \"%s\", \"n\": %d, \"nnz\": %lld, \"levels\": %d, "
        "\"fused_levels\": %d, \"fused_launches\": %llu, "
        "\"numeric_host_launches_unfused\": %llu, "
        "\"numeric_host_launches_fused\": %llu, "
        "\"numeric_sim_us_unfused\": %.3f, \"numeric_sim_us_fused\": %.3f, "
        "\"sim_total_us_unfused\": %.3f, \"sim_total_us_fused\": %.3f, "
        "\"bit_identical\": %s, \"qualifying\": %s}%s\n",
        r.abbr.c_str(), r.n, static_cast<long long>(r.nnz), r.num_levels,
        r.fused_levels, static_cast<unsigned long long>(r.fused_launches),
        static_cast<unsigned long long>(r.launches_base),
        static_cast<unsigned long long>(r.launches_fused), r.sim_base,
        r.sim_fused, r.total_base, r.total_fused,
        r.bit_identical ? "true" : "false", r.qualifying ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::fprintf(stderr, "[ext_fusion] wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  // Bit-identity between the fused (dataflow-ordered blocks) and unfused
  // runs requires a deterministic block execution order: pin the global
  // pool to one worker before anything can instantiate it. Simulated
  // times are ops-derived and do not depend on the pool size.
  setenv("E2ELU_THREADS", "1", 1);
  bench::TraceSession trace_session;
  constexpr index_t kScale = 64;

  std::printf("=== Extension: level fusion, numeric phase "
              "(fused vs per-level, Table 2 suite) ===\n");
  std::printf("%-5s %7s %7s %7s | %8s %8s | %9s %9s | %7s %7s | %4s %5s\n",
              "abbr", "n", "levels", "fused", "lnch/un", "lnch/fu", "sim un",
              "sim fu", "lnch x", "sim -%", "bit", "qual");
  bench::print_rule(108);

  std::vector<Row> rows;
  for (const SuiteEntry& e : table2_suite(kScale)) {
    const bench::PreparedMatrix p = bench::prepare(e.matrix);
    Options opt = bench::options_for(p, Mode::OutOfCoreGpu, kScale);
    // The fusion study targets the numeric executors themselves; pin the
    // format so every workload exercises the same (Algorithm 6) path.
    opt.numeric_format = NumericFormat::SparseBinarySearch;

    const FactorResult base = SparseLU(opt).factorize(e.matrix);

    opt.numeric.fusion.enabled = true;
    FactorizationArtifacts arts;
    const FactorResult fused = SparseLU(opt).factorize(e.matrix, arts);

    // Re-run the clustering oracle against the exact schedule this
    // pipeline executed (build_cluster_schedule also self-validates).
    scheduling::validate_clustering(
        arts.schedule,
        scheduling::build_cluster_schedule(arts.schedule, opt.device,
                                           opt.numeric.fusion),
        opt.device, opt.numeric.fusion);

    Row r;
    r.abbr = e.abbr;
    r.n = e.matrix.n;
    r.nnz = e.matrix.nnz();
    r.num_levels = fused.num_levels;
    r.fused_levels = fused.fused_levels;
    r.fused_launches = fused.device_stats.fused_launches;
    r.launches_base = base.numeric.launches;
    r.launches_fused = fused.numeric.launches;
    r.sim_base = base.numeric.sim_us;
    r.sim_fused = fused.numeric.sim_us;
    r.total_base = base.total_sim_us();
    r.total_fused = fused.total_sim_us();
    r.bit_identical = factors_bit_identical(base, fused);
    r.qualifying = r.fused_levels * 2 >= r.num_levels;
    rows.push_back(r);

    std::printf("%-5s %7d %7d %7d | %8llu %8llu | %7.0fus %7.0fus | %6.1fx "
                "%6.1f%% | %4s %5s\n",
                r.abbr.c_str(), r.n, r.num_levels, r.fused_levels,
                static_cast<unsigned long long>(r.launches_base),
                static_cast<unsigned long long>(r.launches_fused), r.sim_base,
                r.sim_fused,
                r.launches_fused == 0
                    ? 0.0
                    : static_cast<double>(r.launches_base) / r.launches_fused,
                r.sim_base == 0 ? 0.0
                                : 100.0 * (r.sim_base - r.sim_fused) /
                                      r.sim_base,
                r.bit_identical ? "ok" : "DIFF", r.qualifying ? "yes" : "no");
    std::fflush(stdout);
  }
  bench::print_rule(108);

  write_json(argc > 1 ? argv[1] : "BENCH_numeric.json", rows);

  // ---- Gates.
  bool all_identical = true;
  std::uint64_t q_launch_base = 0, q_launch_fused = 0;
  double q_sim_base = 0, q_sim_fused = 0;
  int qualifying = 0;
  for (const Row& r : rows) {
    all_identical = all_identical && r.bit_identical;
    if (!r.qualifying) continue;
    ++qualifying;
    q_launch_base += r.launches_base;
    q_launch_fused += r.launches_fused;
    q_sim_base += r.sim_base;
    q_sim_fused += r.sim_fused;
  }
  const double launch_ratio =
      q_launch_fused == 0 ? 0.0
                          : static_cast<double>(q_launch_base) / q_launch_fused;
  const double sim_cut =
      q_sim_base == 0 ? 0.0 : (q_sim_base - q_sim_fused) / q_sim_base;

  std::printf("qualifying narrow-level workloads: %d of %zu\n", qualifying,
              rows.size());
  std::printf("aggregate numeric launches, qualifying: %llu -> %llu "
              "(%.1fx, target >= 5x) — %s\n",
              static_cast<unsigned long long>(q_launch_base),
              static_cast<unsigned long long>(q_launch_fused), launch_ratio,
              launch_ratio >= 5.0 ? "PASS" : "FAIL");
  std::printf("aggregate numeric sim time, qualifying: %.0fus -> %.0fus "
              "(-%.1f%%, target >= 20%%) — %s\n",
              q_sim_base, q_sim_fused, 100.0 * sim_cut,
              sim_cut >= 0.20 ? "PASS" : "FAIL");
  std::printf("factors bit-identical on every workload — %s\n",
              all_identical ? "PASS" : "FAIL");

  return qualifying > 0 && launch_ratio >= 5.0 && sim_cut >= 0.20 &&
                 all_identical
             ? 0
             : 1;
}
