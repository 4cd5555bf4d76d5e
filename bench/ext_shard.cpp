// Extension: multi-device sharded factorization (ROADMAP item 1).
//
// The paper's pipeline is single-GPU end to end; this extension spreads
// the numeric phase of one factorization across a simulated DeviceGroup
// by partitioning the elimination forest (sharding/shard_plan.hpp) and
// shipping cross-shard update contributions as explicit peer transfers.
// Three sweeps, five gates:
//
//   * Scaling: blocked-planar Table-4-style meshes, 1 vs 2 vs 4 group
//     members. These meshes decompose into hundreds of independent
//     diagonal blocks, so every level stays wide enough to keep four
//     devices past full occupancy — the regime where sharding must pay.
//     Gate: >= 3x simulated numeric speedup on 4 devices on every mesh,
//     factors memcmp-identical to a single-device SparseLU run.
//   * Figure 4 suite (Table 2): the whole mixed suite on a 4-member
//     group, degrade decision live. Gates: factors bit-identical on every
//     workload — sharding (or degrading) can never change an answer — and
//     the sharded run's preprocess (with its match/order/scale
//     sub-phases), symbolic and levelize charges equal the single-device
//     run's in sim time, ops and launches: both run SparseLU's pipeline,
//     only the numeric executor differs.
//   * Hub degradation: a circuit-style matrix whose hub columns weld the
//     forest into one component. The model-based degrade decision must
//     fall back to one member, making the 4-device run no worse than the
//     1-device run. Gate: elapsed(4 dev) <= 1.05 * elapsed(1 dev).
//
// The scaling sweep runs at launch-scale 256 (vs the suite's 64):
// EXPERIMENTS.md documents the calibration — at scale 64 the stock
// launch constants dominate these meshes' numeric phase, so device count
// moves nothing; 256 restores the compute-bound regime a real multi-GPU
// mesh factorization lives in. Per-workload results land in
// BENCH_shard.json (argv[1] overrides) for bench_diff and CI upload.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "matrix/generators.hpp"
#include "sharding/sharded_factorizer.hpp"

using namespace e2elu;

namespace {

bool factors_bit_identical(const FactorResult& a, const FactorResult& b) {
  return a.l.values.size() == b.l.values.size() &&
         a.u.values.size() == b.u.values.size() &&
         std::memcmp(a.l.values.data(), b.l.values.data(),
                     a.l.values.size() * sizeof(value_t)) == 0 &&
         std::memcmp(a.u.values.data(), b.u.values.data(),
                     a.u.values.size() * sizeof(value_t)) == 0;
}

sharding::ShardingOptions group_of(int devices) {
  sharding::ShardingOptions sopt;
  sopt.num_devices = devices;
  return sopt;
}

/// Identity permutations keep the shard planner's component structure
/// exactly what the generator built; the symbolic driver is pinned so
/// every run (and the SparseLU reference) sees the same filled pattern.
Options shard_options(std::size_t member_memory, index_t scale) {
  Options opt;
  opt.device = bench::scaled_spec(member_memory, scale);
  opt.mode = Mode::OutOfCoreGpuDynamic;
  opt.numeric_format = NumericFormat::SparseBinarySearch;
  opt.ordering = Ordering::None;
  opt.match_diagonal = false;
  return opt;
}

struct MeshSpec {
  const char* name;
  index_t n, block, window;
  double nnz_per_row;
  std::uint64_t seed;
};

struct ScaleRow {
  std::string name;
  index_t n = 0;
  index_t components = 0;
  offset_t cross_edges = 0;
  double balance = 0;
  double elapsed_1dev = 0, elapsed_2dev = 0, elapsed_4dev = 0;
  double speedup_2dev = 0, speedup_4dev = 0, predicted_4dev = 0;
  std::uint64_t peer_bytes_4dev = 0;
  bool bit_identical = false;
};

struct Fig4Row {
  std::string abbr;
  index_t n = 0;
  int devices_used = 0;
  bool degraded = false;
  bool bit_identical = false;
  bool charges_equal = false;  ///< pre-numeric phases; not in the JSON
};

/// True when every phase before numeric charges the same on both runs
/// (wall time aside).
bool pre_numeric_charges_equal(const FactorResult& a, const FactorResult& b) {
  const auto same = [](const PhaseReport& x, const PhaseReport& y) {
    return x.sim_us == y.sim_us && x.ops == y.ops && x.launches == y.launches;
  };
  return same(a.preprocess, b.preprocess) &&
         same(a.preprocess_match, b.preprocess_match) &&
         same(a.preprocess_order, b.preprocess_order) &&
         same(a.preprocess_scale, b.preprocess_scale) &&
         same(a.symbolic, b.symbolic) && same(a.levelize, b.levelize);
}

struct HubRow {
  std::string name;
  index_t n = 0;
  double elapsed_1dev = 0, elapsed_4dev = 0;
  bool degraded = false;
  bool bit_identical = false;
};

void write_json(const char* path, const std::vector<ScaleRow>& scaling,
                const std::vector<Fig4Row>& fig4, const HubRow& hub) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "[ext_shard] cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"shard_scaling\": [\n");
  for (std::size_t i = 0; i < scaling.size(); ++i) {
    const ScaleRow& r = scaling[i];
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"n\": %d, \"components\": %d, "
        "\"cross_edges\": %lld, \"balance\": %.3f, "
        "\"numeric_elapsed_1dev_us\": %.3f, "
        "\"numeric_elapsed_2dev_us\": %.3f, "
        "\"numeric_elapsed_4dev_us\": %.3f, \"speedup_2dev\": %.3f, "
        "\"speedup_4dev\": %.3f, \"predicted_speedup_4dev\": %.3f, "
        "\"peer_bytes_4dev\": %llu, \"bit_identical\": %s}%s\n",
        r.name.c_str(), r.n, r.components,
        static_cast<long long>(r.cross_edges), r.balance, r.elapsed_1dev,
        r.elapsed_2dev, r.elapsed_4dev, r.speedup_2dev, r.speedup_4dev,
        r.predicted_4dev, static_cast<unsigned long long>(r.peer_bytes_4dev),
        r.bit_identical ? "true" : "false",
        i + 1 < scaling.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"fig4_sharded\": [\n");
  for (std::size_t i = 0; i < fig4.size(); ++i) {
    const Fig4Row& r = fig4[i];
    std::fprintf(f,
                 "    {\"abbr\": \"%s\", \"n\": %d, \"devices_used\": %d, "
                 "\"degraded\": %s, \"bit_identical\": %s}%s\n",
                 r.abbr.c_str(), r.n, r.devices_used,
                 r.degraded ? "true" : "false",
                 r.bit_identical ? "true" : "false",
                 i + 1 < fig4.size() ? "," : "");
  }
  std::fprintf(f,
               "  ],\n  \"hub_degrade\": {\"name\": \"%s\", \"n\": %d, "
               "\"numeric_elapsed_1dev_us\": %.3f, "
               "\"numeric_elapsed_4dev_us\": %.3f, \"degraded\": %s, "
               "\"bit_identical\": %s}\n}\n",
               hub.name.c_str(), hub.n, hub.elapsed_1dev, hub.elapsed_4dev,
               hub.degraded ? "true" : "false",
               hub.bit_identical ? "true" : "false");
  std::fclose(f);
  std::fprintf(stderr, "[ext_shard] wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  // Bit-identity requires a deterministic kernel-body execution order:
  // pin the global pool to one worker before anything instantiates it
  // (device groups model time only; values never depend on the pool).
  setenv("E2ELU_THREADS", "1", 1);
  bench::TraceSession trace_session;
  constexpr index_t kMeshScale = 256;
  constexpr std::size_t kMemberMemory = 512u << 20;

  const MeshSpec meshes[] = {
      {"mesh100k", 100000, 125, 16, 6.0, 1},
      {"mesh160k", 160000, 200, 20, 6.0, 2},
      {"mesh200k", 200000, 250, 16, 6.0, 3},
  };

  std::printf("=== Extension: sharded numeric scaling "
              "(blocked-planar meshes, 1/2/4 devices) ===\n");
  std::printf("%-9s %7s | %6s %6s %5s | %9s %9s %9s | %5s %5s | %4s\n",
              "mesh", "n", "comps", "cut", "bal", "1 dev", "2 dev", "4 dev",
              "x2", "x4", "bit");
  bench::print_rule(96);

  std::vector<ScaleRow> scaling;
  for (const MeshSpec& m : meshes) {
    const Csr a = gen_blocked_planar(m.n, m.block, m.nnz_per_row, m.window,
                                     m.seed);
    const Options opt = shard_options(kMemberMemory, kMeshScale);
    const FactorResult reference = SparseLU(opt).factorize(a);

    ScaleRow r;
    r.name = m.name;
    r.n = m.n;
    r.bit_identical = true;
    for (const int devices : {1, 2, 4}) {
      sharding::ShardedFactorizer sharded(opt, group_of(devices));
      sharding::ShardReport rep;
      const FactorResult res = sharded.factorize(a, rep);
      r.bit_identical =
          r.bit_identical && factors_bit_identical(res, reference);
      if (devices == 1) r.elapsed_1dev = res.numeric.sim_us;
      if (devices == 2) r.elapsed_2dev = res.numeric.sim_us;
      if (devices == 4) {
        r.elapsed_4dev = res.numeric.sim_us;
        r.components = rep.num_components;
        r.cross_edges = rep.cross_edges;
        r.balance = rep.balance;
        r.predicted_4dev = rep.predicted_speedup;
        r.peer_bytes_4dev = rep.peer.bytes;
      }
    }
    r.speedup_2dev = r.elapsed_2dev == 0 ? 0 : r.elapsed_1dev / r.elapsed_2dev;
    r.speedup_4dev = r.elapsed_4dev == 0 ? 0 : r.elapsed_1dev / r.elapsed_4dev;
    scaling.push_back(r);

    std::printf(
        "%-9s %7d | %6d %6lld %5.2f | %7.0fus %7.0fus %7.0fus | %5.2f %5.2f "
        "| %4s\n",
        r.name.c_str(), r.n, r.components,
        static_cast<long long>(r.cross_edges), r.balance, r.elapsed_1dev,
        r.elapsed_2dev, r.elapsed_4dev, r.speedup_2dev, r.speedup_4dev,
        r.bit_identical ? "ok" : "DIFF");
    std::fflush(stdout);
  }
  bench::print_rule(96);

  constexpr index_t kSuiteScale = 64;
  std::printf("\n=== Figure 4 suite on a 4-member group "
              "(degrade decision live) ===\n");
  std::printf("%-5s %7s | %7s %8s | %4s %7s\n", "abbr", "n", "devices",
              "degraded", "bit", "charges");
  bench::print_rule(52);

  std::vector<Fig4Row> fig4;
  for (const SuiteEntry& e : table2_suite(kSuiteScale)) {
    const bench::PreparedMatrix p = bench::prepare(e.matrix);
    Options opt = bench::options_for(p, Mode::OutOfCoreGpuDynamic,
                                     kSuiteScale);
    opt.numeric_format = NumericFormat::SparseBinarySearch;

    const FactorResult reference = SparseLU(opt).factorize(e.matrix);
    sharding::ShardedFactorizer sharded(opt, group_of(4));
    sharding::ShardReport rep;
    const FactorResult res = sharded.factorize(e.matrix, rep);

    Fig4Row r;
    r.abbr = e.abbr;
    r.n = e.matrix.n;
    r.devices_used = rep.devices_used;
    r.degraded = rep.degraded;
    r.bit_identical = factors_bit_identical(res, reference);
    r.charges_equal = pre_numeric_charges_equal(res, reference);
    fig4.push_back(r);

    std::printf("%-5s %7d | %7d %8s | %4s %7s\n", r.abbr.c_str(), r.n,
                r.devices_used, r.degraded ? "yes" : "no",
                r.bit_identical ? "ok" : "DIFF",
                r.charges_equal ? "ok" : "DIFF");
    std::fflush(stdout);
  }
  bench::print_rule(52);

  std::printf("\n=== Hub-coupled circuit: degrade must keep 4 devices no "
              "worse than 1 ===\n");
  HubRow hub;
  {
    const Csr a = gen_circuit(8000, 4.0, 3, 40, 11);
    const Options opt = shard_options(kMemberMemory, kMeshScale);
    const FactorResult reference = SparseLU(opt).factorize(a);
    hub.name = "circuit8k";
    hub.n = a.n;

    sharding::ShardedFactorizer one(opt, group_of(1));
    const FactorResult res1 = one.factorize(a);
    hub.elapsed_1dev = res1.numeric.sim_us;

    sharding::ShardedFactorizer four(opt, group_of(4));
    sharding::ShardReport rep4;
    const FactorResult res4 = four.factorize(a, rep4);
    hub.elapsed_4dev = res4.numeric.sim_us;
    hub.degraded = rep4.degraded;
    hub.bit_identical = factors_bit_identical(res1, reference) &&
                        factors_bit_identical(res4, reference);

    std::printf("%s n=%d: 1 dev %.0fus, 4 dev %.0fus (degraded: %s, "
                "predicted x%.2f)\n",
                hub.name.c_str(), hub.n, hub.elapsed_1dev, hub.elapsed_4dev,
                hub.degraded ? "yes" : "no", rep4.predicted_speedup);
  }

  write_json(argc > 1 ? argv[1] : "BENCH_shard.json", scaling, fig4, hub);

  // ---- Gates.
  bool meshes_scale = !scaling.empty(), meshes_identical = !scaling.empty();
  for (const ScaleRow& r : scaling) {
    meshes_scale = meshes_scale && r.speedup_4dev >= 3.0;
    meshes_identical = meshes_identical && r.bit_identical;
  }
  bool fig4_identical = !fig4.empty(), fig4_charges = !fig4.empty();
  for (const Fig4Row& r : fig4) {
    fig4_identical = fig4_identical && r.bit_identical;
    fig4_charges = fig4_charges && r.charges_equal;
  }
  const bool hub_no_worse =
      hub.elapsed_4dev <= 1.05 * hub.elapsed_1dev && hub.bit_identical;

  std::printf("\n>= 3x numeric speedup on 4 devices on every mesh — %s\n",
              meshes_scale ? "PASS" : "FAIL");
  std::printf("sharded factors bit-identical on the scaling meshes — %s\n",
              meshes_identical ? "PASS" : "FAIL");
  std::printf("sharded factors bit-identical on the full Figure 4 suite — "
              "%s\n",
              fig4_identical ? "PASS" : "FAIL");
  std::printf("hub circuit: 4-device run no worse than 1 device — %s\n",
              hub_no_worse ? "PASS" : "FAIL");
  std::printf("sharded preprocess/symbolic/levelize charges equal "
              "single-device on the Figure 4 suite — %s\n",
              fig4_charges ? "PASS" : "FAIL");

  return meshes_scale && meshes_identical && fig4_identical &&
                 hub_no_worse && fig4_charges
             ? 0
             : 1;
}
