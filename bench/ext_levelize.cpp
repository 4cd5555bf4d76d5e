// Extension: dynamic-parallelism vs host-launched GPU levelization, and
// the sync-free levelization the pipeline runs.
//
// §3.3 argues Algorithm 5's on-device child kernels beat the prior
// host-driven GPU topological sort ([37]) by removing per-level host
// synchronization and kernel-launch overhead, but notes "a direct
// comparison is not possible as the baseline code is not available".
// Here both variants exist, so the comparison the paper could only argue
// for can be measured: identical kernels and counters, differing only in
// launch type and the per-level device->host queue-size read-back.
//
// The third column is the levelizer SparseLU and the triangular solves
// use: one launch whose blocks wait on their predecessors' ready flags
// (scheduling::levelize_sync_free). It prints its charged kernel time
// next to its longest dependency chain at one block's rate. Gate (exit
// code): on every deep-schedule matrix its levels equal both Kahn
// variants' and its simulated time is at or below Algorithm 5's.

#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "gpusim/device.hpp"
#include "scheduling/levelize.hpp"
#include "scheduling/ready_flags.hpp"

using namespace e2elu;

int main() {
  bench::TraceSession trace_session;
  constexpr index_t kScale = 64;
  std::printf("=== Extension: GPU levelization, dynamic parallelism "
              "(Alg. 5) vs host-launched vs sync-free ===\n");
  std::printf("%-5s %7s %7s %7s | %9s %7s %6s | %9s %7s %7s %6s | %8s "
              "%8s | %9s %5s %9s %9s\n",
              "abbr", "n", "edges", "levels", "host-drv", "h-lnch", "l/lvl",
              "dynamic", "h-lnch", "d-lnch", "l/lvl", "speedup", "occ spd",
              "sync-free", "lnch", "chain", "charged");
  bench::print_rule(160);

  int matrices = 0, same_levels = 0, at_or_below = 0;
  for (const SuiteEntry& e : table2_suite(kScale)) {
    // The deep-schedule matrices are where per-level overheads bite.
    if (e.abbr != "PR" && e.abbr != "IN" && e.abbr != "AP" &&
        e.abbr != "G7" && e.abbr != "MI") {
      continue;
    }
    const bench::PreparedMatrix p = bench::prepare(e.matrix);
    const Csr filled = symbolic::symbolic_rowmerge(p.preprocessed);
    const scheduling::DependencyGraph g =
        scheduling::build_dependency_graph(filled);
    const gpusim::DeviceSpec spec = bench::scaled_spec(
        device_memory_for(p.preprocessed, p.fill_nnz), kScale);

    gpusim::Device d_host(spec), d_dyn(spec), d_free(spec);
    const scheduling::LevelSchedule host =
        scheduling::levelize_gpu_host_launched(d_host, g);
    const scheduling::LevelSchedule dyn =
        scheduling::levelize_gpu_dynamic(d_dyn, g);
    E2ELU_CHECK(host.level == dyn.level);
    scheduling::FusedCost cost;
    const scheduling::LevelSchedule sync_free =
        scheduling::levelize_sync_free(d_free, g, &cost);

    const double t_host = d_host.stats().sim_total_us();
    const double t_dyn = d_dyn.stats().sim_total_us();
    const double t_free = d_free.stats().sim_total_us();
    ++matrices;
    same_levels += sync_free.level == host.level &&
                   sync_free.level == dyn.level;
    at_or_below += t_free <= t_dyn;
    // Launches per schedule level: the per-level overhead each variant
    // actually pays. The occupancy-weighted speedup compares kernel time
    // scaled by achieved occupancy — launch-overhead savings net of how
    // empty the per-level grids run.
    const double levels = std::max<index_t>(1, host.num_levels());
    const double lpl_host =
        static_cast<double>(d_host.stats().host_launches +
                            d_host.stats().device_launches) /
        levels;
    const double lpl_dyn =
        static_cast<double>(d_dyn.stats().host_launches +
                            d_dyn.stats().device_launches) /
        levels;
    const double occ_host =
        d_host.stats().sim_occupancy_us + d_host.stats().sim_launch_us;
    const double occ_dyn =
        d_dyn.stats().sim_occupancy_us + d_dyn.stats().sim_launch_us;
    std::printf("%-5s %7d %7lld %7d | %7.0fus %7llu %6.1f | %7.0fus %7llu "
                "%7llu %6.1f | %7.2fx %7.2fx | %7.1fus %5llu %7.1fus "
                "%7.2fus\n",
                e.abbr.c_str(), e.matrix.n,
                static_cast<long long>(g.num_edges()), host.num_levels(),
                t_host,
                static_cast<unsigned long long>(d_host.stats().host_launches),
                lpl_host, t_dyn,
                static_cast<unsigned long long>(d_dyn.stats().host_launches),
                static_cast<unsigned long long>(d_dyn.stats().device_launches),
                lpl_dyn, t_host / t_dyn, occ_dyn == 0 ? 0.0 : occ_host / occ_dyn,
                t_free,
                static_cast<unsigned long long>(d_free.stats().host_launches +
                                                d_free.stats().device_launches),
                cost.chain_us, cost.charged_us);
    std::fflush(stdout);
  }
  bench::print_rule(160);
  std::printf("expected shape: identical schedules; the dynamic version "
              "replaces per-level host launches + read-backs with cheap "
              "child launches, winning most on deep schedules; the "
              "sync-free version needs one launch whatever the depth\n");
  const bool levels_ok = matrices > 0 && same_levels == matrices;
  const bool sim_ok = matrices > 0 && at_or_below == matrices;
  std::printf("sync-free levels equal both Kahn variants: %d of %d — %s\n",
              same_levels, matrices, levels_ok ? "PASS" : "FAIL");
  std::printf("sync-free sim at or below Alg. 5: %d of %d — %s\n",
              at_or_below, matrices, sim_ok ? "PASS" : "FAIL");
  return levels_ok && sim_ok ? 0 : 1;
}
