// GPU-parallel pre-processing (preprocess/parallel/): serial-vs-parallel
// equivalence (matching validity, fill quality, bit-identical scaling),
// determinism across thread-pool sizes (the DESIGN.md 6i rule), pinned
// ordering outputs, the fill gate's chunked on-device count, the
// structured StructurallySingular error, the densification guard on the
// parallel path, the row gathers against their host oracles, the fill
// gate's counts handed to symbolic, and the end-to-end pipeline under
// PreprocessMode::GpuParallel.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

#include "core/factor_error.hpp"
#include "core/sparse_lu.hpp"
#include "fault/fault.hpp"
#include "gpusim/device.hpp"
#include "matrix/convert.hpp"
#include "matrix/generators.hpp"
#include "matrix/suite.hpp"
#include "preprocess/parallel/parallel_preprocess.hpp"
#include "preprocess/preprocess.hpp"
#include "service/structure_hash.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "symbolic/fill2.hpp"
#include "symbolic/symbolic.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu {
namespace {

using preprocess::parallel_diagonal_matching;
using preprocess::parallel_equilibrate;
using preprocess::parallel_min_degree_ordering;
using preprocess::parallel_patch_zero_diagonal;
using preprocess::parallel_permute;
using preprocess::parallel_transpose;

gpusim::Device test_device() {
  return gpusim::Device(gpusim::DeviceSpec::v100_with_memory(64u << 20));
}

Permutation random_perm(index_t n, std::uint64_t seed) {
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

/// Cyclic shift plus a long-range band: no structural diagonal anywhere.
Csr shifted_cycle(index_t n) {
  Coo coo;
  coo.n = n;
  for (index_t i = 0; i < n; ++i) {
    coo.add(i, (i + 1) % n, 3.0 + i % 5);
    coo.add(i, (i + 7) % n, 1.0);
  }
  return coo_to_csr(coo);
}

// Ordering fixtures.

Csr shuffled_grid() {
  const Csr grid = gen_grid2d(18, 18);
  const Permutation shuffle = random_perm(grid.n, 8);
  return permute(grid, shuffle, shuffle);
}

Csr ordering_circuit() { return gen_circuit(350, 4.0, 3, 14, 77); }

Csr ordering_planar() { return gen_blocked_planar(300, 30, 3.2, 4, 10); }

/// A dense 8-clique of indistinguishable vertices beside a sparse cycle.
Csr supernode_clique() {
  Coo coo;
  coo.n = 24;
  for (index_t i = 0; i < 8; ++i) {
    for (index_t j = 0; j < 8; ++j) coo.add(i, j, 1.0);  // dense 8-clique
  }
  for (index_t i = 8; i < 24; ++i) {
    coo.add(i, i, 1.0);
    coo.add(i, (i + 1 == 24 ? 8 : i + 1), 1.0);  // sparse cycle alongside
  }
  return coo_to_csr(coo);
}

/// Dense-ish random pattern whose elimination blows up quadratically;
/// ordered with densify_cap_low() it trips the densification guard.
Csr densify_case() {
  Rng rng(4242);
  Coo coo;
  coo.n = 160;
  for (index_t i = 0; i < coo.n; ++i) {
    coo.add(i, i, 4.0);
    for (int k = 0; k < 6; ++k) {
      const auto j = static_cast<index_t>(rng.next_below(coo.n));
      if (j != i) coo.add(i, j, 1.0);
    }
  }
  return coo_to_csr(coo);
}

PreprocessOptions densify_cap_low() {
  PreprocessOptions opt;
  opt.densify_cap = 1.05;  // low cap: force the guard
  return opt;
}

/// FNV-1a over the bytes of a permutation's index array.
std::uint64_t perm_hash(const Permutation& p) {
  return service::hash_words_fnv1a(14695981039346656037ull, p.data(),
                                   p.size() * sizeof(index_t));
}

/// Arms the tracer with a clean slate and disarms it on scope exit.
struct Recording {
  Recording() {
    trace::Tracer::instance().enable();
    trace::Tracer::instance().clear();
  }
  ~Recording() {
    trace::Tracer::instance().disable();
    trace::Tracer::instance().clear();
  }
};

const trace::Attr* find_attr(const trace::SpanRecord& r, const char* key) {
  for (std::uint32_t i = 0; i < r.num_attrs; ++i) {
    if (std::strcmp(r.attrs[i].key, key) == 0) return &r.attrs[i];
  }
  return nullptr;
}

/// The last recorded span called `name`, or null.
const trace::SpanRecord* last_span(const std::vector<trace::SpanRecord>& spans,
                                   const char* name) {
  const trace::SpanRecord* found = nullptr;
  for (const trace::SpanRecord& r : spans) {
    if (std::strcmp(r.name, name) == 0) found = &r;
  }
  return found;
}

/// Host launches of the symbolic.chunk spans of `stage`.
std::uint64_t chunk_launches(const std::vector<trace::SpanRecord>& spans,
                             const char* stage) {
  std::uint64_t launches = 0;
  for (const trace::SpanRecord& r : spans) {
    if (std::strcmp(r.name, "symbolic.chunk") != 0) continue;
    const trace::Attr* st = find_attr(r, "stage");
    if (st != nullptr && std::strcmp(st->value.s, stage) == 0) {
      launches += r.delta.host_launches;
    }
  }
  return launches;
}

// ---------------------------------------------------------- matching --

TEST(ParallelPreprocess, MatchingRepairsShiftedDiagonal) {
  const Csr a = shifted_cycle(40);
  ASSERT_FALSE(has_full_diagonal(a));
  gpusim::Device dev = test_device();
  const Permutation q = parallel_diagonal_matching(dev, a);
  EXPECT_TRUE(is_permutation(q));
  EXPECT_TRUE(has_full_diagonal(permute(a, identity_perm(40), q)));
  // It really ran on the device.
  EXPECT_GT(dev.stats().host_launches, 0u);
  EXPECT_GT(dev.stats().kernel_ops, 0u);
}

TEST(ParallelPreprocess, MatchingPrefersLargeMagnitudes) {
  Coo coo;
  coo.n = 2;
  coo.add(0, 0, 10.0);
  coo.add(0, 1, 0.1);
  coo.add(1, 0, 0.1);
  coo.add(1, 1, 10.0);
  gpusim::Device dev = test_device();
  const Permutation q = parallel_diagonal_matching(dev, coo_to_csr(coo));
  EXPECT_EQ(q[0], 0);
  EXPECT_EQ(q[1], 1);
}

TEST(ParallelPreprocess, MatchingCoversAugmentingPathCases) {
  // Greedy propose/dispose alone cannot finish this one: rows compete for
  // the same strong columns, so phase 2's augmenting searches must fire.
  Coo coo;
  coo.n = 6;
  for (index_t i = 0; i < 6; ++i) {
    coo.add(i, 0, 100.0 - i);                      // everyone wants column 0
    coo.add(i, (i * 3 + 1) % 6, 1.0 + i * 0.25);   // scattered alternatives
    coo.add(i, (i * 5 + 2) % 6, 0.5);
  }
  const Csr a = coo_to_csr(coo);
  gpusim::Device dev = test_device();
  const Permutation q = parallel_diagonal_matching(dev, a);
  EXPECT_TRUE(is_permutation(q));
  EXPECT_TRUE(has_full_diagonal(permute(a, identity_perm(6), q)));
}

TEST(ParallelPreprocess, MatchingAgreesWithSerialOnCircuitClass) {
  // Validity equivalence (not bit-equality: tie-breaking may differ when
  // magnitudes collide): both modes must produce full structural
  // diagonals on the same inputs.
  for (std::uint64_t seed : {3u, 9u, 21u}) {
    Csr a = gen_circuit(300, 4.0, 2, 12, seed);
    // Destroy the structural diagonal with a fixed column shuffle so
    // matching has real work to do.
    a = permute(a, identity_perm(a.n), random_perm(a.n, seed ^ 0x5a5a));
    const Permutation qs = diagonal_matching(a);
    gpusim::Device dev = test_device();
    const Permutation qp = parallel_diagonal_matching(dev, a);
    EXPECT_TRUE(is_permutation(qp));
    const Permutation id = identity_perm(a.n);
    EXPECT_TRUE(has_full_diagonal(permute(a, id, qs)));
    EXPECT_TRUE(has_full_diagonal(permute(a, id, qp)));
  }
}

TEST(ParallelPreprocess, MatchingStructuredErrorNamesColumns) {
  Coo coo;
  coo.n = 3;
  coo.add(0, 0, 1.0);
  coo.add(1, 0, 1.0);  // rows 1 and 2 both only hit column 0
  coo.add(2, 0, 1.0);
  const Csr a = coo_to_csr(coo);
  gpusim::Device dev = test_device();
  try {
    parallel_diagonal_matching(dev, a);
    FAIL() << "expected FactorError{StructurallySingular}";
  } catch (const FactorError& e) {
    EXPECT_EQ(e.kind(), FaultKind::StructurallySingular);
    EXPECT_EQ(e.phase(), "preprocess");
    // Columns 1 and 2 are uncoverable; the error is localized to the
    // first one and the message names both.
    EXPECT_EQ(e.column(), 1);
    EXPECT_NE(std::string(e.what()).find("2 column(s) unmatched"),
              std::string::npos);
  }
}

// ---------------------------------------------------------- ordering --

TEST(ParallelPreprocess, AmdFillWithinBandOfSerialOracle) {
  // The bench gate in miniature: on every test matrix the parallel
  // ordering's fill must land within 10% of (or beat) the serial oracle.
  for (const Csr& a :
       {shuffled_grid(), ordering_circuit(), ordering_planar()}) {
    MinDegreeStats serial_stats;
    const Permutation ps = min_degree_ordering(a, {}, &serial_stats);
    gpusim::Device dev = test_device();
    MinDegreeStats par_stats;
    const Permutation pp = parallel_min_degree_ordering(dev, a, {}, &par_stats);
    ASSERT_TRUE(is_permutation(pp));
    const auto fill_s =
        static_cast<double>(symbolic::fill_of_ordering(a, ps));
    const offset_t fill_p = symbolic::fill_of_ordering(a, pp);
    EXPECT_LE(static_cast<double>(fill_p), fill_s * 1.10)
        << "parallel fill " << fill_p << " vs serial " << fill_s;
    // The gate's on-device stage-1 counts are exact: the smaller one is
    // the returned ordering's fill by the host rowmerge oracle.
    EXPECT_EQ(std::min(par_stats.gate_fill_amd, par_stats.gate_fill_rcm),
              fill_p);
    EXPECT_GT(par_stats.rounds, 0);
    EXPECT_GT(par_stats.ops, 0u);
    EXPECT_GT(dev.stats().host_launches, 0u);
  }
}

TEST(ParallelPreprocess, AmdHandlesDisconnectedGraphs) {
  const Csr a = gen_blocked_planar(240, 24, 3.0, 4, 5);
  gpusim::Device dev = test_device();
  EXPECT_TRUE(is_permutation(parallel_min_degree_ordering(dev, a)));
}

TEST(ParallelPreprocess, AmdMergesSupernodes) {
  // A clique of indistinguishable vertices: hash-based supernode
  // detection should absorb most of them into one representative.
  const Csr a = supernode_clique();
  gpusim::Device dev = test_device();
  MinDegreeStats stats;
  const Permutation p = parallel_min_degree_ordering(dev, a, {}, &stats);
  EXPECT_TRUE(is_permutation(p));
  EXPECT_GT(stats.supernodes_merged, 0);
}

TEST(ParallelPreprocess, DensifyGuardFallsBackToRcm) {
  // Dense-ish random pattern: elimination blows up quadratically; the
  // cap must trip on the parallel path exactly as on the serial one.
  const Csr a = densify_case();
  gpusim::Device dev = test_device();
  MinDegreeStats stats;
  const Permutation p =
      parallel_min_degree_ordering(dev, a, densify_cap_low(), &stats);
  EXPECT_TRUE(is_permutation(p));
  EXPECT_GE(stats.rcm_fallback_at, 0);
  EXPECT_LT(stats.rcm_fallback_at, a.n);
  // The guard bounds the blowup: peak live adjacency stays near the cap,
  // far below the ~n^2 entries unguarded elimination reaches here.
  EXPECT_LT(stats.peak_adjacency,
            static_cast<std::size_t>(a.n) * static_cast<std::size_t>(a.n) / 4);
}

TEST(ParallelPreprocess, OrderingOutputIsPinned) {
  // Pinned permutations (FNV-1a). Reshaping the round kernels or the
  // fill gate moves work between launches and must leave these intact;
  // a change here is a change of ordering, not of cost.
  struct Pinned {
    const char* name;
    Csr a;
    PreprocessOptions opt;
    std::uint64_t hash;
  };
  const Pinned fixtures[] = {
      {"shuffled grid", shuffled_grid(), {}, 0x599142e427aca1d9ull},
      {"circuit", ordering_circuit(), {}, 0xdf107b9c9e884418ull},
      {"blocked planar", ordering_planar(), {}, 0x0ae98fd0c0cc97c9ull},
      {"supernode clique", supernode_clique(), {}, 0x42eb8c583bd162a5ull},
      {"densify guard", densify_case(), densify_cap_low(),
       0x1b4782ab32a68e95ull},
  };
  ThreadPool one_thread(1);
  ThreadPool four_threads(4);
  for (ThreadPool* pool : {&one_thread, &four_threads}) {
    for (const Pinned& f : fixtures) {
      gpusim::Device dev = test_device();
      dev.use_pool(*pool);
      EXPECT_EQ(perm_hash(parallel_min_degree_ordering(dev, f.a, f.opt)),
                f.hash)
          << f.name << " on " << pool->num_threads() << " thread(s)";
    }
  }
}

TEST(ParallelPreprocess, GateDecisionIsTraced) {
  // The ordering span names both candidates' fill and the pick, and the
  // rcm_picks counter ticks exactly when RCM wins. The shuffled grid is
  // an AMD win; a narrow band (bandwidth 2) is an RCM win by one entry.
  trace::Counter& rcm_picks = trace::MetricsRegistry::global().counter(
      "preprocess.ordering.rcm_picks");
  const std::pair<Csr, bool> cases[] = {{shuffled_grid(), false},
                                        {gen_banded(300, 2, 5.0, 3), true}};
  for (const auto& [a, rcm] : cases) {
    Recording rec;
    gpusim::Device dev = test_device();
    MinDegreeStats stats;
    const std::uint64_t picks_before = rcm_picks.value();
    parallel_min_degree_ordering(dev, a, {}, &stats);
    trace::Tracer::instance().disable();
    EXPECT_EQ(stats.gate_fill_rcm < stats.gate_fill_amd, rcm);
    EXPECT_EQ(rcm_picks.value() - picks_before, rcm ? 1u : 0u);

    const trace::SpanRecord* span = nullptr;
    const std::vector<trace::SpanRecord> spans =
        trace::Tracer::instance().collect();
    for (const trace::SpanRecord& r : spans) {
      if (std::strcmp(r.name, "preprocess.ordering") == 0) span = &r;
    }
    ASSERT_NE(span, nullptr);
    const trace::Attr* fill_amd = find_attr(*span, "fill_amd");
    const trace::Attr* fill_rcm = find_attr(*span, "fill_rcm");
    const trace::Attr* pick = find_attr(*span, "pick");
    ASSERT_NE(fill_amd, nullptr);
    ASSERT_NE(fill_rcm, nullptr);
    ASSERT_NE(pick, nullptr);
    EXPECT_EQ(fill_amd->value.i, stats.gate_fill_amd);
    EXPECT_EQ(fill_rcm->value.i, stats.gate_fill_rcm);
    EXPECT_STREQ(pick->value.s, rcm ? "rcm" : "amd");
  }
}

TEST(ParallelPreprocess, OrderingSpanCountsRoundsAndSelectPairs) {
  // amd.select runs one block per (candidate, neighbour) pair; the span
  // reports how many rounds ran and how many pair blocks they launched.
  Recording rec;
  gpusim::Device dev = test_device();
  MinDegreeStats stats;
  parallel_min_degree_ordering(dev, shuffled_grid(), {}, &stats);
  trace::Tracer::instance().disable();
  const std::vector<trace::SpanRecord> spans =
      trace::Tracer::instance().collect();
  const trace::SpanRecord* span = last_span(spans, "preprocess.ordering");
  ASSERT_NE(span, nullptr);
  const trace::Attr* rounds = find_attr(*span, "rounds");
  const trace::Attr* pairs = find_attr(*span, "select_pairs");
  ASSERT_NE(rounds, nullptr);
  ASSERT_NE(pairs, nullptr);
  EXPECT_GT(stats.rounds, 0);
  EXPECT_GE(stats.select_pairs, static_cast<std::uint64_t>(stats.rounds));
  EXPECT_EQ(rounds->value.i, stats.rounds);
  EXPECT_EQ(pairs->value.i, static_cast<std::int64_t>(stats.select_pairs));
}

TEST(ParallelPreprocess, GateChunksScratchOnASmallDevice) {
  // 16 KiB holds the graph and one permuted candidate; the rest is four
  // rows of fill2 scratch, so each count runs as many one-block-per-row
  // chunks. The chunking changes launches only, never the pick.
  const Csr a = shuffled_grid();
  gpusim::Device big = test_device();
  const Permutation expected = parallel_min_degree_ordering(big, a);

  gpusim::Device small(gpusim::DeviceSpec::v100_with_memory(
      (16u << 10) + 4 * symbolic::scratch_bytes_per_row(a.n)));
  Recording rec;
  const Permutation p = parallel_min_degree_ordering(small, a);
  trace::Tracer::instance().disable();
  EXPECT_EQ(p, expected);

  std::uint64_t gate_launches = 0;
  for (const trace::SpanRecord& r : trace::Tracer::instance().collect()) {
    if (std::strcmp(r.name, "symbolic.chunk") != 0) continue;
    const trace::Attr* stage = find_attr(r, "stage");
    ASSERT_NE(stage, nullptr);
    if (std::strcmp(stage->value.s, "ord.fillgate") == 0) {
      gate_launches += r.delta.host_launches;
    }
  }
  EXPECT_GT(gate_launches, 2u);
}

TEST(ParallelPreprocess, GateScratchAllocFaultRetriesSmallerChunks) {
  // The last allocation of an ordering run is the RCM candidate's scratch.
  // Failing it makes the stage-1 pass halve its chunk and retry; the pick
  // is unchanged.
  const Csr a = ordering_circuit();
  std::uint64_t sites = 0;
  Permutation expected;
  {
    fault::ScopedPlan observe{fault::FaultPlan{}};
    gpusim::Device dev = test_device();
    expected = parallel_min_degree_ordering(dev, a);
    sites = fault::Injector::instance().alloc_sites();
  }
  trace::Counter& retries = trace::MetricsRegistry::global().counter(
      "recovery.symbolic.chunk_retry");
  const std::uint64_t retries_before = retries.value();
  fault::ScopedPlan plan("alloc=" + std::to_string(sites));
  gpusim::Device dev = test_device();
  EXPECT_EQ(parallel_min_degree_ordering(dev, a), expected);
  EXPECT_EQ(fault::Injector::instance().events().size(), 1u);
  EXPECT_GT(retries.value(), retries_before);
}

// ------------------------------------------------------- row gathers --

void expect_same_matrix(const Csr& x, const Csr& y, const char* what) {
  EXPECT_EQ(x.row_ptr, y.row_ptr) << what;
  EXPECT_EQ(x.col_idx, y.col_idx) << what;
  EXPECT_EQ(x.values, y.values) << what;
}

/// Diagonal of row i: zero when i % 3 == 0, missing when i % 3 == 1.
Csr broken_diagonal(index_t n) {
  Coo coo;
  coo.n = n;
  for (index_t i = 0; i < n; ++i) {
    if (i % 3 != 1) coo.add(i, i, i % 3 == 0 ? 0.0 : 2.0 + i);
    coo.add(i, (i + 1) % n, 1.0);
    coo.add(i, (i + 5) % n, -0.5);
  }
  return coo_to_csr(coo);
}

TEST(ParallelPreprocess, GathersBuildTheHostOraclesMatrices) {
  // One block per row each, charging the entries the row reads: the
  // permute one per entry, the transpose two (count and scatter), the
  // diagonal patch one per entry plus, when it inserts, one per entry of
  // the rebuilt rows.
  const Csr a = gen_circuit(300, 4.0, 2, 12, 0x9a7);
  const auto nnz = static_cast<std::uint64_t>(a.nnz());
  const Permutation rp = random_perm(a.n, 1);
  const Permutation cp = random_perm(a.n, 2);
  gpusim::Device dev = test_device();

  expect_same_matrix(parallel_permute(dev, a, rp, cp, "pre.permute"),
                     permute(a, rp, cp), "permute");
  EXPECT_EQ(dev.stats().host_launches, 1u);
  EXPECT_EQ(dev.stats().kernel_ops, nnz);

  expect_same_matrix(parallel_transpose(dev, a, "match.build_csc"),
                     transpose(a), "transpose");
  EXPECT_EQ(dev.stats().host_launches, 2u);
  EXPECT_EQ(dev.stats().kernel_ops, 3 * nnz);

  for (const Csr& m : {broken_diagonal(40), shifted_cycle(40), a}) {
    Csr host = m;
    Csr device = m;
    const gpusim::DeviceStats before = dev.snapshot();
    const index_t patched_host = patch_zero_diagonal(host, 1000.0);
    EXPECT_EQ(parallel_patch_zero_diagonal(dev, device, 1000.0), patched_host);
    expect_same_matrix(device, host, "patch");
    const gpusim::DeviceStats d = dev.stats().since(before);
    const bool inserted = host.nnz() != m.nnz();
    EXPECT_EQ(d.host_launches, inserted ? 2u : 1u);
    EXPECT_EQ(d.kernel_ops, static_cast<std::uint64_t>(
                                m.nnz() + (inserted ? host.nnz() : 0)));
  }
}

// ------------------------------------------------------------ scaling --

TEST(ParallelPreprocess, EquilibrateBitIdenticalToSerial) {
  Csr serial_a = gen_banded(120, 9, 5.0, 31);
  for (auto& v : serial_a.values) v *= 977.0;
  Csr parallel_a = serial_a;

  const Scaling ss = equilibrate(serial_a);
  gpusim::Device dev = test_device();
  const Scaling sp = parallel_equilibrate(dev, parallel_a);

  // Bit-identical, not approximately equal: each element sees the same
  // two multiplies in both modes.
  EXPECT_EQ(serial_a.values, parallel_a.values);
  EXPECT_EQ(ss.row_scale, sp.row_scale);
  EXPECT_EQ(ss.col_scale, sp.col_scale);
  EXPECT_GT(dev.stats().host_launches, 0u);
}

// ------------------------------------------------------- determinism --

TEST(ParallelPreprocess, DeterministicAcrossPoolSizes) {
  // DESIGN.md 6i: fixed seed + same device config => identical results
  // regardless of how many workers execute the blocks.
  const Csr grid = gen_grid2d(16, 16);
  const Permutation shuffle = random_perm(grid.n, 5);
  Csr a = permute(grid, shuffle, shuffle);
  Csr shifted = permute(a, identity_perm(a.n), random_perm(a.n, 99));

  ThreadPool one_thread(1);
  ThreadPool four_threads(4);

  gpusim::Device dev1 = test_device();
  dev1.use_pool(one_thread);
  gpusim::Device dev4 = test_device();
  dev4.use_pool(four_threads);

  EXPECT_EQ(parallel_min_degree_ordering(dev1, a),
            parallel_min_degree_ordering(dev4, a));
  EXPECT_EQ(parallel_diagonal_matching(dev1, shifted),
            parallel_diagonal_matching(dev4, shifted));

  Csr s1 = a, s4 = a;
  parallel_equilibrate(dev1, s1);
  parallel_equilibrate(dev4, s4);
  EXPECT_EQ(s1.values, s4.values);

  // And run-to-run on the same device: a second call sees the same input
  // and must reproduce the first bit-for-bit.
  EXPECT_EQ(parallel_min_degree_ordering(dev1, a),
            parallel_min_degree_ordering(dev1, a));
}

TEST(ParallelPreprocess, SeedChangesTieBreakingOnly) {
  // A different seed may reorder ties but must still produce a valid
  // permutation with comparable fill.
  const Csr a = gen_circuit(260, 4.0, 2, 10, 55);
  gpusim::Device dev = test_device();
  PreprocessOptions opt;
  const Permutation p0 = parallel_min_degree_ordering(dev, a, opt);
  opt.seed = 0x1234abcd;
  const Permutation p1 = parallel_min_degree_ordering(dev, a, opt);
  EXPECT_TRUE(is_permutation(p0));
  EXPECT_TRUE(is_permutation(p1));
  const auto f0 = static_cast<double>(symbolic::fill_of_ordering(a, p0));
  const auto f1 = static_cast<double>(symbolic::fill_of_ordering(a, p1));
  EXPECT_LE(std::abs(f0 - f1), 0.25 * std::max(f0, f1));
}

// --------------------------------------------------------- edge cases --

TEST(ParallelPreprocess, EmptyAndSingletonMatrices) {
  gpusim::Device dev = test_device();

  Csr empty(0);
  EXPECT_TRUE(parallel_diagonal_matching(dev, empty).empty());
  EXPECT_TRUE(parallel_min_degree_ordering(dev, empty).empty());
  parallel_equilibrate(dev, empty);

  Coo coo;
  coo.n = 1;
  coo.add(0, 0, 2.0);
  Csr one = coo_to_csr(coo);
  EXPECT_EQ(parallel_diagonal_matching(dev, one), Permutation{0});
  EXPECT_EQ(parallel_min_degree_ordering(dev, one), Permutation{0});
  const Scaling s = parallel_equilibrate(dev, one);
  EXPECT_DOUBLE_EQ(one.values[0], 1.0);
  EXPECT_DOUBLE_EQ(s.row_scale[0], 0.5);
}

// ------------------------------------------------- pipeline end-to-end --

Options parallel_pipeline_options() {
  Options opt;
  opt.device = gpusim::DeviceSpec::v100_with_memory(64u << 20);
  opt.preprocess.mode = PreprocessMode::GpuParallel;
  return opt;
}

TEST(ParallelPreprocess, PipelineFactorsAndSolvesUnderGpuMode) {
  const Csr a = gen_circuit(400, 5.0, 3, 16, 0xfeed);
  std::vector<value_t> b(static_cast<std::size_t>(a.n));
  Rng rng(17);
  for (auto& v : b) v = rng.next_double(-1.0, 1.0);

  Options serial_opt = parallel_pipeline_options();
  serial_opt.preprocess.mode = PreprocessMode::Serial;
  serial_opt.ordering = Ordering::MinDegree;
  Options par_opt = parallel_pipeline_options();
  par_opt.ordering = Ordering::MinDegree;

  const FactorResult fs = SparseLU(serial_opt).factorize(a);
  const FactorResult fp = SparseLU(par_opt).factorize(a);

  // Both modes solve to comparable accuracy (the bench's residual-
  // convergence gate in miniature).
  EXPECT_LT(SparseLU::residual(a, SparseLU::solve(fs, b), b), 1e-8);
  EXPECT_LT(SparseLU::residual(a, SparseLU::solve(fp, b), b), 1e-8);

  // The parallel preprocess really executed on the device: its sub-phase
  // reports carry kernel launches, and the serial mode's carry none.
  EXPECT_GT(fp.preprocess_order.launches, 0u);
  EXPECT_EQ(fs.preprocess_order.launches, 0u);
  EXPECT_GT(fp.preprocess.sim_us, 0.0);
}

TEST(ParallelPreprocess, PipelineSubPhasesTilePreprocessOps) {
  Options opt = parallel_pipeline_options();
  opt.ordering = Ordering::MinDegree;
  opt.preprocess.equilibrate = true;
  // Destroyed diagonal: matching, ordering, and scaling all run.
  Csr a = gen_circuit(350, 4.0, 2, 12, 0xc0de);
  a = permute(a, identity_perm(a.n), random_perm(a.n, 0x77));

  const FactorResult f = SparseLU(opt).factorize(a);
  EXPECT_GT(f.preprocess_match.ops, 0u);
  EXPECT_GT(f.preprocess_order.ops, 0u);
  EXPECT_GT(f.preprocess_scale.ops, 0u);
  // Sub-phase ops are contained in the preprocess aggregate.
  EXPECT_GE(f.preprocess.ops, f.preprocess_match.ops +
                                  f.preprocess_order.ops +
                                  f.preprocess_scale.ops);
  EXPECT_GE(f.preprocess.launches, f.preprocess_match.launches +
                                       f.preprocess_order.launches +
                                       f.preprocess_scale.launches);
}

/// Matching, ordering and scaling all have work: the structural diagonal
/// of a circuit is destroyed by a column shuffle.
Csr column_shuffled_circuit() {
  const Csr a = gen_circuit(350, 4.0, 2, 12, 0xc0de);
  return permute(a, identity_perm(a.n), random_perm(a.n, 0x77));
}

std::vector<value_t> random_rhs(index_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<value_t> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.next_double(-1.0, 1.0);
  return b;
}

TEST(ParallelPreprocess, PhaseOpsTileTheDeviceKernelOps) {
  // GpuParallel preprocessing bills every step as device work — the
  // permutes and the diagonal patch included — so the four phases' ops
  // are exactly the device's kernel ops.
  Options opt = parallel_pipeline_options();
  opt.ordering = Ordering::MinDegree;
  opt.preprocess.equilibrate = true;
  const FactorResult f = SparseLU(opt).factorize(column_shuffled_circuit());
  EXPECT_GT(f.preprocess_match.ops, 0u);
  EXPECT_GT(f.preprocess_order.ops, 0u);
  EXPECT_GT(f.preprocess_scale.ops, 0u);
  EXPECT_EQ(f.preprocess.ops + f.symbolic.ops + f.levelize.ops +
                f.numeric.ops,
            f.device_stats.kernel_ops);
}

TEST(ParallelPreprocess, SymbolicReusesTheFillGateCounts) {
  // The gate has counted the final pattern's fill already: both
  // out-of-core drivers take the counts and launch no symbolic_1, while
  // Serial preprocessing (no gate) still counts.
  const Csr a = column_shuffled_circuit();
  const std::vector<value_t> b = random_rhs(a.n, 41);
  trace::Counter& reused =
      trace::MetricsRegistry::global().counter("symbolic.stage1_reused");
  for (const Mode mode : {Mode::OutOfCoreGpu, Mode::OutOfCoreGpuDynamic}) {
    for (const PreprocessMode pre :
         {PreprocessMode::GpuParallel, PreprocessMode::Serial}) {
      const bool gate = pre == PreprocessMode::GpuParallel;
      Options opt = parallel_pipeline_options();
      opt.mode = mode;
      opt.ordering = Ordering::MinDegree;
      opt.preprocess.mode = pre;
      const std::uint64_t reused_before = reused.value();
      Recording rec;
      const FactorResult f = SparseLU(opt).factorize(a);
      trace::Tracer::instance().disable();
      const std::vector<trace::SpanRecord> spans =
          trace::Tracer::instance().collect();
      const std::string where = std::string(gate ? "GpuParallel" : "Serial") +
                                " mode " + std::to_string(int(mode));

      EXPECT_EQ(reused.value() - reused_before, gate ? 1u : 0u) << where;
      const trace::SpanRecord* sym = last_span(spans, "symbolic");
      ASSERT_NE(sym, nullptr) << where;
      const trace::Attr* stage1 = find_attr(*sym, "stage1");
      ASSERT_NE(stage1, nullptr) << where;
      EXPECT_STREQ(stage1->value.s, gate ? "reused" : "counted") << where;
      EXPECT_EQ(chunk_launches(spans, "symbolic_1") == 0, gate) << where;
      EXPECT_GT(chunk_launches(spans, "symbolic_2"), 0u) << where;
      EXPECT_GT(f.symbolic_chunks, 0) << where;
      EXPECT_LT(SparseLU::residual(a, SparseLU::solve(f, b), b), 1e-8)
          << where;
    }
  }
}

TEST(ParallelPreprocess, SymbolicReplanKeepsTheGateCounts) {
  // A lost symbolic_2 launch re-plans through the multipart planner,
  // which takes the gate's counts as well: still no symbolic_1, and the
  // same pattern as a clean run.
  const Csr a = column_shuffled_circuit();
  Options opt = parallel_pipeline_options();
  opt.ordering = Ordering::MinDegree;
  const FactorResult reference = SparseLU(opt).factorize(a);
  trace::Counter& reused =
      trace::MetricsRegistry::global().counter("symbolic.stage1_reused");
  const std::uint64_t reused_before = reused.value();
  fault::ScopedPlan plan("launch=symbolic_2@1");
  Recording rec;
  const FactorResult f = SparseLU(opt).factorize(a);
  trace::Tracer::instance().disable();
  EXPECT_EQ(fault::Injector::instance().events().size(), 1u);
  EXPECT_GE(f.recovery_retries, 1);
  EXPECT_EQ(reused.value() - reused_before, 1u);
  EXPECT_EQ(chunk_launches(trace::Tracer::instance().collect(), "symbolic_1"),
            0u);
  EXPECT_EQ(f.fill_nnz, reference.fill_nnz);
  EXPECT_EQ(f.l.col_idx, reference.l.col_idx);
  EXPECT_EQ(f.u.col_idx, reference.u.col_idx);
}

TEST(ParallelPreprocess, InsertedDiagonalsKeepSymbolicCounting) {
  // Without matching, the patch inserts the missing diagonals after the
  // gate counted: the counts describe another pattern, so symbolic counts
  // for itself, and the factors of the patched matrix still solve.
  const Csr a = shifted_cycle(60);
  ASSERT_FALSE(has_full_diagonal(a));
  Options opt = parallel_pipeline_options();
  opt.ordering = Ordering::MinDegree;
  opt.match_diagonal = false;
  trace::Counter& reused =
      trace::MetricsRegistry::global().counter("symbolic.stage1_reused");
  const std::uint64_t reused_before = reused.value();
  Recording rec;
  const FactorResult f = SparseLU(opt).factorize(a);
  trace::Tracer::instance().disable();
  const std::vector<trace::SpanRecord> spans =
      trace::Tracer::instance().collect();
  EXPECT_EQ(reused.value(), reused_before);
  EXPECT_GT(chunk_launches(spans, "symbolic_1"), 0u);
  const trace::SpanRecord* sym = last_span(spans, "symbolic");
  ASSERT_NE(sym, nullptr);
  EXPECT_STREQ(find_attr(*sym, "stage1")->value.s, "counted");

  // Rows and columns share one symmetric permutation, so patching the
  // permuted diagonal patches the original one.
  ASSERT_EQ(f.row_perm, f.col_perm);
  Csr patched = a;
  ASSERT_EQ(patch_zero_diagonal(patched, *opt.diag_patch), a.n);
  EXPECT_EQ(f.fill_nnz, symbolic::fill_of_ordering(patched, f.row_perm));
  const std::vector<value_t> b = random_rhs(a.n, 43);
  EXPECT_LT(SparseLU::residual(patched, SparseLU::solve(f, b), b), 1e-8);
}

TEST(ParallelPreprocess, Fig4GateCountsReproduceTheCountedSymbolic) {
  // The 18 Figure 4 stand-ins, columns shuffled, preprocessed the way
  // GpuParallel SparseLU does: the counts the gate hands over give
  // Algorithm 4 the filled pattern and per-row counts of a run that
  // counts for itself.
  for (const SuiteEntry& e : table2_suite(64)) {
    const index_t n = e.matrix.n;
    const Permutation id = identity_perm(n);
    const Csr shuffled =
        permute(e.matrix, id, random_perm(n, 0xc0ffee ^ std::uint64_t(n)));
    gpusim::Device dev(gpusim::DeviceSpec::v100_with_memory(256u << 20));
    const Csr matched = parallel_permute(
        dev, shuffled, id, parallel_diagonal_matching(dev, shuffled),
        "pre.permute");
    MinDegreeStats st;
    const Permutation p = parallel_min_degree_ordering(dev, matched, {}, &st);
    const Csr pre = parallel_permute(dev, matched, p, p, "pre.permute");
    ASSERT_TRUE(has_full_diagonal(pre)) << e.abbr;  // the patch inserts none
    ASSERT_EQ(st.fill_counts.size(), static_cast<std::size_t>(n)) << e.abbr;

    const symbolic::SymbolicResult handed =
        symbolic::symbolic_out_of_core_dynamic(dev, pre, {}, st.fill_counts);
    const symbolic::SymbolicResult counted =
        symbolic::symbolic_out_of_core_dynamic(dev, pre);
    EXPECT_EQ(handed.filled.row_ptr, counted.filled.row_ptr) << e.abbr;
    EXPECT_EQ(handed.filled.col_idx, counted.filled.col_idx) << e.abbr;
    EXPECT_EQ(handed.fill_count, counted.fill_count) << e.abbr;
    EXPECT_EQ(handed.filled.nnz(),
              std::min(st.gate_fill_amd, st.gate_fill_rcm))
        << e.abbr;
    EXPECT_GT(handed.num_chunks, 0) << e.abbr;
    EXPECT_LT(handed.ops, counted.ops) << e.abbr;
  }
}

TEST(ParallelPreprocess, ScalingRoundTripsThroughSolve) {
  // Equilibration must be invisible to the caller: solve() undoes the
  // scales, serial and parallel mode alike.
  Csr wild = gen_banded(200, 10, 6.0, 23);
  Rng rng(5);
  for (auto& v : wild.values) {
    v *= std::pow(10.0, rng.next_double(-3.0, 3.0));
  }
  std::vector<value_t> b(static_cast<std::size_t>(wild.n));
  for (auto& v : b) v = rng.next_double(-1.0, 1.0);

  for (PreprocessMode mode : {PreprocessMode::Serial,
                              PreprocessMode::GpuParallel}) {
    Options opt = parallel_pipeline_options();
    opt.preprocess.mode = mode;
    opt.preprocess.equilibrate = true;
    const FactorResult f = SparseLU(opt).factorize(wild);
    ASSERT_TRUE(f.scaling.enabled());
    // The residual is computed against the ORIGINAL (unscaled) matrix:
    // a small residual means solve() correctly un-did the scales.
    EXPECT_LT(SparseLU::residual(wild, SparseLU::solve(f, b), b), 1e-6)
        << "mode " << static_cast<int>(mode);
  }
}

}  // namespace
}  // namespace e2elu
