// Parallel approximate minimum degree (Chang/Buluc/Demmel-style): each
// round eliminates a distance-2 independent set of near-minimum-degree
// pivots simultaneously. Distance-2 independence makes the clique updates
// write-disjoint — a live vertex is adjacent to at most one winner, so
// exactly one block rebuilds its adjacency — and every cross-block
// reduction (min degree, live-entry count) is commutative, which is the
// whole determinism argument (DESIGN.md 6i).
//
// Kernels, one launch per step, each grid sized to its work (after
// ord.symmetrize builds A + A^T, the graph the rounds eliminate on):
//   amd.compress_degree  one block per live vertex, once before the first
//                 round and again after every round: drop dead and merged
//                 entries, sum the weighted degree of the rest, reduce the
//                 min degree and the live-entry count
//   amd.candidates one block per live vertex: flag the round's candidate
//                 window, deg <= (1+slack)*dmin
//   amd.select    one block per (candidate v, neighbour u) pair: the pair
//                 loses if u, or a w != v in adj[u], is a candidate of
//                 better (deg, hash, id) priority; a candidate wins iff
//                 none of its pairs lost
//   amd.eliminate one block per (winner, clique member): fold the pivot's
//                 clique into the member's list and hash the member's
//                 closed neighborhood
//   amd.supernode one block per winner: sort its clique's hashes, verify
//                 equal ones exactly, merge indistinguishable vertices
// The live-list compaction and the pair-offset scan run on the host the
// way clique_ptr is built, at one op per scanned entry, spread evenly
// over the blocks of the launch that consumes them; amd.candidates is the
// candidate compaction's charge.
//
// After the rounds, ord.fillgate counts the exact fill of the AMD result
// and of an RCM candidate with symbolic's stage-1 pass (each candidate
// permuted by an ord.gate_permute gather) and keeps the better ordering —
// the fill-quality gate of DESIGN.md 6i. The winner's per-row counts are
// returned, so symbolic can skip its own stage 1 on the same pattern.

#include <algorithm>
#include <atomic>
#include <limits>
#include <numeric>
#include <vector>

#include "gpusim/device_buffer.hpp"
#include "preprocess/parallel/parallel_preprocess.hpp"
#include "preprocess/sym_graph.hpp"
#include "support/check.hpp"
#include "symbolic/symbolic.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu::preprocess {

namespace {

constexpr int kThreadsPerBlock = 256;

/// Vertices per block of the two launches that bill serial RCM work
/// (ord.rcm_candidate, amd.rcm_fallback); every other launch runs one
/// block per unit of work.
constexpr std::int64_t kVertsPerBlock = 256;

/// Multiple-elimination window: a round's pivot candidates are the
/// vertices with degree <= (1 + kDegreeSlack) * min_degree. Wider windows
/// eliminate more pivots per round (fewer rounds, more parallelism) at
/// some fill cost; the bench gate bounds that cost.
constexpr double kDegreeSlack = 0.10;

std::int64_t blocks_for(std::int64_t count) {
  return std::max<std::int64_t>(1, (count + kVertsPerBlock - 1) /
                                       kVertsPerBlock);
}

/// Block b's share of `total` ops spread evenly over `blocks` blocks.
std::uint64_t share(std::uint64_t total, std::int64_t b, std::int64_t blocks) {
  const auto k = static_cast<std::uint64_t>(b);
  const auto m = static_cast<std::uint64_t>(blocks);
  return total * (k + 1) / m - total * k / m;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The independent-set rounds, plus the densify guard's RCM tail: the AMD
/// candidate. Records the round statistics in `st`. The round state's
/// device buffers are released on return, before the fill gate runs.
Permutation amd_rounds(gpusim::Device& dev, const SymGraph& g, index_t n,
                       const PreprocessOptions& opt, double warp_eff,
                       MinDegreeStats& st) {
  // Device residency: the input graph plus the per-vertex round state.
  // The elimination graph's growth past the upload is bounded by the
  // densify_cap guard below, which bails to RCM before the arena would
  // need to outgrow the factor-sized budget.
  gpusim::DeviceBuffer<offset_t> dptr(dev, std::span<const offset_t>(g.ptr));
  gpusim::DeviceBuffer<index_t> dadj(
      dev, std::max<std::size_t>(std::size_t{1}, g.adj.size()));
  if (!g.adj.empty()) dadj.copy_from_host(std::span<const index_t>(g.adj));
  gpusim::DeviceBuffer<index_t> ddeg(dev, static_cast<std::size_t>(n));
  gpusim::DeviceBuffer<std::uint8_t> dflags(dev, static_cast<std::size_t>(n));

  // Host mirrors of the (dynamic) elimination graph. Kernel bodies are
  // host lambdas in this simulator; the DeviceBuffers above model the
  // footprint and transfer cost of the same state.
  std::vector<std::vector<index_t>> adj(n);
  for (index_t v = 0; v < n; ++v) {
    adj[v].assign(g.adj.begin() + g.ptr[v], g.adj.begin() + g.ptr[v + 1]);
  }
  std::vector<std::vector<index_t>> members(n);
  std::vector<char> alive(n, 1);
  std::vector<index_t> deg(n, 0);
  // Supernode weights: weight[v] = 1 + |members(v)|. Degrees are
  // weighted sums over quotient neighbors (AMD's external degree) — a
  // pivot next to five size-10 supernodes forms a 50-clique, not a
  // 5-clique, and selecting by the unweighted count wrecks fill on
  // supernode-rich graphs (~30% on the pre2 stand-in).
  std::vector<index_t> weight(n, 1);

  // amd.compress_degree's grid: the live vertices in id order, compacted
  // from the previous list on every pass.
  std::vector<index_t> live_verts(static_cast<std::size_t>(n));
  std::iota(live_verts.begin(), live_verts.end(), 0);

  std::size_t live = 0;
  std::size_t peak = g.adj.size();
  const double cap =
      opt.densify_cap *
      static_cast<double>(std::max<std::size_t>(g.adj.size(), 64));

  Permutation order;
  order.reserve(n);
  std::vector<bool> ordered(n, false);
  index_t fallback_at = -1;
  index_t rounds = 0;
  std::uint64_t select_pairs = 0;
  index_t merged_total = 0;
  index_t alive_count = n;
  index_t dmin = 0;

  // The round hash is recomputed from (seed, round, v) wherever two
  // priorities are compared; no per-vertex hash array exists.
  auto hash = [&](index_t v) {
    return splitmix64(opt.seed ^ (static_cast<std::uint64_t>(rounds) << 32) ^
                      static_cast<std::uint64_t>(v));
  };
  auto prio_less = [&](index_t x, index_t y) {
    if (deg[x] != deg[y]) return deg[x] < deg[y];
    const std::uint64_t hx = hash(x), hy = hash(y);
    if (hx != hy) return hx < hy;
    return x < y;
  };

  // --- amd.compress_degree: the round's one pass over adjacency --------
  const auto compress_degree = [&] {
    // Called only while a vertex is alive, so the grid is never empty.
    const std::uint64_t scanned = live_verts.size();
    std::erase_if(live_verts, [&](index_t v) { return !alive[v]; });
    const auto blocks = static_cast<std::int64_t>(live_verts.size());
    std::vector<std::size_t> kept(live_verts.size(), 0);
    dev.launch({.name = "amd.compress_degree",
                .blocks = blocks,
                .threads_per_block = kThreadsPerBlock,
                .warp_efficiency = warp_eff},
               [&](std::int64_t b, gpusim::KernelContext& ctx) {
                 const index_t v = live_verts[static_cast<std::size_t>(b)];
                 auto& av = adj[v];
                 const std::uint64_t work = share(scanned, b, blocks) +
                                            av.size();
                 std::size_t w = 0;
                 index_t d = 0;
                 for (index_t u : av) {
                   if (!alive[u]) continue;
                   av[w++] = u;
                   d += weight[u];
                 }
                 av.resize(w);
                 kept[static_cast<std::size_t>(b)] = w;
                 deg[v] = d;
                 ctx.add_ops(work);
               });
    dmin = std::numeric_limits<index_t>::max();
    for (index_t v : live_verts) dmin = std::min(dmin, deg[v]);  // commutative
    live = std::accumulate(kept.begin(), kept.end(), std::size_t{0});
    peak = std::max(peak, live);
  };

  compress_degree();
  while (alive_count > 0) {
    if (static_cast<double>(live) > cap) {
      fallback_at = static_cast<index_t>(order.size());
      break;
    }
    ++rounds;

    const index_t thresh = static_cast<index_t>(
        (1.0 + kDegreeSlack) * static_cast<double>(dmin));
    auto is_candidate = [&](index_t v) { return alive[v] && deg[v] <= thresh; };

    // --- amd.candidates: one block per live vertex flags the window ----
    std::vector<char> in_window(live_verts.size(), 0);
    dev.launch({.name = "amd.candidates",
                .blocks = static_cast<std::int64_t>(live_verts.size()),
                .threads_per_block = kThreadsPerBlock},
               [&](std::int64_t b, gpusim::KernelContext& ctx) {
                 const auto k = static_cast<std::size_t>(b);
                 in_window[k] = deg[live_verts[k]] <= thresh ? 1 : 0;
                 ctx.add_ops(1);
               });

    // --- amd.select: distance-2 priority contest -----------------------
    // Candidate c's (c, adj[c][k]) pairs are blocks [pair_ptr[c],
    // pair_ptr[c + 1]). A block reads no other block's result, so it
    // stops early only on its own loss; losses meet in `lost`, an
    // order-independent OR.
    std::vector<index_t> cands;
    for (std::size_t k = 0; k < live_verts.size(); ++k) {
      if (in_window[k]) cands.push_back(live_verts[k]);
    }
    std::vector<std::size_t> pair_ptr(cands.size() + 1, 0);
    for (std::size_t c = 0; c < cands.size(); ++c) {
      pair_ptr[c + 1] = pair_ptr[c] + adj[cands[c]].size();
    }
    const std::uint64_t scanned = cands.size();
    const auto pairs = static_cast<std::int64_t>(pair_ptr.back());
    const std::int64_t select_blocks = std::max<std::int64_t>(1, pairs);
    select_pairs += static_cast<std::uint64_t>(pairs);
    std::vector<std::atomic<std::uint8_t>> lost(cands.size());
    dev.launch({.name = "amd.select",
                .blocks = select_blocks,
                .threads_per_block = kThreadsPerBlock,
                .warp_efficiency = warp_eff},
               [&](std::int64_t b, gpusim::KernelContext& ctx) {
                 std::uint64_t work = share(scanned, b, select_blocks);
                 if (b < pairs) {
                   const auto pair = static_cast<std::size_t>(b);
                   const auto c = static_cast<std::size_t>(
                       std::upper_bound(pair_ptr.begin(), pair_ptr.end(),
                                        pair) -
                       pair_ptr.begin() - 1);
                   const index_t v = cands[c];
                   const index_t u = adj[v][pair - pair_ptr[c]];
                   ++work;
                   bool loss = is_candidate(u) && prio_less(u, v);
                   for (auto w = adj[u].begin(); !loss && w != adj[u].end();
                        ++w) {
                     ++work;
                     loss = *w != v && is_candidate(*w) && prio_less(*w, v);
                   }
                   if (loss) lost[c].store(1, std::memory_order_relaxed);
                 }
                 ctx.add_ops(work);
               });

    // Winners in id order: deterministic because the loss flags are.
    std::vector<index_t> winners;
    for (std::size_t c = 0; c < cands.size(); ++c) {
      if (lost[c].load(std::memory_order_relaxed) == 0) {
        winners.push_back(cands[c]);
      }
    }
    E2ELU_CHECK_MSG(!winners.empty(),
                    "parallel AMD round produced no winner — the global "
                    "minimum-priority candidate cannot lose");

    for (index_t v : winners) {
      order.push_back(v);
      ordered[v] = true;
      for (index_t m : members[v]) {
        order.push_back(m);
        ordered[m] = true;
      }
      alive[v] = 0;
      --alive_count;
    }

    // --- amd.eliminate: one block per (winner, clique member) ----------
    // Distance-2 independence => each clique member u belongs to exactly
    // one winner's clique, so exactly one block rebuilds adj[u]; the
    // winners' own lists are only read. Winner w's members are blocks
    // [clique_ptr[w], clique_ptr[w + 1]).
    std::vector<std::size_t> clique_ptr(winners.size() + 1, 0);
    for (std::size_t w = 0; w < winners.size(); ++w) {
      clique_ptr[w + 1] = clique_ptr[w] + adj[winners[w]].size();
    }
    std::vector<std::uint64_t> signature(clique_ptr.back());
    dev.launch(
        {.name = "amd.eliminate",
         .blocks = static_cast<std::int64_t>(clique_ptr.back()),
         .threads_per_block = kThreadsPerBlock,
         .warp_efficiency = warp_eff},
        [&](std::int64_t b, gpusim::KernelContext& ctx) {
          const auto pair = static_cast<std::size_t>(b);
          const auto w = static_cast<std::size_t>(
              std::upper_bound(clique_ptr.begin(), clique_ptr.end(), pair) -
              clique_ptr.begin() - 1);
          const index_t v = winners[w];
          const std::vector<index_t>& clique = adj[v];  // sorted, all live
          const index_t u = clique[pair - clique_ptr[w]];
          // adj[u] := (adj[u] \ {v}) ∪ (clique \ {u}), sorted merge.
          const auto& au = adj[u];
          std::vector<index_t> merged;
          merged.reserve(au.size() + clique.size());
          std::size_t x = 0, y = 0;
          while (x < au.size() || y < clique.size()) {
            index_t cand;
            if (y == clique.size() ||
                (x < au.size() && au[x] < clique[y])) {
              cand = au[x++];
            } else if (x == au.size() || clique[y] < au[x]) {
              cand = clique[y++];
            } else {
              cand = au[x];
              ++x;
              ++y;
            }
            if (cand != v && cand != u) merged.push_back(cand);
          }
          std::uint64_t work = au.size() + clique.size();
          adj[u] = std::move(merged);
          // Commutative closed-neighborhood hash: equal sets hash equal.
          std::uint64_t h = splitmix64(static_cast<std::uint64_t>(u));
          for (index_t z : adj[u]) {
            h += splitmix64(static_cast<std::uint64_t>(z));
          }
          work += adj[u].size();
          signature[pair] = h;
          ctx.add_ops(work);
        });

    // --- amd.supernode: one block per winner ---------------------------
    // Exact verification of each equal-hash group against its smallest
    // id, then the merge; every vertex touched is in this winner's clique.
    std::vector<index_t> round_merged(winners.size(), 0);
    dev.launch(
        {.name = "amd.supernode",
         .blocks = static_cast<std::int64_t>(winners.size()),
         .threads_per_block = kThreadsPerBlock,
         .warp_efficiency = warp_eff},
        [&](std::int64_t b, gpusim::KernelContext& ctx) {
          const auto w = static_cast<std::size_t>(b);
          const index_t v = winners[w];
          std::uint64_t work = 0;
          std::vector<std::pair<std::uint64_t, index_t>> sig;
          sig.reserve(adj[v].size());
          for (std::size_t k = 0; k < adj[v].size(); ++k) {
            sig.emplace_back(signature[clique_ptr[w] + k], adj[v][k]);
          }
          std::sort(sig.begin(), sig.end());
          auto closed_equal = [&](index_t p, index_t q) {
            // N[p] == N[q] <=> p in adj[q], q in adj[p], and the lists
            // agree once each other's entry is skipped.
            const auto& ap = adj[p];
            const auto& aq = adj[q];
            if (ap.size() != aq.size()) return false;
            std::size_t i = 0, j = 0;
            bool saw_q = false, saw_p = false;
            while (i < ap.size() || j < aq.size()) {
              if (i < ap.size() && ap[i] == q) {
                saw_q = true;
                ++i;
                continue;
              }
              if (j < aq.size() && aq[j] == p) {
                saw_p = true;
                ++j;
                continue;
              }
              if (i == ap.size() || j == aq.size() || ap[i] != aq[j]) {
                return false;
              }
              ++i;
              ++j;
            }
            return saw_p && saw_q;
          };
          index_t merged_here = 0;
          for (std::size_t i = 0; i < sig.size();) {
            std::size_t j = i + 1;
            while (j < sig.size() && sig[j].first == sig[i].first) ++j;
            const index_t rep = sig[i].second;  // smallest id in the group
            for (std::size_t k = i + 1; k < j; ++k) {
              const index_t u = sig[k].second;
              work += adj[u].size();
              if (!alive[u] || !closed_equal(rep, u)) continue;
              members[rep].push_back(u);
              members[rep].insert(members[rep].end(), members[u].begin(),
                                  members[u].end());
              members[u].clear();
              weight[rep] += weight[u];  // rep and u owned by this block
              alive[u] = 0;
              adj[u].clear();
              ++merged_here;
            }
            i = j;
          }
          round_merged[w] = merged_here;
          adj[v].clear();
          ctx.add_ops(work);
        });
    for (index_t m : round_merged) {
      merged_total += m;
      alive_count -= m;
    }

    if (alive_count > 0) compress_degree();
  }

  if (fallback_at >= 0) {
    // Densification guard tripped: order everything not yet ordered
    // (live vertices plus pending supernode members) by RCM on the
    // original symmetrized graph — same fallback as the serial path.
    std::uint64_t tail_ops = 0;
    const Permutation tail = rcm_on_graph(g, n, ordered, tail_ops);
    dev.launch({.name = "amd.rcm_fallback",
                .blocks = blocks_for(n),
                .threads_per_block = static_cast<int>(kVertsPerBlock),
                .warp_efficiency = warp_eff},
               [&](std::int64_t b, gpusim::KernelContext& ctx) {
                 if (b == 0) ctx.add_ops(tail_ops);
               });
    order.insert(order.end(), tail.begin(), tail.end());
  }
  E2ELU_CHECK(static_cast<index_t>(order.size()) == n);

  st.peak_adjacency = peak;
  st.rcm_fallback_at = fallback_at;
  st.rounds = rounds;
  st.select_pairs = select_pairs;
  st.supernodes_merged = merged_total;
  return order;
}

}  // namespace

Permutation parallel_min_degree_ordering(gpusim::Device& dev, const Csr& a,
                                         const PreprocessOptions& opt,
                                         MinDegreeStats* stats) {
  trace::Span span("preprocess.ordering", dev,
                   {{"method", "parallel_amd"}, {"n", a.n}});
  const index_t n = a.n;
  if (n == 0) return {};

  const gpusim::DeviceStats base = dev.snapshot();
  const SymGraph g = parallel_symmetrize(dev, a);
  const double avg_deg =
      static_cast<double>(g.adj.size()) / std::max<index_t>(n, 1);
  const double warp_eff = dev.spec().simt_efficiency(std::max(avg_deg, 1.0));
  MinDegreeStats st;
  Permutation order = amd_rounds(dev, g, n, opt, warp_eff, st);
  span.attr("rounds", st.rounds);
  span.attr("select_pairs", st.select_pairs);

  // --- ord.fillgate: exact fill-quality gate over two candidates -------
  // The rounds trade the serial oracle's one-pivot-at-a-time re-pick for
  // parallelism, and on strongly banded patterns the randomized
  // tie-breaking costs 10-20% fill where the oracle's id-order sweep is
  // near-optimal. Rather than tune tie-breaking per pattern class, also
  // build the RCM candidate and keep whichever ordering's exact fill is
  // smaller (ties prefer AMD). Each count is symbolic's stage-1 pass on
  // the permuted pattern, and both are deterministic, so the pick is too.
  const double gate_start_us = dev.stats().sim_total_us();
  std::uint64_t rcm_ops = 0;
  Permutation rcm =
      rcm_on_graph(g, n, std::vector<bool>(static_cast<std::size_t>(n), false),
                   rcm_ops);
  dev.launch({.name = "ord.rcm_candidate",
              .blocks = blocks_for(n),
              .threads_per_block = static_cast<int>(kVertsPerBlock),
              .warp_efficiency = warp_eff},
             [&](std::int64_t b, gpusim::KernelContext& ctx) {
               if (b == 0) ctx.add_ops(rcm_ops);
             });
  Csr pattern = a;
  pattern.values.clear();
  const auto gate_fill = [&](const Permutation& p,
                             std::vector<index_t>& counts) {
    return symbolic::count_fill_out_of_core(
        dev, parallel_permute(dev, pattern, p, p, "ord.gate_permute"),
        "ord.fillgate", &counts);
  };
  std::vector<index_t> rcm_counts;
  st.gate_fill_amd = gate_fill(order, st.fill_counts);
  st.gate_fill_rcm = gate_fill(rcm, rcm_counts);
  const bool pick_rcm = st.gate_fill_rcm < st.gate_fill_amd;
  if (pick_rcm) {
    order = std::move(rcm);
    st.fill_counts = std::move(rcm_counts);
  }
  st.gate_sim_us = dev.stats().sim_total_us() - gate_start_us;
  span.attr("fill_amd", st.gate_fill_amd);
  span.attr("fill_rcm", st.gate_fill_rcm);
  span.attr("pick", pick_rcm ? "rcm" : "amd");
  trace::MetricsRegistry::global()
      .counter("preprocess.ordering.rcm_picks")
      .add(pick_rcm ? 1 : 0);

  st.ops = dev.stats().kernel_ops - base.kernel_ops;
  if (stats) *stats = std::move(st);
  return order;
}

}  // namespace e2elu::preprocess
