#include "sharding/shard_plan.hpp"

#include <algorithm>
#include <numeric>

#include "support/check.hpp"

namespace e2elu::sharding {

namespace {

/// When the heaviest weakly-connected component carries more than this
/// fraction of the total column footprint, the planner switches that
/// component to irregular contiguous blocking (hub fallback) instead of
/// packing it whole onto one device.
constexpr double kHubComponentFraction = 0.5;

/// Union-find over columns; path-halving, union by size.
class UnionFind {
 public:
  explicit UnionFind(index_t n)
      : parent_(static_cast<std::size_t>(n)), size_(static_cast<std::size_t>(n), 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  index_t find(index_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite(index_t a, index_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<index_t> parent_;
  std::vector<index_t> size_;
};

}  // namespace

double ShardPlan::balance() const {
  if (device_bytes.empty()) return 1.0;
  std::uint64_t total = 0, heaviest = 0;
  for (const std::uint64_t b : device_bytes) {
    total += b;
    heaviest = std::max(heaviest, b);
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(device_bytes.size());
  return mean == 0 ? 1.0 : static_cast<double>(heaviest) / mean;
}

std::vector<std::uint64_t> column_footprint_bytes(const Csr& filled) {
  std::vector<std::uint64_t> bytes(static_cast<std::size_t>(filled.n), 0);
  constexpr std::uint64_t kPerEntry = sizeof(value_t) + sizeof(index_t);
  for (const index_t j : filled.col_idx) bytes[j] += kPerEntry;
  return bytes;
}

ShardPlan build_shard_plan(const scheduling::DependencyGraph& g,
                           const Csr& filled, int num_devices) {
  E2ELU_CHECK_MSG(num_devices >= 1, "shard plan needs >= 1 device");
  E2ELU_CHECK_MSG(g.n == filled.n, "dependency graph does not match pattern");
  const index_t n = g.n;
  ShardPlan plan;
  plan.num_devices = num_devices;
  plan.owner.assign(static_cast<std::size_t>(n), 0);
  plan.device_cols.resize(static_cast<std::size_t>(num_devices));
  plan.device_bytes.assign(static_cast<std::size_t>(num_devices), 0);
  plan.total_edges = g.num_edges();

  const std::vector<std::uint64_t> col_bytes = column_footprint_bytes(filled);

  // Weakly-connected components of the dependency graph (edges are stored
  // i -> j with i < j; connectivity ignores direction).
  UnionFind uf(n);
  for (index_t i = 0; i < n; ++i) {
    for (offset_t e = g.adj_ptr[i]; e < g.adj_ptr[i + 1]; ++e) {
      uf.unite(i, g.adj[e]);
    }
  }
  std::vector<index_t> comp_of(static_cast<std::size_t>(n));
  std::vector<index_t> root_to_comp(static_cast<std::size_t>(n), -1);
  index_t num_components = 0;
  for (index_t j = 0; j < n; ++j) {
    const index_t root = uf.find(j);
    if (root_to_comp[root] < 0) root_to_comp[root] = num_components++;
    comp_of[j] = root_to_comp[root];
  }
  plan.num_components = num_components;

  std::vector<std::uint64_t> comp_bytes(static_cast<std::size_t>(num_components), 0);
  std::uint64_t total_bytes = 0;
  for (index_t j = 0; j < n; ++j) {
    comp_bytes[comp_of[j]] += col_bytes[j];
    total_bytes += col_bytes[j];
  }

  // Hub fallback: a dominant component is carved into contiguous-index
  // blocks of balanced footprint instead of traveling whole.
  index_t hub = -1;
  if (num_components > 0 && num_devices > 1) {
    const index_t heaviest = static_cast<index_t>(
        std::max_element(comp_bytes.begin(), comp_bytes.end()) -
        comp_bytes.begin());
    if (static_cast<double>(comp_bytes[heaviest]) >
        kHubComponentFraction * static_cast<double>(total_bytes)) {
      hub = heaviest;
      plan.irregular_fallback = true;
    }
  }

  auto least_loaded = [&] {
    return static_cast<int>(
        std::min_element(plan.device_bytes.begin(), plan.device_bytes.end()) -
        plan.device_bytes.begin());
  };

  if (hub >= 0) {
    // Irregular blocking of the hub component: walk its columns in
    // ascending index order (elimination order — neighbors in the filled
    // pattern tend to be near each other after ordering) and cut a new
    // block whenever the running footprint passes an equal share. Each
    // device gets one contiguous run, so only the block seams cut edges.
    const std::uint64_t share = std::max<std::uint64_t>(
        1, comp_bytes[hub] / static_cast<std::uint64_t>(num_devices));
    std::uint64_t run = 0;
    int dev = 0;
    for (index_t j = 0; j < n; ++j) {
      if (comp_of[j] != hub) continue;
      if (run >= share && dev + 1 < num_devices) {
        ++dev;
        run = 0;
      }
      plan.owner[j] = dev;
      plan.device_bytes[dev] += col_bytes[j];
      run += col_bytes[j];
    }
  }

  // Greedy packing of the remaining components, largest footprint first,
  // onto the least-loaded device (hub blocks, if any, count as load).
  std::vector<index_t> order(static_cast<std::size_t>(num_components));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return comp_bytes[a] != comp_bytes[b] ? comp_bytes[a] > comp_bytes[b]
                                          : a < b;
  });
  std::vector<int> comp_owner(static_cast<std::size_t>(num_components), -1);
  for (const index_t c : order) {
    if (c == hub) continue;
    const int dev = least_loaded();
    comp_owner[c] = dev;
    plan.device_bytes[static_cast<std::size_t>(dev)] += comp_bytes[c];
  }
  for (index_t j = 0; j < n; ++j) {
    if (comp_of[j] != hub) plan.owner[j] = comp_owner[comp_of[j]];
  }

  for (index_t j = 0; j < n; ++j) {
    plan.device_cols[static_cast<std::size_t>(plan.owner[j])].push_back(j);
  }
  for (index_t i = 0; i < n; ++i) {
    for (offset_t e = g.adj_ptr[i]; e < g.adj_ptr[i + 1]; ++e) {
      if (plan.owner[i] != plan.owner[g.adj[e]]) ++plan.cross_edges;
    }
  }
  return plan;
}

ShardPlan single_shard_plan(const Csr& filled, int num_devices, int device) {
  E2ELU_CHECK_MSG(device >= 0 && device < num_devices,
                  "single-shard device out of range");
  ShardPlan plan;
  plan.num_devices = num_devices;
  plan.owner.assign(static_cast<std::size_t>(filled.n), device);
  plan.device_cols.resize(static_cast<std::size_t>(num_devices));
  plan.device_bytes.assign(static_cast<std::size_t>(num_devices), 0);
  auto& cols = plan.device_cols[static_cast<std::size_t>(device)];
  cols.resize(static_cast<std::size_t>(filled.n));
  std::iota(cols.begin(), cols.end(), 0);
  for (const std::uint64_t b : column_footprint_bytes(filled)) {
    plan.device_bytes[static_cast<std::size_t>(device)] += b;
  }
  plan.num_components = 1;
  return plan;
}

ShardEstimate estimate_sharded_numeric(const ShardPlan& plan,
                                       const scheduling::DependencyGraph& g,
                                       const Csr& filled,
                                       const scheduling::LevelSchedule& s,
                                       const gpusim::DeviceSpec& spec,
                                       double peer_bandwidth_gbps,
                                       double peer_latency_us) {
  const index_t n = filled.n;
  // Per-column flop proxy: (L length + 1) * (U row length + 1) — the
  // right-looking update volume shape.
  std::vector<std::uint64_t> lower_len(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> upper_len(static_cast<std::size_t>(n), 0);
  for (index_t i = 0; i < n; ++i) {
    for (const index_t j : filled.row_cols(i)) {
      if (j < i) {
        ++lower_len[j];  // entry (i, j) below the diagonal of column j
      } else if (j > i) {
        ++upper_len[i];  // strictly-upper entry of row i
      }
    }
  }
  auto col_ops = [&](index_t j) {
    return (lower_len[j] + 1) * (upper_len[j] + 1);
  };
  // Peer bytes a producing column ships per cross-shard out-edge: its L
  // column of (value, position) contributions.
  constexpr double kPerUpdate = sizeof(value_t) + sizeof(index_t);

  const double tp = spec.gpu_ops_per_us;
  auto occ = [&](index_t width) {
    return static_cast<double>(std::min<index_t>(
               std::max<index_t>(width, 1), spec.max_concurrent_blocks)) /
           spec.max_concurrent_blocks;
  };

  ShardEstimate est;
  const int nd = plan.num_devices;
  std::vector<std::uint64_t> dev_ops(static_cast<std::size_t>(nd));
  std::vector<index_t> dev_width(static_cast<std::size_t>(nd));
  std::vector<double> dev_peer(static_cast<std::size_t>(nd));
  for (index_t l = 0; l < s.num_levels(); ++l) {
    std::fill(dev_ops.begin(), dev_ops.end(), 0);
    std::fill(dev_width.begin(), dev_width.end(), 0);
    std::fill(dev_peer.begin(), dev_peer.end(), 0.0);
    std::uint64_t level_ops = 0;
    for (index_t k = s.level_ptr[l]; k < s.level_ptr[l + 1]; ++k) {
      const index_t j = s.level_cols[k];
      const std::uint64_t ops = col_ops(j);
      const int d = plan.owner[j];
      level_ops += ops;
      dev_ops[static_cast<std::size_t>(d)] += ops;
      ++dev_width[static_cast<std::size_t>(d)];
      // Cross-shard out-edges of j produce peer traffic into their
      // owners' inboxes; charge it on the destination's timeline.
      for (offset_t e = g.adj_ptr[j]; e < g.adj_ptr[j + 1]; ++e) {
        const int dst = plan.owner[g.adj[e]];
        if (dst != d) {
          dev_peer[static_cast<std::size_t>(dst)] +=
              static_cast<double>(lower_len[j]) * kPerUpdate /
              (peer_bandwidth_gbps * 1e3);
        }
      }
    }
    const index_t width = s.level_width(l);
    est.single_us +=
        spec.host_launch_us + static_cast<double>(level_ops) / (tp * occ(width));
    double worst = 0;
    for (int d = 0; d < nd; ++d) {
      if (dev_width[static_cast<std::size_t>(d)] == 0) continue;
      double t = spec.host_launch_us +
                 static_cast<double>(dev_ops[static_cast<std::size_t>(d)]) /
                     (tp * occ(dev_width[static_cast<std::size_t>(d)]));
      if (dev_peer[static_cast<std::size_t>(d)] > 0) {
        t += dev_peer[static_cast<std::size_t>(d)] + peer_latency_us;
      }
      worst = std::max(worst, t);
    }
    est.sharded_us += worst;
  }
  return est;
}

}  // namespace e2elu::sharding
