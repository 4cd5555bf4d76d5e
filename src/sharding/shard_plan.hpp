// Shard planning: partitioning one factorization's elimination forest
// across the members of a gpusim::DeviceGroup.
//
// The column dependency graph of a filled pattern (scheduling/levelize)
// decomposes into weakly-connected components — for the blocked-planar
// huge-mesh stand-ins (Table 4) these are the thousands of structurally
// independent diagonal blocks, which shard with *zero* cross-device
// coupling. A footprint-balancing greedy packer assigns whole components
// to devices (largest first, least-loaded device wins), so each member
// holds roughly factor_footprint / N bytes and executes roughly 1/N of
// every level's columns.
//
// Matrices that do not separate — circuit-style patterns whose hub
// columns (power/ground rails) weld everything into one giant component —
// take the irregular-blocking fallback (after the Structure-Aware
// Irregular Blocking strategy in PAPERS.md): the hub component's columns
// are carved into contiguous index *blocks* of balanced footprint, one
// run of blocks per device, so locality bounds the dependency cut instead
// of component boundaries. Every dependency edge that still crosses
// shards becomes an explicit peer transfer at the producing level's
// boundary (see sharded_factorizer.cpp).
#pragma once

#include <cstdint>
#include <vector>

#include "matrix/csr.hpp"
#include "scheduling/levelize.hpp"

namespace e2elu::sharding {

struct ShardPlan {
  int num_devices = 0;
  std::vector<int> owner;  ///< per column: owning device index
  /// Per device: owned columns in ascending order.
  std::vector<std::vector<index_t>> device_cols;
  /// Per device: factor footprint bytes of the owned columns (CSC column
  /// values + row indices).
  std::vector<std::uint64_t> device_bytes;
  index_t num_components = 0;  ///< weakly-connected dependency components
  offset_t cross_edges = 0;    ///< dependency edges crossing shards
  offset_t total_edges = 0;
  bool irregular_fallback = false;  ///< hub component was block-carved

  /// Load balance: heaviest device over mean (1.0 = perfect).
  double balance() const;
};

/// Per-column factor footprint: CSC column nnz * (value + row index).
/// Computed from the filled CSR pattern.
std::vector<std::uint64_t> column_footprint_bytes(const Csr& filled);

/// Builds the partition of `filled`'s dependency graph `g` over
/// `num_devices` devices.
ShardPlan build_shard_plan(const scheduling::DependencyGraph& g,
                           const Csr& filled, int num_devices);

/// Trivial plan: every column on device `device` of an `num_devices`-member
/// group (the degraded / single-survivor path).
ShardPlan single_shard_plan(const Csr& filled, int num_devices, int device);

/// Coarse elapsed-time model for the sharded numeric phase vs the same
/// work on one device, from per-level per-device op estimates plus the
/// peer traffic the cut edges imply. Used by the degrade decision — the
/// factorizer falls back to one device when sharding is not predicted to
/// pay. Returns {single_device_us, sharded_us}.
struct ShardEstimate {
  double single_us = 0;
  double sharded_us = 0;
  double predicted_speedup() const {
    return sharded_us <= 0 ? 1.0 : single_us / sharded_us;
  }
};
ShardEstimate estimate_sharded_numeric(const ShardPlan& plan,
                                       const scheduling::DependencyGraph& g,
                                       const Csr& filled,
                                       const scheduling::LevelSchedule& s,
                                       const gpusim::DeviceSpec& spec,
                                       double peer_bandwidth_gbps,
                                       double peer_latency_us);

}  // namespace e2elu::sharding
