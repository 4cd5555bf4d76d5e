// ShardedFactorizer: one factorization spread across the members of a
// gpusim::DeviceGroup.
//
// It runs SparseLU's pipeline on member 0 with a group executor as the
// numeric stage, so pre-processing, symbolic and levelization follow
// every Options field exactly as a lone device would. The group executor
// then plans the shards — elimination-forest components packed per
// device (sharding/shard_plan.hpp), with the irregular-blocking hub
// fallback and a model-based degrade decision — and executes each level
// as one kernel per (level, device) on that device's own stream;
// cross-shard update contributions ship as explicit peer transfers at
// the producing level's boundary, ordered by events.
//
// Bit-exactness invariant (test- and bench-gated): sharded factors are
// memcmp-identical to single-device factors. The group executor applies
// the exact same column kernels (numeric::detail::process_column_sparse)
// in the exact global level-order a single device with a serial pool
// uses; devices model *time*, not arithmetic. Sharding therefore can
// never change an answer, only the simulated clock. Solve with
// SparseLU::solve.
//
// Fault recovery goes through SparseLU's shared helper: a member that
// fails (injected OOM on its shard upload, launch failure on its kernels)
// is dropped and the shards re-pack onto the survivors; with one survivor
// the run degrades to single-device. Exhausting every member throws a
// structured FactorError — never a hang.
#pragma once

#include <vector>

#include "core/sparse_lu.hpp"
#include "gpusim/device_group.hpp"
#include "sharding/shard_plan.hpp"

namespace e2elu::sharding {

struct ShardingOptions {
  /// Group size (simulated devices).
  int num_devices = 4;
  gpusim::PeerSpec peer;
  /// Degrade to one device unless the model predicts sharding beats it by
  /// at least 10% (kDegradeMargin). Hub-coupled matrices whose cut
  /// traffic would eat the parallel win take this path — "no worse than
  /// one device" by construction, since a one-member run charges exactly
  /// the single-device cost model.
  bool allow_degrade = true;
};

/// Per-factorize sharding report.
struct ShardReport {
  int devices_used = 0;          ///< members that executed numeric work
  index_t num_components = 0;    ///< elimination-forest components found
  offset_t cross_edges = 0;      ///< dependency edges crossing shards
  double balance = 1.0;          ///< heaviest device / mean footprint
  bool irregular_fallback = false;  ///< hub component was block-carved
  bool degraded = false;            ///< ran on one member
  int repacks = 0;                  ///< fault-recovery re-partitions
  std::vector<int> failed_devices;  ///< members dropped by recovery
  double predicted_speedup = 1.0;   ///< model estimate behind the decision

  /// Numeric-phase DeviceStats delta per member (index = member id).
  /// Summed with `peer`, these tile the group's numeric-phase delta
  /// exactly (test-enforced).
  std::vector<gpusim::DeviceStats> device_deltas;
  gpusim::PeerStats peer;  ///< numeric-phase peer-transfer totals
};

class ShardedFactorizer {
 public:
  ShardedFactorizer(Options base, ShardingOptions sharding = {});

  /// Full pipeline; factors are bit-identical to SparseLU::factorize with
  /// the same base options on one device. device_stats totals the group.
  FactorResult factorize(const Csr& a);
  FactorResult factorize(const Csr& a, ShardReport& report);

  gpusim::DeviceGroup& group() { return group_; }
  const gpusim::DeviceGroup& group() const { return group_; }

 private:
  Options base_;
  ShardingOptions sharding_;
  gpusim::DeviceGroup group_;
};

}  // namespace e2elu::sharding
