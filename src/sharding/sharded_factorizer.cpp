#include "sharding/sharded_factorizer.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <utility>

#include "numeric/column_kernel.hpp"
#include "support/check.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu::sharding {

namespace {

constexpr std::uint64_t kPerUpdateBytes = sizeof(value_t) + sizeof(index_t);

/// The degrade decision shards only when the model predicts the sharded
/// numeric phase at under this fraction of the single-device estimate.
constexpr double kDegradeMargin = 0.9;

/// SparseLU's numeric stage over a device group: plans the shards, runs
/// every level as one charging kernel per member, and answers a member's
/// device fault by dropping it and re-packing onto the survivors.
class GroupExecutor final : public NumericExecutor {
 public:
  GroupExecutor(gpusim::DeviceGroup& group, const ShardingOptions& sharding,
                ShardReport& report)
      : group_(group), sharding_(sharding), report_(report) {}

  void plan(const NumericStage& stage) override {
    stage_.emplace(stage);
    for (int d = 0; d < group_.size(); ++d) {
      member_before_.push_back(group_.device(d).snapshot());
    }
    peer_before_ = group_.peer_total();
    active_.resize(static_cast<std::size_t>(group_.size()));
    std::iota(active_.begin(), active_.end(), 0);
    replan();
  }

  numeric::NumericStats run(numeric::FactorMatrix& m,
                            const scheduling::LevelSchedule& s) override {
    if (!level_plan_) {
      // Pattern-only: survives value rebuilds and re-partitions. Fusion
      // stays off — the per-level path is the bit-exactness reference.
      level_plan_.emplace(
          numeric::build_level_plan(m, s, group_.device(0).spec()));
    }
    trace::Span span("numeric.sharded", group_.device(0),
                     {{"devices", static_cast<index_t>(active_.size())},
                      {"levels", s.num_levels()},
                      {"components", plan_.num_components},
                      {"cross_edges", plan_.cross_edges}});
    failed_device_ = -1;
    numeric::NumericStats stats;
    const std::size_t nd = active_.size();
    E2ELU_CHECK_MSG(plan_.num_devices == static_cast<int>(nd),
                    "shard plan does not match devices");

    // Shard residency: each member allocates and receives its columns'
    // footprint. The allocation and upload are the member's fault surface
    // — failed_device_ names whom on_device_fault must drop if this
    // throws.
    std::vector<gpusim::RawDeviceAllocation> shard_mem;
    shard_mem.reserve(nd);
    for (std::size_t p = 0; p < nd; ++p) {
      failed_device_ = active_[p];
      gpusim::Device& dev = group_.device(active_[p]);
      const auto bytes = static_cast<std::size_t>(plan_.device_bytes[p]);
      shard_mem.emplace_back(dev, bytes);
      dev.copy_h2d(bytes);
    }
    failed_device_ = -1;

    // One stream per member: each device's level kernels queue on its own
    // timeline; cross-shard dependencies order them via the peer copies.
    std::vector<std::unique_ptr<gpusim::Stream>> streams;
    std::vector<std::string> names;  // stable storage for LaunchConfig::name
    for (const int d : active_) {
      streams.push_back(std::make_unique<gpusim::Stream>(group_.device(d)));
      names.push_back("shard_numeric_dev" + std::to_string(d));
    }

    std::vector<std::uint64_t> dev_ops(nd);
    std::vector<index_t> dev_width(nd);
    std::vector<std::uint64_t> peer_bytes(nd * nd);  // [src * nd + dst]

    for (index_t l = 0; l < s.num_levels(); ++l) {
      std::fill(dev_ops.begin(), dev_ops.end(), 0);
      std::fill(dev_width.begin(), dev_width.end(), 0);
      std::fill(peer_bytes.begin(), peer_bytes.end(), 0);

      // Column bodies execute inline in global level_cols order — the
      // exact arithmetic and order of a single device with a serial pool,
      // which is what makes the factors bit-identical (the devices below
      // model time only). The hook tallies contributions whose target
      // column lives on another member: that L column must cross the
      // peer link.
      for (index_t k = s.level_ptr[l]; k < s.level_ptr[l + 1]; ++k) {
        const index_t j = s.level_cols[k];
        const auto pj = static_cast<std::size_t>(plan_.owner[j]);
        const std::uint64_t ops = numeric::detail::process_column_sparse(
            m, j, [&](index_t target, offset_t l_len) {
              const auto pk = static_cast<std::size_t>(plan_.owner[target]);
              if (pk != pj) {
                peer_bytes[pj * nd + pk] +=
                    static_cast<std::uint64_t>(l_len) * kPerUpdateBytes;
              }
            });
        dev_ops[pj] += ops;
        ++dev_width[pj];
        stats.ops += ops;
      }

      // Charge each member's share of the level as one kernel on its
      // stream.
      for (std::size_t p = 0; p < nd; ++p) {
        if (dev_width[p] == 0) continue;
        const std::uint64_t ops = dev_ops[p];
        failed_device_ = active_[p];
        group_.device(active_[p])
            .launch({.name = names[p].c_str(),
                     .blocks = dev_width[p],
                     .threads_per_block = 256,
                     .warp_efficiency = level_plan_->warp_eff[l],
                     .stream = streams[p].get()},
                    [&](std::int64_t b, gpusim::KernelContext& ctx) {
                      if (b == 0) ctx.add_ops(ops);
                    });
        failed_device_ = -1;
      }

      // Ship the level's cross-shard contributions. peer_copy_async
      // orders the consumer's stream after the producer's (the event
      // wait), so the consumer's next-level kernel cannot start before the
      // data lands.
      for (std::size_t src = 0; src < nd; ++src) {
        for (std::size_t dst = 0; dst < nd; ++dst) {
          const std::uint64_t bytes = peer_bytes[src * nd + dst];
          if (bytes == 0) continue;
          group_.peer_copy_async(active_[src], active_[dst],
                                 static_cast<std::size_t>(bytes),
                                 *streams[src], *streams[dst]);
        }
      }
    }
    // Streams destruct here, folding their timelines into each member's
    // default timeline; clock_us()'s synchronize() then reads the group
    // completion clock.
    return stats;
  }

  Retry on_device_fault(const Fault&) override {
    if (failed_device_ < 0) return {};
    report_.failed_devices.push_back(failed_device_);
    active_.erase(std::find(active_.begin(), active_.end(), failed_device_));
    if (active_.empty()) return {};
    ++report_.repacks;
    replan();
    return {"sharding.repack", /*budgeted=*/false};
  }

  double clock_us() override { return group_.synchronize(); }
  std::uint64_t launches() const override {
    return group_.stats().devices.launches();
  }
  bool sparse() const override { return true; }

  /// Fills the report's per-member and peer deltas since plan().
  void record_deltas() {
    for (int d = 0; d < group_.size(); ++d) {
      report_.device_deltas.push_back(group_.device(d).stats().since(
          member_before_[static_cast<std::size_t>(d)]));
    }
    report_.peer = group_.peer_total().since(peer_before_);
  }

 private:
  /// Partitions the columns over the active members and takes the degrade
  /// decision.
  void replan() {
    const NumericStage& st = *stage_;
    plan_ = build_shard_plan(st.graph, st.filled,
                             static_cast<int>(active_.size()));
    const ShardEstimate est = estimate_sharded_numeric(
        plan_, st.graph, st.filled, st.schedule, group_.device(0).spec(),
        sharding_.peer.bandwidth_gbps, sharding_.peer.latency_us);
    report_.predicted_speedup = est.predicted_speedup();
    report_.num_components = plan_.num_components;
    report_.cross_edges = plan_.cross_edges;
    report_.irregular_fallback = plan_.irregular_fallback;
    report_.degraded = false;
    if (active_.size() > 1 && sharding_.allow_degrade &&
        est.sharded_us >= kDegradeMargin * est.single_us) {
      // Sharding is not predicted to pay (hub-coupled cut traffic, narrow
      // levels): run every column on one member — by construction no
      // worse than a lone device, since the cost model is then identical.
      active_.erase(active_.begin() + 1, active_.end());
      plan_ = single_shard_plan(st.filled, 1, 0);
      report_.degraded = true;
      trace::MetricsRegistry::global().counter("sharding.degrade").add(1);
    }
    report_.balance = plan_.balance();
    report_.devices_used = static_cast<int>(active_.size());
  }

  gpusim::DeviceGroup& group_;
  const ShardingOptions& sharding_;
  ShardReport& report_;
  std::optional<NumericStage> stage_;
  std::optional<numeric::LevelPlan> level_plan_;
  ShardPlan plan_;
  std::vector<int> active_;
  int failed_device_ = -1;
  std::vector<gpusim::DeviceStats> member_before_;
  gpusim::PeerStats peer_before_;
};

}  // namespace

ShardedFactorizer::ShardedFactorizer(Options base, ShardingOptions sharding)
    : base_(std::move(base)),
      sharding_(sharding),
      group_(base_.device, sharding.num_devices, sharding.peer) {
  if (base_.pool != nullptr) group_.use_pool(*base_.pool);
}

FactorResult ShardedFactorizer::factorize(const Csr& a) {
  ShardReport report;
  return factorize(a, report);
}

FactorResult ShardedFactorizer::factorize(const Csr& a, ShardReport& report) {
  report = ShardReport{};
  GroupExecutor numeric(group_, sharding_, report);
  FactorResult res = SparseLU(base_).factorize(a, group_.device(0), numeric);
  numeric.record_deltas();
  res.device_stats = group_.stats().devices;

  auto& metrics = trace::MetricsRegistry::global();
  metrics.gauge("sharding.devices_used").set(report.devices_used);
  metrics.gauge("sharding.components").set(report.num_components);
  metrics.gauge("sharding.cross_edges").set(report.cross_edges);
  metrics.gauge("sharding.balance").set(report.balance);
  metrics.gauge("sharding.predicted_speedup").set(report.predicted_speedup);
  metrics.counter("sharding.peer_bytes").add(report.peer.bytes);
  metrics.counter("sharding.peer_transfers").add(report.peer.transfers);
  return res;
}

}  // namespace e2elu::sharding
