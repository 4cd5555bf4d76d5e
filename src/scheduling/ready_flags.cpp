#include "scheduling/ready_flags.hpp"

#include "trace/metrics.hpp"

namespace e2elu::scheduling {

FusedCost ReadyFlags::launch(gpusim::Device& dev,
                             const gpusim::LaunchConfig& cfg,
                             const gpusim::KernelBody& body) {
  longest_.store(0, std::memory_order_relaxed);
  const double kernel_before = dev.stats().sim_kernel_us;
  dev.launch(cfg, body);

  const gpusim::DeviceSpec& spec = dev.spec();
  const double block_rate =
      spec.gpu_ops_per_us / spec.max_concurrent_blocks * cfg.warp_efficiency;
  FusedCost cost;
  cost.chain_us =
      static_cast<double>(longest_.load(std::memory_order_relaxed)) /
      block_rate;
  cost.charged_us = dev.stats().sim_kernel_us - kernel_before;
  auto& registry = trace::MetricsRegistry::global();
  registry.histogram("model.fusion.chain_us").record(cost.chain_us);
  registry.histogram("model.fusion.charged_us").record(cost.charged_us);
  return cost;
}

}  // namespace e2elu::scheduling
