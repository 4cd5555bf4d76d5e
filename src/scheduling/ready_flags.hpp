// The sync-free protocol every fused (multi-level) launch runs: numeric
// clusters and triangular-solve clusters alike.
//
// A fused launch covers several consecutive levels; its blocks replace the
// inter-level kernel boundary with per-item ready flags: a block first
// waits for the flags of its item's in-cluster predecessors, does its work,
// then publishes its own flag. An item is whatever one block owns — a
// factor column, a solve row, a (row, rhs) pair of a batched solve.
//
// Deadlock freedom: predecessors live on strictly earlier levels, i.e. at
// strictly lower block indices of the same grid, and the ThreadPool claims
// block ranges in ascending order — so the lowest unfinished block never
// waits on unfinished work. On a single worker the blocks simply run in
// order.
//
// Abort protocol: a block that throws (zero pivot, singular diagonal,
// injected fault) sets the shared failed flag plus its own ready flag
// before rethrowing, so spinning blocks drain instead of hanging while the
// pool propagates the exception.
//
// Chain accounting: each block's chain is its own ops plus the longest
// chain among the in-cluster predecessors it waited on. Those have retired
// before the block reads their chain, so the value is exact and
// independent of thread scheduling. The longest chain of a launch, run at
// one block's rate, is a lower bound on its kernel time that the fused
// charge (total ops at the cluster-wide grid's occupancy) ignores —
// launch() records both so the gap is measurable.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "gpusim/device.hpp"

namespace e2elu::scheduling {

/// A fused launch's kernel time as charged (Device::launch: total ops at
/// the fused grid's occupancy) next to its longest dependency chain run at
/// one block's rate (gpu_ops_per_us / max_concurrent_blocks x warp
/// efficiency). chain_us > charged_us means the charge is optimistic.
struct FusedCost {
  double chain_us = 0;
  double charged_us = 0;
};

class ReadyFlags {
 public:
  /// Flags for items [0, items), all pending. Each item retires at most
  /// once, so one object serves every fused launch of one factorization
  /// or one solve sweep.
  explicit ReadyFlags(std::size_t items)
      : ready_(std::make_unique<std::atomic<std::uint8_t>[]>(items)),
        chain_(std::make_unique<std::uint64_t[]>(items)) {}

  /// Runs one block of a fused launch for `item`. `preds(wait)` calls
  /// wait(p) for every in-cluster predecessor p (charging any ops for the
  /// checks to `ctx` itself); `work()` then runs — unless another block
  /// has failed — and reports its ops to `ctx`.
  template <class Preds, class Work>
  void run_block(std::size_t item, gpusim::KernelContext& ctx, Preds&& preds,
                 Work&& work) {
    const std::uint64_t ops_before = ctx.ops();
    std::uint64_t pred_chain = 0;
    preds([&](std::size_t p) {
      while (ready_[p].load(std::memory_order_acquire) == 0) {
        if (failed_.load(std::memory_order_relaxed)) return;
        std::this_thread::yield();
      }
      pred_chain = std::max(pred_chain, chain_[p]);
    });
    if (!failed_.load(std::memory_order_relaxed)) {
      try {
        work();
      } catch (...) {
        failed_.store(true, std::memory_order_relaxed);
        ready_[item].store(1, std::memory_order_release);
        throw;
      }
    }
    const std::uint64_t chain = ctx.ops() - ops_before + pred_chain;
    chain_[item] = chain;
    std::uint64_t longest = longest_.load(std::memory_order_relaxed);
    while (chain > longest &&
           !longest_.compare_exchange_weak(longest, chain,
                                           std::memory_order_relaxed)) {
    }
    ready_[item].store(1, std::memory_order_release);
  }

  /// Issues `cfg` — a fused cluster whose blocks call run_block — on
  /// `dev`, records the cost pair as the model.fusion.chain_us and
  /// model.fusion.charged_us histograms, and returns it. Charged time is
  /// exactly what Device::launch adds; nothing here changes it.
  FusedCost launch(gpusim::Device& dev, const gpusim::LaunchConfig& cfg,
                   const gpusim::KernelBody& body);

 private:
  std::unique_ptr<std::atomic<std::uint8_t>[]> ready_;
  std::unique_ptr<std::uint64_t[]> chain_;
  std::atomic<bool> failed_{false};
  std::atomic<std::uint64_t> longest_{0};  ///< of the launch in flight
};

}  // namespace e2elu::scheduling
