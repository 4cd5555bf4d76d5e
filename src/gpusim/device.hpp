// The simulated CUDA device: memory accounting, kernel execution, and
// simulated-time bookkeeping.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "gpusim/spec.hpp"
#include "support/check.hpp"

namespace e2elu {
class ThreadPool;
}

namespace e2elu::gpusim {

class Stream;

/// Thrown when a DeviceBuffer allocation would exceed DeviceSpec
/// memory_bytes. The out-of-core drivers size their chunks so this never
/// fires; tests assert that naive full-size allocation does fire.
class OutOfDeviceMemory : public Error {
 public:
  using Error::Error;
};

/// Thrown when a kernel launch fails (in practice: only under fault
/// injection — the simulated driver itself never loses a launch). Distinct
/// from OutOfDeviceMemory so recovery policies can retry the launch
/// without re-planning memory.
class LaunchFailure : public Error {
 public:
  using Error::Error;
};

/// Aggregated device counters and simulated time. All "sim_*" fields are
/// microseconds derived from measured counts via DeviceSpec rates.
struct DeviceStats {
  std::uint64_t host_launches = 0;
  std::uint64_t device_launches = 0;  ///< dynamic-parallelism child launches
  std::uint64_t kernel_ops = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint64_t page_faults = 0;        ///< individual page misses
  std::uint64_t page_fault_groups = 0;  ///< coalesced miss runs (nvprof-style)
  std::uint64_t prefetch_bytes = 0;
  std::uint64_t fused_launches = 0;  ///< launches covering >1 fused level
  std::uint64_t fused_levels = 0;    ///< logical levels folded into those

  double sim_kernel_us = 0;    ///< kernel work time
  double sim_launch_us = 0;    ///< launch overheads
  double sim_transfer_us = 0;  ///< explicit copies + prefetches
  double sim_fault_us = 0;     ///< page-fault service time

  /// Kernel time weighted by achieved occupancy: a 1-block kernel on a
  /// 160-block device contributes 1/160 of its sim_kernel_us. The gap
  /// between sim_kernel_us and this is the narrow-tail waste level fusion
  /// attacks.
  double sim_occupancy_us = 0;
  /// Overlap-aware wall clock: completion time of all work queued so far
  /// across the default timeline and every Stream. Equals sim_total_us()
  /// when no streams are used (everything serializes); strictly smaller
  /// when async launches overlap.
  double sim_elapsed_us = 0;

  /// Every kernel launch: host-issued plus dynamic-parallelism children.
  std::uint64_t launches() const { return host_launches + device_launches; }
  double sim_total_us() const {
    return sim_kernel_us + sim_launch_us + sim_transfer_us + sim_fault_us;
  }
  /// Mean achieved occupancy over all kernel time, in [0,1].
  double avg_occupancy() const {
    return sim_kernel_us == 0 ? 0.0 : sim_occupancy_us / sim_kernel_us;
  }
  /// Percentage of simulated time spent servicing page faults (Table 3).
  double fault_time_pct() const {
    const double total = sim_total_us();
    return total == 0 ? 0.0 : 100.0 * sim_fault_us / total;
  }
  /// Percentage of simulated time spent on data movement (Table 3's
  /// "pc. ooc" column counts explicit transfers for the out-of-core run).
  double transfer_time_pct() const {
    const double total = sim_total_us();
    return total == 0 ? 0.0 : 100.0 * sim_transfer_us / total;
  }

  /// Per-call accounting on a long-lived device: the counters accumulated
  /// since an earlier snapshot `before` of the same device. Used by the
  /// refactorization engine to attribute work to individual calls.
  DeviceStats since(const DeviceStats& before) const {
    DeviceStats d;
    d.host_launches = host_launches - before.host_launches;
    d.device_launches = device_launches - before.device_launches;
    d.kernel_ops = kernel_ops - before.kernel_ops;
    d.h2d_bytes = h2d_bytes - before.h2d_bytes;
    d.d2h_bytes = d2h_bytes - before.d2h_bytes;
    d.page_faults = page_faults - before.page_faults;
    d.page_fault_groups = page_fault_groups - before.page_fault_groups;
    d.prefetch_bytes = prefetch_bytes - before.prefetch_bytes;
    d.fused_launches = fused_launches - before.fused_launches;
    d.fused_levels = fused_levels - before.fused_levels;
    d.sim_kernel_us = sim_kernel_us - before.sim_kernel_us;
    d.sim_launch_us = sim_launch_us - before.sim_launch_us;
    d.sim_transfer_us = sim_transfer_us - before.sim_transfer_us;
    d.sim_fault_us = sim_fault_us - before.sim_fault_us;
    d.sim_occupancy_us = sim_occupancy_us - before.sim_occupancy_us;
    d.sim_elapsed_us = sim_elapsed_us - before.sim_elapsed_us;
    return d;
  }
};

/// Launch descriptor for one (possibly device-launched) kernel.
struct LaunchConfig {
  const char* name = "kernel";
  /// Grid size: number of thread blocks requested.
  std::int64_t blocks = 1;
  int threads_per_block = 256;
  /// Average useful lanes per warp_width-wide warp, in [0,1]. Kernels that
  /// scan sparse rows pass min(1, nnz_per_row / warp_width).
  double warp_efficiency = 1.0;
  /// True for dynamic-parallelism child launches (cheaper, Algorithm 5).
  bool from_device = false;
  /// Number of logical per-level launches folded into this one (level
  /// fusion). Launch overhead is charged once regardless of the value;
  /// values > 1 record the amortization in DeviceStats.
  int fused_levels = 1;
  /// Non-null: asynchronous launch ordered after prior work on that
  /// stream only (kernel time overlaps other streams; the host-side issue
  /// cost still serializes). Null: default-stream launch, a full barrier.
  Stream* stream = nullptr;
};

/// Per-launch execution context handed to the kernel body. The body runs
/// once per thread block (mapped onto host pool workers) and reports its
/// work through add_ops().
class KernelContext {
 public:
  /// Records `n` work items (edge visits, element updates, ...) performed
  /// by this block. Thread-safe: each pool worker owns its own counter.
  void add_ops(std::uint64_t n) { ops_ += n; }
  std::uint64_t ops() const { return ops_; }

 private:
  std::uint64_t ops_ = 0;
};

/// Kernel body: invoked once per block with (block_id, ctx).
using KernelBody = std::function<void(std::int64_t, KernelContext&)>;

class Device {
 public:
  explicit Device(DeviceSpec spec) : spec_(std::move(spec)) {}

  const DeviceSpec& spec() const { return spec_; }
  const DeviceStats& stats() const { return stats_; }

  /// Copy of the current counters, as a baseline for since()-based
  /// per-phase deltas. Counters are monotonic for the device's lifetime —
  /// there is deliberately no reset: nested consumers (tracer spans,
  /// Refactorizer reports, SparseLU phase accounting) each hold their own
  /// baseline snapshot, so none can clobber another's accounting the way
  /// a mid-pipeline reset would.
  DeviceStats snapshot() const { return stats_; }

  /// Bytes currently allocated on the device.
  std::size_t allocated_bytes() const {
    return allocated_.load(std::memory_order_relaxed);
  }
  std::size_t free_bytes() const {
    return spec_.memory_bytes - allocated_bytes();
  }

  /// Executes a kernel: runs `body` for every block on the host pool,
  /// gathers the work counters, and charges launch overhead plus
  /// ops / effective_throughput to simulated time.
  ///
  /// Effective throughput = gpu_ops_per_us
  ///                        * min(blocks, TB_max) / TB_max   (occupancy)
  ///                        * warp_efficiency.               (lane use)
  /// This is the expression behind §3.4: capping resident blocks below
  /// TB_max (the dense-format memory limit) directly scales time.
  void launch(const LaunchConfig& cfg, const KernelBody& body);

  /// Explicit host<->device copies (cudaMemcpy). Charged at PCIe rate.
  void copy_h2d(std::size_t bytes);
  void copy_d2h(std::size_t bytes);

  /// Asynchronous copies on a stream (cudaMemcpyAsync on pinned memory):
  /// ordered after prior work on `stream` only, so the PCIe time overlaps
  /// kernels running on other streams — the mechanism the out-of-core
  /// factor window uses to hide prefetch under compute. The host pays the
  /// enqueue cost (prefetch_call_us) on its issue cursor, exactly like an
  /// async kernel launch pays its launch cost.
  void copy_h2d_async(std::size_t bytes, Stream& stream);
  void copy_d2h_async(std::size_t bytes, Stream& stream);

  /// Unified-memory bookkeeping hooks (used by UnifiedBuffer).
  /// A "group" is a run of faults on adjacent pages, which the driver
  /// services together — the unit Table 3 counts and the unit that costs
  /// fault_group_us.
  void record_page_fault(bool starts_new_group);
  void record_prefetch(std::size_t bytes);

  /// Occupancy fraction a launch of `blocks` blocks achieves.
  double occupancy(std::int64_t blocks) const {
    const auto resident =
        std::min<std::int64_t>(blocks, spec_.max_concurrent_blocks);
    return static_cast<double>(resident) / spec_.max_concurrent_blocks;
  }

  /// Overlap-aware device wall clock: completion time of everything
  /// queued so far. See DeviceStats::sim_elapsed_us.
  double elapsed_us() const { return stats_.sim_elapsed_us; }

  /// cudaDeviceSynchronize: joins every stream (and the host issue
  /// cursor) into the default timeline and returns the elapsed wall
  /// clock. Simulated execution is eager, so this only merges timelines —
  /// it is never needed for correctness.
  double synchronize();

  /// Routes kernel bodies through `pool` instead of ThreadPool::global().
  /// A single-worker pool makes floating-point reduction order (and thus
  /// factor bits) deterministic; simulated time is ops-derived and does
  /// not depend on the pool size.
  void use_pool(ThreadPool& pool) { pool_ = &pool; }

 private:
  friend class RawDeviceAllocation;
  friend class Stream;
  friend class DeviceGroup;
  void allocate(std::size_t bytes);
  void deallocate(std::size_t bytes) noexcept;

  /// Charges a synchronous (default-timeline) operation: starts after all
  /// queued work, blocks everything behind it — the legacy-default-stream
  /// full-barrier semantics.
  void advance_serial(double cost_us);

  /// Shared body of the async copy directions.
  void copy_async(std::size_t bytes, Stream& stream, bool h2d);

  DeviceSpec spec_;
  DeviceStats stats_;
  std::atomic<std::size_t> allocated_{0};

  // --- simulated timelines (see DESIGN.md "Streams & overlap") ---
  double serial_done_us_ = 0;  ///< completion of default-timeline work
  double host_issue_us_ = 0;   ///< host thread's position issuing launches
  std::vector<Stream*> streams_;
  ThreadPool* pool_ = nullptr;  ///< null = ThreadPool::global()
};

/// A simulated CUDA stream: an independent completion timeline. Work
/// launched with LaunchConfig::stream pointing here is ordered after
/// prior work on this stream only; its kernel time overlaps other
/// streams' in the sim clock. Execution itself stays eager and
/// correct-by-construction — streams model *time*, not deferral.
class Stream {
 public:
  explicit Stream(Device& device) : device_(&device) {
    // Work queued before the stream existed is on the default timeline;
    // the stream starts ordered after it (legacy default-stream sync).
    ready_us_ = device_->serial_done_us_;
    device_->streams_.push_back(this);
  }
  ~Stream() {
    auto& v = device_->streams_;
    v.erase(std::find(v.begin(), v.end(), this));
    // Destroying a stream joins its pending work into the default
    // timeline so the time it accumulated is not lost.
    device_->serial_done_us_ = std::max(device_->serial_done_us_, ready_us_);
  }
  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  Device& device() const { return *device_; }
  /// Absolute device-clock time at which work queued so far completes.
  double ready_us() const { return ready_us_; }
  /// Orders subsequent work on this stream after the event
  /// (cudaStreamWaitEvent).
  void wait(const class Event& e);

 private:
  friend class Device;
  friend class DeviceGroup;
  Device* device_;
  double ready_us_ = 0;
};

/// A simulated CUDA event: a captured timestamp on a stream's timeline.
class Event {
 public:
  /// Captures the completion time of work queued on `s` so far
  /// (cudaEventRecord).
  void record(const Stream& s) { t_us_ = s.ready_us(); }
  double timestamp_us() const { return t_us_; }

 private:
  double t_us_ = 0;
};

inline void Stream::wait(const Event& e) {
  ready_us_ = std::max(ready_us_, e.timestamp_us());
}

/// RAII registration of `bytes` against a Device's capacity. Building
/// block for DeviceBuffer; throws OutOfDeviceMemory if over capacity.
class RawDeviceAllocation {
 public:
  RawDeviceAllocation() = default;
  RawDeviceAllocation(Device& device, std::size_t bytes)
      : device_(&device), bytes_(bytes) {
    device_->allocate(bytes_);
  }
  ~RawDeviceAllocation() { release(); }

  RawDeviceAllocation(const RawDeviceAllocation&) = delete;
  RawDeviceAllocation& operator=(const RawDeviceAllocation&) = delete;
  RawDeviceAllocation(RawDeviceAllocation&& o) noexcept { *this = std::move(o); }
  RawDeviceAllocation& operator=(RawDeviceAllocation&& o) noexcept {
    if (this != &o) {
      release();
      device_ = o.device_;
      bytes_ = o.bytes_;
      o.device_ = nullptr;
      o.bytes_ = 0;
    }
    return *this;
  }

  std::size_t bytes() const { return bytes_; }

 private:
  void release() noexcept {
    if (device_ != nullptr) device_->deallocate(bytes_);
    device_ = nullptr;
    bytes_ = 0;
  }
  Device* device_ = nullptr;
  std::size_t bytes_ = 0;
};

}  // namespace e2elu::gpusim
