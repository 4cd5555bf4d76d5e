// Typed device memory with RAII capacity accounting and explicit
// host<->device copies — the cudaMalloc/cudaMemcpy half of the memory
// model (unified memory lives in unified_buffer.hpp).
#pragma once

#include <cstring>
#include <span>
#include <vector>

#include "gpusim/device.hpp"

namespace e2elu::gpusim {

/// A device-resident array of T. Allocation counts against the owning
/// Device's capacity and throws OutOfDeviceMemory when it does not fit —
/// which is exactly the situation the paper's out-of-core drivers exist
/// to avoid. Element access is direct (device-resident data is fast);
/// only the explicit copy calls cost simulated time.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  DeviceBuffer(Device& device, std::size_t count)
      : allocation_(device, count * sizeof(T)), device_(&device), data_(count) {}

  /// Allocates and uploads in one step.
  DeviceBuffer(Device& device, std::span<const T> host)
      : DeviceBuffer(device, host.size()) {
    copy_from_host(host);
  }

  std::size_t size() const { return data_.size(); }
  std::size_t bytes() const { return data_.size() * sizeof(T); }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::span<T> span() { return {data_.data(), data_.size()}; }
  std::span<const T> span() const { return {data_.data(), data_.size()}; }

  /// cudaMemcpy H2D: charges transfer time on the device.
  void copy_from_host(std::span<const T> host) {
    E2ELU_CHECK(host.size() <= data_.size());
    // memcpy's pointers must be non-null even for 0 bytes, and an empty
    // vector's data() may be null.
    if (!host.empty()) {
      std::memcpy(data_.data(), host.data(), host.size() * sizeof(T));
    }
    device_->copy_h2d(host.size() * sizeof(T));
  }

  /// cudaMemcpy D2H.
  void copy_to_host(std::span<T> host) const {
    E2ELU_CHECK(host.size() <= data_.size());
    if (!host.empty()) {
      std::memcpy(host.data(), data_.data(), host.size() * sizeof(T));
    }
    device_->copy_d2h(host.size() * sizeof(T));
  }

  /// cudaMemset-style fill; device-side, no transfer cost.
  void fill(const T& value) { std::fill(data_.begin(), data_.end(), value); }

 private:
  RawDeviceAllocation allocation_;
  Device* device_ = nullptr;
  std::vector<T> data_;
};

}  // namespace e2elu::gpusim
