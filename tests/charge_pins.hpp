// Exact charge pins for the numeric executors and the device symbolic
// drivers: the device counters one run must reproduce. Counters compare
// exactly and simulated times to 1e-12 relative, so a change that moves a
// launch, an op, a byte or a stream fails here even when the results stay
// exact.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "gpusim/device.hpp"

namespace e2elu::pins {

/// One run's pinned device charges; tests brace-initialize it in field
/// order from values the executors produced before a refactor.
struct ChargePin {
  std::uint64_t host_launches;
  std::uint64_t device_launches;
  std::uint64_t kernel_ops;
  std::uint64_t fused_launches;
  std::uint64_t h2d_bytes;
  std::uint64_t d2h_bytes;
  std::uint64_t page_faults;
  double sim_total_us;
  double sim_elapsed_us;
};

inline void expect_charges(const gpusim::DeviceStats& got,
                           const ChargePin& want) {
  EXPECT_EQ(got.host_launches, want.host_launches);
  EXPECT_EQ(got.device_launches, want.device_launches);
  EXPECT_EQ(got.kernel_ops, want.kernel_ops);
  EXPECT_EQ(got.fused_launches, want.fused_launches);
  EXPECT_EQ(got.h2d_bytes, want.h2d_bytes);
  EXPECT_EQ(got.d2h_bytes, want.d2h_bytes);
  EXPECT_EQ(got.page_faults, want.page_faults);
  EXPECT_NEAR(got.sim_total_us(), want.sim_total_us,
              1e-12 * want.sim_total_us);
  EXPECT_NEAR(got.sim_elapsed_us, want.sim_elapsed_us,
              1e-12 * want.sim_elapsed_us);
}

/// The managed-memory counters ChargePin leaves out, pinned where scratch
/// pages on demand (the unified-memory symbolic runs).
struct PagingPin {
  std::uint64_t page_fault_groups;
  std::uint64_t prefetch_bytes;
};

inline void expect_paging(const gpusim::DeviceStats& got,
                          const PagingPin& want) {
  EXPECT_EQ(got.page_fault_groups, want.page_fault_groups);
  EXPECT_EQ(got.prefetch_bytes, want.prefetch_bytes);
}

}  // namespace e2elu::pins
