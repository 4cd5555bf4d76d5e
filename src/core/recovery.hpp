// Per-phase fault recovery, shared by every pipeline stage.
//
// with_recovery() runs a phase body until it succeeds. Each device fault
// (OOM, lost launch) or numeric breakdown (zero pivot) the body throws is
// handed to the phase's counter-measure, which prepares the next attempt
// and answers with a Retry. The helper owns everything else: counting
// attempts against the budget, the metric the answer names, and the final
// FactorError{kind, phase} once the budget is spent or the counter-measure
// gives up.
#pragma once

#include <string>

#include "core/factor_error.hpp"
#include "gpusim/device.hpp"
#include "numeric/numeric.hpp"
#include "trace/metrics.hpp"

namespace e2elu {

/// One caught fault, as a counter-measure sees it.
struct Fault {
  FaultKind kind = FaultKind::LaunchFailed;
  index_t column = -1;  ///< the failing pivot column (zero pivots only)
};

/// A counter-measure's answer to one fault.
struct Retry {
  /// Metric counting this recovery (e.g. "recovery.symbolic.replan");
  /// nullptr gives up, and the helper throws the FactorError.
  const char* counter = nullptr;
  /// False: the retry does not draw on the phase budget (a device group
  /// dropping a member, which the member count bounds instead).
  bool budgeted = true;
};

/// Runs body(attempt) for attempt = 0, 1, ... until it returns, answering
/// each fault with on_fault(const Fault&) -> Retry. A phase gives up once
/// budgeted faults reach `budget` attempts; budget 0 (recovery disabled)
/// turns the first fault of any kind into its FactorError. Returns the
/// number of retries taken.
template <class Body, class OnFault>
index_t with_recovery(const char* phase, int budget, Body&& body,
                      OnFault&& on_fault) {
  index_t retries = 0;
  int budgeted_faults = 0;
  for (int attempt = 0;; ++attempt) {
    Fault fault;
    std::string what;
    try {
      body(attempt);
      return retries;
    } catch (const numeric::ZeroPivotError& e) {
      fault = {FaultKind::ZeroPivot, e.column()};
      what = e.what();
    } catch (const gpusim::OutOfDeviceMemory& e) {
      fault = {FaultKind::DeviceOutOfMemory};
      what = e.what();
    } catch (const gpusim::LaunchFailure& e) {
      fault = {FaultKind::LaunchFailed};
      what = e.what();
    }
    const Retry retry = budget > 0 ? on_fault(fault) : Retry{};
    if (retry.counter == nullptr ||
        (retry.budgeted && ++budgeted_faults >= budget)) {
      throw FactorError(fault.kind, phase, what, fault.column);
    }
    ++retries;
    trace::MetricsRegistry::global().counter(retry.counter).add(1);
  }
}

}  // namespace e2elu
