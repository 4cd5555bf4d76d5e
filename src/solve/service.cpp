#include "solve/service.hpp"

#include <utility>

#include "core/factor_error.hpp"
#include "support/check.hpp"
#include "trace/metrics.hpp"
#include "trace/trace.hpp"

namespace e2elu::solve {

namespace {

/// Wraps a device fault into FactorError, so callers can match on the
/// structured kind/phase instead of parsing gpusim messages. Anything else
/// (singular diagonal, shape misuse) keeps its type.
std::exception_ptr structured(std::exception_ptr error) {
  try {
    std::rethrow_exception(error);
  } catch (const gpusim::OutOfDeviceMemory& e) {
    return std::make_exception_ptr(
        FactorError(FaultKind::DeviceOutOfMemory, "solve", e.what()));
  } catch (const gpusim::LaunchFailure& e) {
    return std::make_exception_ptr(
        FactorError(FaultKind::LaunchFailed, "solve", e.what()));
  } catch (...) {
    return error;
  }
}

}  // namespace

SolverService::SolverService(gpusim::Device& device,
                             const FactorResult& factorization,
                             SolverServiceOptions options)
    : opt_(options),
      n_(static_cast<std::size_t>(factorization.n)),
      factors_(factorization),
      solver_(device, factors_),
      device_(&device),
      queue_(options.max_queue) {
  E2ELU_CHECK_MSG(opt_.max_batch >= 1, "max_batch must be at least 1");
  drainer_ = std::thread([this] { drainer_loop(); });
}

SolverService::~SolverService() {
  queue_.close();
  drainer_.join();
}

std::future<std::vector<value_t>> SolverService::submit(
    std::vector<value_t> b) {
  E2ELU_CHECK_MSG(b.size() == n_,
                  "submit: rhs size " << b.size()
                                      << " does not match system order "
                                      << n_);
  Request req;
  req.b = std::move(b);
  req.submitted_us = trace::Tracer::instance().now_us();
  std::future<std::vector<value_t>> future = req.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++pending_;
  }
  // Blocks while the queue is at capacity — the backpressure contract.
  if (!queue_.push(std::move(req))) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --pending_;
    }
    E2ELU_CHECK_MSG(false, "submit on a stopping SolverService");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.requests;
  }
  return future;
}

void SolverService::rebind(const FactorResult& factorization) {
  // Taking solve_mutex_ waits out any in-flight batch, so the snapshot
  // swap never races a level sweep reading the old factor values.
  std::lock_guard<std::mutex> solve_lock(solve_mutex_);
  // Validate against the live binding before overwriting the snapshot, so
  // a mismatched rebind throws with the old factors still intact.
  E2ELU_CHECK_MSG(factorization.n == factors_.n,
                  "rebind: system order changed (" << factors_.n << " -> "
                                                   << factorization.n << ")");
  E2ELU_CHECK_MSG(same_pattern(factorization.l, factors_.l) &&
                      same_pattern(factorization.u, factors_.u),
                  "rebind: factor sparsity pattern changed");
  factors_ = factorization;
  solver_.rebind(factors_);
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.rebinds;
}

void SolverService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_idle_.wait(lock, [&] { return pending_ == 0; });
}

SolverServiceStats SolverService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  SolverServiceStats s = stats_;
  s.max_queue_depth = queue_.max_depth();
  return s;
}

void SolverService::run_batch(std::vector<Request> batch) {
  const index_t num_rhs = static_cast<index_t>(batch.size());
  const std::size_t n = n_;
  // Same histograms as the FactorService phases: queue wait per request
  // (micro-batching linger shows up here), solve wall per batch.
  const double popped_us = trace::Tracer::instance().now_us();
  auto& wait_hist =
      trace::MetricsRegistry::global().histogram("solver_service.queue_wait_us");
  for (const Request& req : batch) {
    wait_hist.record(popped_us - req.submitted_us);
  }
  std::vector<value_t> block(n * batch.size());
  for (std::size_t r = 0; r < batch.size(); ++r) {
    std::copy(batch[r].b.begin(), batch[r].b.end(), block.begin() + r * n);
  }
  std::vector<value_t> x;
  std::exception_ptr error;
  try {
    std::lock_guard<std::mutex> solve_lock(solve_mutex_);
    TRACE_SPAN("solve.service.batch", *device_,
               {{"rhs", num_rhs}, {"n", solver_.factorization().n}});
    x = solver_.solve_many(block, num_rhs);
  } catch (...) {
    // A singular diagonal (or any solver failure) fails the whole batch:
    // every caller in it sees the exception through its future. The
    // service itself survives — later batches solve normally.
    error = structured(std::current_exception());
  }

  // Count the batch before any of its futures resolves, so a client whose
  // last future is ready reads stats() that include its batch.
  const std::uint64_t saved =
      (static_cast<std::uint64_t>(num_rhs) - 1) * solver_.launches_per_batch();
  auto& registry = trace::MetricsRegistry::global();
  registry.histogram("solver_service.batch_solve_us")
      .record(trace::Tracer::instance().now_us() - popped_us);
  registry.histogram("solver_service.batch_size")
      .record(static_cast<double>(num_rhs));
  registry.counter("solver_service.launches_saved").add(saved);
  registry.counter("solver_service.batches").add(1);
  if (error) registry.counter("solver_service.batch_failures").add(1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.batches;
    stats_.launches_saved += saved;
    if (error) ++stats_.batch_failures;
  }

  for (std::size_t r = 0; r < batch.size(); ++r) {
    if (error) {
      batch[r].promise.set_exception(error);
    } else {
      batch[r].promise.set_value(std::vector<value_t>(
          x.begin() + static_cast<std::ptrdiff_t>(r * n),
          x.begin() + static_cast<std::ptrdiff_t>((r + 1) * n)));
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Requests resolve exactly here (value or exception), so this is the
    // one place pending work retires.
    pending_ -= batch.size();
    if (pending_ == 0) cv_idle_.notify_all();
  }
}

void SolverService::drainer_loop() {
  for (;;) {
    // Micro-batch assembly (bounded wait, linger for co-arrivals, prompt
    // shutdown drain) all lives in the queue now.
    std::vector<Request> batch = queue_.pop_batch(
        static_cast<std::size_t>(opt_.max_batch), opt_.max_wait_us);
    if (batch.empty()) return;  // closed and fully drained
    trace::MetricsRegistry::global()
        .histogram("solver_service.queue_depth")
        .record(static_cast<double>(batch.size() + queue_.size()));
    run_batch(std::move(batch));
  }
}

}  // namespace e2elu::solve
