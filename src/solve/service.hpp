// SolverService: a thread-safe, micro-batching front end over the batched
// solve path.
//
// Many-client workloads (a transient simulator's measurement threads, an
// inference-style request stream) produce right-hand sides one at a time
// from many threads, but the device amortizes launch overhead only when
// right-hand sides sweep the levels together (PipelineSolver::solve_many).
// The service bridges the two: callers submit() single vectors and get
// futures; a drainer thread coalesces waiting requests into micro-batches
// of up to max_batch, lingering at most max_wait_us after the first
// arrival, and solves each batch with one level sweep. Results are
// bit-identical to calling PipelineSolver::solve per request — batching
// changes launch accounting, never arithmetic.
//
// Backpressure: the queue is bounded at max_queue; submit() blocks until
// space frees, so a slow device throttles producers instead of buffering
// unboundedly.
//
// Rebind: rebind(f) installs same-pattern updated factors (e.g. from a
// refactor::Refactorizer step). The service solves against a private
// snapshot of the factors, so the caller's FactorResult may be mutated
// or refactorized in place while batches are in flight — the Refactorizer
// updates its factors() storage in place, and without the snapshot an
// in-flight sweep would read through reallocated value arrays. rebind()
// serializes against batch execution: an in-flight batch completes on the
// snapshot it started with; requests drained after rebind() returns use
// the new values.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "solve/pipeline_solver.hpp"
#include "support/bounded_queue.hpp"

namespace e2elu::solve {

struct SolverServiceOptions {
  /// Largest micro-batch one level sweep carries.
  index_t max_batch = 64;
  /// How long the drainer lingers for more arrivals after the first
  /// request of a batch, in microseconds. 0 = drain immediately.
  std::uint32_t max_wait_us = 200;
  /// Bounded-queue backpressure: submit() blocks while this many requests
  /// are already waiting.
  std::size_t max_queue = 1024;
};

/// Aggregate service counters (also published to MetricsRegistry under
/// solver_service.*, alongside the latency histograms
/// solver_service.queue_wait_us — submit to batch pop, per request — and
/// solver_service.batch_solve_us — wall time of one batched level sweep).
struct SolverServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t batches = 0;
  /// Kernel launches avoided vs. solving each request alone: a B-wide
  /// batch runs one sweep instead of B, saving (B-1) x launches/sweep.
  std::uint64_t launches_saved = 0;
  std::uint64_t rebinds = 0;
  /// Batches whose requests all failed (every future carries the error;
  /// the service itself stays alive and keeps serving later batches).
  std::uint64_t batch_failures = 0;
  std::size_t max_queue_depth = 0;
  double mean_batch() const {
    return batches == 0 ? 0.0 : static_cast<double>(requests) / batches;
  }
};

class SolverService {
 public:
  /// Builds the internal PipelineSolver (level schedules for both
  /// factors) on `device` and starts the drainer thread. The service
  /// keeps its own snapshot of `factorization`; the caller's object may
  /// change or die afterwards.
  SolverService(gpusim::Device& device, const FactorResult& factorization,
                SolverServiceOptions options = {});

  /// Stops accepting work, drains every queued request, joins the
  /// drainer.
  ~SolverService();

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  /// Enqueues one right-hand side; the future resolves to x with
  /// A x = b, bit-identical to PipelineSolver::solve(b) under the factors
  /// bound when its batch drains. Blocks while the queue is full.
  /// Thread-safe.
  std::future<std::vector<value_t>> submit(std::vector<value_t> b);

  /// Snapshots same-pattern updated factors into the service. Waits for
  /// the in-flight batch (if any) to finish, never for the whole queue —
  /// queued requests drain under the new factors. Throws (leaving the old
  /// binding intact) if the pattern differs. Thread-safe against submit()
  /// and the drainer.
  void rebind(const FactorResult& factorization);

  /// Blocks until every request submitted so far has been solved.
  void drain();

  SolverServiceStats stats() const;
  const PipelineSolver& solver() const { return solver_; }

 private:
  struct Request {
    std::vector<value_t> b;
    std::promise<std::vector<value_t>> promise;
    double submitted_us = 0;  ///< admission time (tracer-epoch clock)
  };

  void drainer_loop();
  void run_batch(std::vector<Request> batch);

  SolverServiceOptions opt_;
  /// System order, fixed for the service's lifetime (rebind() rejects a
  /// changed n). Cached so submit() and batch assembly can validate and
  /// size buffers without reading through factors_, which rebind()
  /// overwrites under solve_mutex_ only.
  const std::size_t n_;
  /// Private snapshot the solvers are bound to; rebind() overwrites it
  /// under solve_mutex_. Declared before solver_ (initialization order).
  FactorResult factors_;
  PipelineSolver solver_;
  gpusim::Device* device_;

  /// Admission door: bounded (backpressure), FIFO (priority 0), closed at
  /// shutdown. The generic queue owns the space/work signalling that used
  /// to live inline here; see support/bounded_queue.hpp.
  BoundedQueue<Request> queue_;

  mutable std::mutex mutex_;         ///< stats_, pending_
  std::condition_variable cv_idle_;  ///< drain(): every admitted request done
  /// Requests admitted but not yet resolved (queued or in the in-flight
  /// batch). Tracks completion independently of queue depth so drain()
  /// cannot return while a drained-but-unsolved batch is still running.
  std::size_t pending_ = 0;

  std::mutex solve_mutex_;  ///< serializes batch execution vs. rebind
  SolverServiceStats stats_;
  std::thread drainer_;
};

}  // namespace e2elu::solve
