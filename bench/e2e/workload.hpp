// The four benchmark workloads behind one interface: construction is the
// set-up (timed as setup_s), run() is one timed repetition.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "layers.hpp"
#include "telemetry/job_report.hpp"
#include "trace.hpp"

namespace e2elu::e2e {

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  /// Smoke-test size: two small matrices, a few steps, a few jobs.
  bool quick = false;
};

/// Simulated phase times of one suite matrix (the result file's detail).
struct MatrixDetail {
  std::string abbr;
  index_t n = 0;
  offset_t nnz = 0;
  double preprocess_us = 0, symbolic_us = 0, levelize_us = 0;
  double numeric_us = 0, solve_us = 0;
};

/// One timed repetition. A solution is one matrix factorized and solved
/// (suite-*), one Newton step (newton-refactor) or one service job
/// (service-fleet); each has one latency sample.
struct Rep {
  double wall_ms = 0;
  std::vector<double> latency_ms;
  std::uint64_t failed = 0;      ///< solutions that threw or missed 1e-10
  std::uint64_t violations = 0;  ///< accounting or routing invariants broken
  Layers layers;
  std::vector<MatrixDetail> detail;
};

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;
  /// Runs one repetition; records spans under `parent` when `trace` is
  /// non-null.
  virtual Rep run(Trace* trace, int parent) = 0;
};

/// Builds (sets up) a workload; throws e2elu::Error on an unknown name.
std::unique_ptr<Workload> make_workload(const Config& cfg);

std::unique_ptr<Workload> make_suite(const Config& cfg, bool fill_reducing);
std::unique_ptr<Workload> make_newton(const Config& cfg);
std::unique_ptr<Workload> make_fleet(const Config& cfg);

/// ||Ax - b|| / ||b|| <= 1e-10: the per-solution correctness check.
bool solved(const Csr& a, std::span<const value_t> x,
            std::span<const value_t> b);

/// Phase accounting of a factorization adds up: total_sim_us is the sum of
/// the four phases, and the preprocess sub-phases fit inside preprocess.
bool phases_tile(const FactorResult& f);

/// A job report's wall phases sum to its total, and its preprocess
/// sub-phases to their total.
bool report_tiles(const telemetry::JobReport& r);

}  // namespace e2elu::e2e
