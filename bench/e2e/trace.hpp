// In-memory spans recorded from the benchmark's own files.
//
// A traced repetition records one span per layer boundary the bench can
// see from outside the library: the repetition, each operation (one
// matrix, Newton step or service job), and every public call inside it.
// Spans carry name, start, end, parent and operation id, stay in memory,
// and are written as Chrome trace-event JSON when the run ends. A span's
// self time is its duration minus the part of it its children cover.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace e2elu::e2e {

class Trace {
 public:
  struct Span {
    const char* name = "";
    double start_us = 0;
    double end_us = 0;
    int parent = -1;        ///< index of the enclosing span, -1 for a root
    std::uint64_t op = 0;   ///< operation id shared by an op's spans
    int tid = 0;            ///< recording thread (a lane in the viewer)
    bool call = false;      ///< wraps one public library call
  };

  Trace();

  /// Opens a span and returns its id. Thread-safe.
  int open(const char* name, int parent, std::uint64_t op, bool call);
  /// Closes span `id`. Thread-safe.
  void close(int id);

  /// Number of spans recorded so far (the id the next span gets).
  std::size_t size() const;

  /// Self-time sums over spans [first, end), milliseconds: the time spent
  /// inside public calls, and the bench's own time outside them.
  struct SelfTimes {
    double call_ms = 0;
    double bench_ms = 0;
  };
  SelfTimes self_times(std::size_t first) const;

  /// Writes every span as Chrome trace-event JSON; false when the file
  /// cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  double now_us() const;
  /// Copy of the spans with ids >= first.
  std::vector<Span> spans_since(std::size_t first) const;

  std::int64_t epoch_ns_;
  mutable std::mutex mutex_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// RAII span; a no-op when `trace` is null (the untraced runs).
class Scope {
 public:
  Scope(Trace* trace, const char* name, int parent, std::uint64_t op,
        bool call)
      : trace_(trace),
        id_(trace == nullptr ? -1 : trace->open(name, parent, op, call)) {}
  ~Scope() {
    if (trace_ != nullptr) trace_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  int id() const { return id_; }

 private:
  Trace* trace_;
  int id_;
};

}  // namespace e2elu::e2e
