#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

namespace e2elu::e2e {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int thread_lane() {
  static std::atomic<int> next{0};
  thread_local const int lane = next.fetch_add(1);
  return lane;
}

}  // namespace

Trace::Trace() : epoch_ns_(steady_ns()) {}

double Trace::now_us() const {
  return static_cast<double>(steady_ns() - epoch_ns_) / 1e3;
}

int Trace::open(const char* name, int parent, std::uint64_t op, bool call) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.op = op;
  s.tid = thread_lane();
  s.call = call;
  s.start_us = now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void Trace::close(int id) {
  const double t = now_us();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<std::size_t>(id)].end_us = t;
}

std::vector<Trace::Span> Trace::spans_since(std::size_t first) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {spans_.begin() + static_cast<std::ptrdiff_t>(first), spans_.end()};
}

std::size_t Trace::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

Trace::SelfTimes Trace::self_times(std::size_t first) const {
  const std::vector<Span> spans = spans_since(first);
  // Children of one parent may overlap (two service clients share a
  // repetition span), so coverage is the union of their intervals.
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    const long p = static_cast<long>(s.parent) - static_cast<long>(first);
    if (p >= 0) {
      children[static_cast<std::size_t>(p)].emplace_back(s.start_us, s.end_us);
    }
  }
  SelfTimes out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, lo = 0, hi = -1;
    for (const auto& [a, b] : iv) {
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    const double self_us = spans[i].end_us - spans[i].start_us - covered;
    (spans[i].call ? out.call_ms : out.bench_ms) += self_us / 1e3;
  }
  return out;
}

bool Trace::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<Span> spans = spans_since(0);
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, "
                 "\"parent\": %d, \"op\": %llu}}%s\n",
                 s.name, s.tid, s.start_us, s.end_us - s.start_us, i, s.parent,
                 static_cast<unsigned long long>(s.op),
                 i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace e2elu::e2e
