#pragma once

// In-memory span recorder for the traced benchmark run. Spans are taken
// only in the benchmark's own code, around calls into the library's public
// API; nothing is added to the library. They stay in memory and are
// written at exit as Chrome trace-event JSON (chrome://tracing, Perfetto).
//
// Each span has a name, start, end, id, parent id (0 = root) and a trace
// id naming the workload and the tenant (or the fleet) it belongs to. A
// layer's self time is its duration minus the part its children cover.
// Spans are recorded from one thread (the control-plane thread that also
// drives FleetRuntime::run_blocks), so no locking is needed.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

class Tracer {
 public:
  struct Span {
    std::string name;
    std::string trace;
    Clock::time_point start;
    Clock::time_point end;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string args;  // extra JSON members, e.g. "\"block\":3"

    double seconds() const { return seconds_between(start, end); }
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Open a span under the innermost open one; returns its id (0 when
  /// tracing is off). Close with end() in LIFO order.
  std::uint64_t begin(std::string name, std::string trace) {
    if (!enabled_) return 0;
    Span s;
    s.name = std::move(name);
    s.trace = std::move(trace);
    s.id = spans_.size() + 1;
    s.parent = open_.empty() ? 0 : open_.back();
    s.start = Clock::now();
    spans_.push_back(std::move(s));
    open_.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void end(std::uint64_t id) {
    if (!enabled_ || id == 0) return;
    spans_[id - 1].end = Clock::now();
    open_.pop_back();
  }

  /// Record a span whose bounds the caller already measured (the paced
  /// phase times every block itself, traced or not).
  void record(std::string name, std::string trace, Clock::time_point start,
              Clock::time_point end, std::string args = {}) {
    if (!enabled_) return;
    Span s;
    s.name = std::move(name);
    s.trace = std::move(trace);
    s.id = spans_.size() + 1;
    s.parent = open_.empty() ? 0 : open_.back();
    s.start = start;
    s.end = end;
    s.args = std::move(args);
    spans_.push_back(std::move(s));
  }

  /// Duration (s) of a closed span.
  double seconds(std::uint64_t id) const {
    return id == 0 ? 0.0 : spans_[id - 1].seconds();
  }

  bool write_chrome_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      const double ts_us = 1e6 * seconds_between(origin_, s.start);
      std::fprintf(f,
                   "{\"name\":\"%s\",\"cat\":\"e2e\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"trace\":\"%s\"%s%s}}%s\n",
                   s.name.c_str(), ts_us, 1e6 * s.seconds(),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.trace.c_str(),
                   s.args.empty() ? "" : ",", s.args.c_str(),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> open_;
};

/// RAII span: begin on construction, end on destruction.
class SpanScope {
 public:
  SpanScope(Tracer& tracer, std::string name, std::string trace)
      : tracer_(tracer), id_(tracer.begin(std::move(name), std::move(trace))) {}
  ~SpanScope() { tracer_.end(id_); }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer& tracer_;
  std::uint64_t id_;
};

}  // namespace e2e
