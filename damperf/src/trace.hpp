// damperf tracing — spans recorded by the benchmark around its calls into
// the library. Nothing here reaches inside the program: a span brackets one
// public call (or one DamSystem::run_rounds round), and counts are taken
// from the library's public observers at the same boundaries.
//
// Spans stay in memory and are written out once, at the end of the run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bench.hpp"

namespace damperf {

class Tracer {
 public:
  struct Span {
    std::string name;
    int parent = -1;  ///< index of the enclosing span, -1 at top level
    double start_s = 0.0;
    double end_s = 0.0;
    std::vector<std::pair<std::string, double>> counts;

    [[nodiscard]] double seconds() const { return end_s - start_s; }
  };

  Tracer() : origin_(Clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its id.
  int open(std::string name);
  void close(int id);
  void count(int id, std::string key, double value);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Durations of every span called `name`, in opening order.
  [[nodiscard]] std::vector<double> seconds_of(std::string_view name) const;
  /// Per span name: (spans, total seconds, self seconds). Self time is a
  /// span's duration minus the time its child spans cover.
  struct Totals {
    std::size_t spans = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Writes every span plus the per-name totals as JSON to `path`, and a
  /// per-name self-time table to stderr. Returns false when the file
  /// cannot be written.
  bool write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null tracer makes it a no-op, so untraced code paths share
/// the same calls.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->open(std::move(name)) : -1) {}
  ~SpanScope() {
    if (tracer_ != nullptr) tracer_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  void count(std::string key, double value) {
    if (tracer_ != nullptr) tracer_->count(id_, std::move(key), value);
  }

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace damperf
