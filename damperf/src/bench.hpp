// damperf — shared pieces of the benchmark program: run options, the result
// it prints, and host-timing summaries.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/quantiles.hpp"

namespace damperf {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;   ///< length of the timed phase
  bool trace = false;      ///< traced run: per-layer metrics instead
  std::string trace_dir;   ///< where the traced run writes its spans
};

/// One run's outcome. An operation is one simulated publication; it fails
/// when any independent check fails for it. `correct` is false only when
/// the benchmark cannot vouch for the operations that passed (a self-test
/// corruption went unnoticed, or two runs of one simulation disagree).
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a fault that makes the whole run untrustworthy.
  void fault(const std::string& what);
};

/// Host timings of one quantity over a run's repeats. The median is the
/// reported value; the quartiles are printed beside it.
struct Samples {
  std::string name;
  std::vector<double> values;

  [[nodiscard]] double median() const { return quantile(0.5); }
  /// Linear interpolation between order statistics.
  [[nodiscard]] double quantile(double q) const;
  /// Prints "timing <name> median q1 q3 n [samples]" to stderr (the
  /// samples only when there are at most 50).
  void print() const;
};

/// Paces the timed phase: at least `minimum` repeats, then another repeat
/// only when the previous one's duration says it will end within
/// `seconds` of `start`.
class Pacer {
 public:
  Pacer(Clock::time_point start, double seconds, std::size_t minimum)
      : start_(start), seconds_(seconds), minimum_(minimum) {}

  /// Call before each repeat; true means run it.
  bool another() {
    const double now = seconds_since(start_);
    const double last = now - last_start_;
    if (done_ >= minimum_ && now + last > seconds_) return false;
    last_start_ = now;
    ++done_;
    return true;
  }

 private:
  Clock::time_point start_;
  double seconds_;
  std::size_t minimum_;
  std::size_t done_ = 0;
  double last_start_ = 0.0;
};

/// Peak resident memory of this process so far, in MiB.
[[nodiscard]] double peak_rss_mib();

/// Quantile of a whole-round latency distribution, interpolated within its
/// round: a delivery in round L stands for the interval (L-1, L]. Rounding
/// the result up gives the exact order statistic; the interpolation lets
/// the value move continuously with the distribution.
[[nodiscard]] double round_quantile(const dam::util::QuantileSketch& sketch,
                                    double q);

/// Worker threads for the sharded engine phases: below the core count, so
/// the process never asks for more threads than the machine has, and at
/// most two, so runs on a busy machine contend less.
[[nodiscard]] unsigned bench_threads();

/// The seven end-to-end metrics every workload reports.
struct EndToEnd {
  Samples setup{"setup_s", {}};
  Samples replay_ns{"replay_ns_per_delivery", {}};
  double reliability = 0.0;
  dam::util::QuantileSketch latency;
  double msgs_per_delivery = 0.0;
};

/// Prints the timing summaries and adds the seven metrics to `report`.
void report_end_to_end(const EndToEnd& e2e, Report& report);

Report run_steady_churn(const Options& options);
Report run_giant_burst(const Options& options);
Report run_frozen_deep(const Options& options);
Report run_rivals(const Options& options);

}  // namespace damperf
