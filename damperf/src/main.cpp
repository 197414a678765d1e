// damperf — the repository's benchmark program. One process runs one
// workload and prints, as the last line of stdout, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). Everything else — timing summaries, check failures, the
// self-test, the span table — goes to stderr. See README.md.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>
#include <thread>

#include "bench.hpp"

namespace damperf {

void Report::fault(const std::string& what) {
  correct = false;
  std::fprintf(stderr, "fault: %s\n", what.c_str());
}

double Samples::quantile(double q) const {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double position = q * static_cast<double>(sorted.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, sorted.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return sorted[below] + fraction * (sorted[above] - sorted[below]);
}

void Samples::print() const {
  std::fprintf(stderr, "timing %-24s median %.6g  q1 %.6g  q3 %.6g  n %zu",
               name.c_str(), median(), quantile(0.25), quantile(0.75),
               values.size());
  if (values.size() <= 50) {
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::fprintf(stderr, "%s%.4g", i == 0 ? "  [" : " ", values[i]);
    }
    std::fprintf(stderr, "]");
  }
  std::fprintf(stderr, "\n");
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double round_quantile(const dam::util::QuantileSketch& sketch, double q) {
  if (sketch.empty()) return 0.0;
  // Whole-round latencies never compact the sketch (equal values share a
  // centroid); a compacted one has no rounds to interpolate within.
  if (sketch.compacted()) return sketch.quantile(q);
  const double target = q * static_cast<double>(sketch.count());
  double below = 0.0;
  for (const auto& centroid : sketch.centroids()) {
    const auto weight = static_cast<double>(centroid.weight);
    if (below + weight >= target) {
      return centroid.value - 1.0 + (target - below) / weight;
    }
    below += weight;
  }
  return sketch.max();
}

unsigned bench_threads() {
  const unsigned hardware = std::thread::hardware_concurrency();
  return std::clamp(hardware == 0 ? 1u : hardware - 1, 1u, 2u);
}

void report_end_to_end(const EndToEnd& e2e, Report& report) {
  e2e.setup.print();
  e2e.replay_ns.print();
  report.add("setup_s", e2e.setup.median(), "s");
  report.add("replay_ns_per_delivery", e2e.replay_ns.median(), "ns");
  report.add("peak_rss_mib", peak_rss_mib(), "MiB");
  report.add("reliability", e2e.reliability, "fraction");
  report.add("latency_p50_rounds", round_quantile(e2e.latency, 0.5),
             "rounds");
  report.add("latency_p999_rounds", round_quantile(e2e.latency, 0.999),
             "rounds");
  report.add("msgs_per_delivery", e2e.msgs_per_delivery, "msgs");
  std::fprintf(stderr, "latency samples %llu\n",
               static_cast<unsigned long long>(e2e.latency.count()));
}

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "damperf: %s\n"
               "usage: damperf --workload <steady-churn|giant-burst|"
               "frozen-deep|rivals> --seed <n> --seconds <s> --trace <0|1> "
               "[--trace-dir <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) usage("malformed arguments");
    args[key.substr(2)] = argv[i + 1];
  }
  Options options;
  try {
    for (const auto& [key, value] : args) {
      std::size_t used = 0;
      if (key == "workload") {
        options.workload = value;
      } else if (key == "seed") {
        options.seed = std::stoull(value, &used);
      } else if (key == "seconds") {
        options.seconds = std::stod(value, &used);
      } else if (key == "trace") {
        options.trace = std::stoi(value, &used) != 0;
      } else if (key == "trace-dir") {
        options.trace_dir = value;
      } else {
        usage(("unknown option --" + key).c_str());
      }
      if (key != "workload" && key != "trace-dir" && used != value.size()) {
        usage(("bad value for --" + key).c_str());
      }
    }
  } catch (const std::exception&) {
    usage("bad numeric argument");
  }
  if (!(options.seconds > 0.0 && options.seconds <= 3600.0)) {
    usage("--seconds must be in (0, 3600]");
  }
  if (options.trace_dir.empty()) options.trace_dir = "damperf-traces";
  return options;
}

void print_json(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Report::Metric& metric = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metric.name.c_str(),
                std::isfinite(metric.value) ? metric.value : 0.0,
                metric.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

}  // namespace damperf

int main(int argc, char** argv) {
  using namespace damperf;
  const Options options = parse(argc, argv);
  Report (*run)(const Options&) = nullptr;
  if (options.workload == "steady-churn") run = run_steady_churn;
  if (options.workload == "giant-burst") run = run_giant_burst;
  if (options.workload == "frozen-deep") run = run_frozen_deep;
  if (options.workload == "rivals") run = run_rivals;
  if (run == nullptr) usage("unknown workload");
  try {
    Report report = run(options);
    for (const Report::Metric& metric : report.metrics) {
      if (!std::isfinite(metric.value)) report.fault(metric.name + " is not finite");
    }
    print_json(report);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "damperf: %s\n", error.what());
    return 1;
  }
  return 0;
}
