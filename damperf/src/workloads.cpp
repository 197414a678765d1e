// The four benchmark workloads. Each calls the library's public entry
// points directly and times them from the outside:
//
//   steady-churn  workload::run_dynamic_simulation on the steady-churn
//                 preset at scale 5 (churn, joins, seen-set GC)
//   giant-burst   workload::run_dynamic_simulation on giant-dynamic: one
//                 wave through 10^5 processes, sharded spawn
//   frozen-deep   core::run_frozen_simulation on giant-deep at scale 10
//   rivals        baselines::run_steady_baseline, tree and flood, on the
//                 steady-churn stream
//
// Untraced run: one untimed check pass (which also warms the allocator),
// then the timed phase: repeated set-ups, then repeated replays until
// --seconds have passed. Every replay of a simulation must reproduce the
// check pass exactly. Traced run: the same calls inside spans, with the
// dynamic engine stepped round by round through DamSystem's public calls,
// plus one untraced replay to compare counts and measure the overhead.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/formulas.hpp"
#include "baselines/steady.hpp"
#include "bench.hpp"
#include "checks.hpp"
#include "core/frozen_sim.hpp"
#include "core/system.hpp"
#include "exp/grid.hpp"
#include "sim/failure.hpp"
#include "sim/scenario.hpp"
#include "sim/trace.hpp"
#include "trace.hpp"
#include "workload/driver.hpp"
#include "workload/traffic.hpp"

namespace damperf {

namespace {

using namespace dam;

/// "Never recovers": run_dynamic_simulation's sentinel for leaves and
/// stillborn coins.
constexpr sim::Round kNever = sim::Round{1} << 30;

constexpr double kMiB = 1024.0 * 1024.0;

/// Every per-layer metric, in print order. A workload reports 0 for a layer
/// it does not run.
const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"workload.stream_s", "s"},
    {"workload.publications", "count"},
    {"topics.bind_s", "s"},
    {"core.spawn_s", "s"},
    {"core.view_arena_mib", "MiB"},
    {"core.quiet_ns_per_node_round", "ns"},
    {"membership.control_msgs", "count"},
    {"membership.control_per_node_round", "msgs"},
    {"core.round_ms_p50", "ms"},
    {"core.round_ms_p95", "ms"},
    {"net.event_msgs", "count"},
    {"core.duplicates_per_delivery", "ratio"},
    {"net.peak_queue_mib", "MiB"},
    {"core.bookkeeping_mib", "MiB"},
    {"core.retired_events", "count"},
    {"sim.churn_events", "count"},
    {"core.tables_s", "s"},
    {"core.table_mib", "MiB"},
    {"core.waves_s", "s"},
    {"core.intergroup_msgs", "count"},
    {"baselines.tree_s", "s"},
    {"baselines.flood_s", "s"},
    {"baselines.tree_msgs", "count"},
    {"baselines.flood_msgs", "count"},
    {"trace.overhead_pct", "%"},
};

using Layers = std::map<std::string, double>;

void report_layers(const Layers& layers, Report& report) {
  for (const auto& [name, unit] : kPerLayer) {
    const auto it = layers.find(name);
    report.add(name, it == layers.end() ? 0.0 : it->second, unit);
  }
  for (const auto& [name, value] : layers) {
    bool known = false;
    for (const auto& entry : kPerLayer) known = known || name == entry.first;
    if (!known) report.fault("unlisted per-layer metric " + name);
    (void)value;
  }
}

void write_trace(const Tracer& tracer, const Options& options,
                 Report& report) {
  std::error_code error;
  std::filesystem::create_directories(options.trace_dir, error);
  const std::string path = options.trace_dir + "/" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".json";
  if (!tracer.write(path, options.workload, options.seed)) {
    report.fault("cannot write spans to " + path);
    return;
  }
  std::fprintf(stderr, "spans written to %s\n", path.c_str());
}

/// A registry preset at `scale`, seeded from the benchmark's --seed.
sim::Scenario preset(std::string_view name, double scale,
                     std::uint64_t seed) {
  const sim::Scenario* found = sim::find_scenario(name);
  if (found == nullptr) {
    throw std::runtime_error("no preset named " + std::string(name));
  }
  sim::Scenario scenario = *found;
  if (scale != 1.0) exp::apply_grid_point(scenario, {{"scale", scale}});
  scenario.base_seed = found->base_seed + 0x9E3779B97F4A7C15ULL * seed;
  return scenario;
}

/// closure[t][g] != 0 iff group g's topic includes topic t (g is t or one
/// of its ancestors), from the scenario's own edge list.
using Closure = std::vector<std::vector<char>>;

Closure closure_of(const sim::Scenario& scenario) {
  const std::size_t count = scenario.topic_names.size();
  std::vector<std::vector<std::uint32_t>> parents(count);
  for (const auto& [child, parent] : scenario.super_edges) {
    parents[child].push_back(parent);
  }
  Closure closure(count, std::vector<char>(count, 0));
  for (std::size_t topic = 0; topic < count; ++topic) {
    std::vector<std::uint32_t> pending{static_cast<std::uint32_t>(topic)};
    while (!pending.empty()) {
      const std::uint32_t group = pending.back();
      pending.pop_back();
      if (closure[topic][group] != 0) continue;
      closure[topic][group] = 1;
      for (const std::uint32_t parent : parents[group]) {
        pending.push_back(parent);
      }
    }
  }
  return closure;
}

/// The gossip fanout law, computed here rather than taken from the library.
std::uint64_t fanout_law(std::size_t size, double c) {
  const double raw = std::log(static_cast<double>(size)) + c;
  return static_cast<std::uint64_t>(std::ceil(std::max(raw, 1.0)));
}

std::size_t initial_processes(const sim::Scenario& scenario) {
  std::size_t total = 0;
  for (const std::size_t size : scenario.group_sizes) total += size;
  return total;
}

workload::EventStream make_stream(const sim::Scenario& scenario) {
  workload::TrafficShape shape;
  shape.topic_count = scenario.topic_names.size();
  shape.publish_topic = scenario.publish_topic;
  shape.initial_processes = initial_processes(scenario);
  return workload::generate_stream(scenario.workload, shape,
                                   scenario.seed_for(1.0, 0));
}

double median_of(std::vector<double> values) {
  return Samples{"", std::move(values)}.median();
}

/// Merges per-publication self-test results: a corruption is applicable
/// when it applied to any publication, and caught when every application
/// was caught.
void merge_self_test(std::vector<SelfTest>& into,
                     const std::vector<SelfTest>& one) {
  if (into.empty()) {
    into = one;
    return;
  }
  for (std::size_t i = 0; i < into.size(); ++i) {
    if (!one[i].applicable) continue;
    into[i].caught = (into[i].applicable ? into[i].caught : true) &&
                     one[i].caught;
    into[i].applicable = true;
  }
}

void print_failures(const std::string& what,
                    const std::vector<std::string>& failures) {
  for (const std::string& failure : failures) {
    std::fprintf(stderr, "check failed (%s): %s\n", what.c_str(),
                 failure.c_str());
  }
}

// --- Dynamic engine -------------------------------------------------------

/// A DamSystem ready for its first round, built exactly as
/// workload::run_dynamic_simulation builds it for run 0 at alive 1.0.
struct DynamicSystem {
  workload::EventStream stream;
  std::unique_ptr<workload::DynamicScenarioBinding> binding;
  std::unique_ptr<sim::TraceRecorder> recorder;  // before `system`: it
  std::unique_ptr<core::DamSystem> system;       // holds a pointer to it
  std::size_t churn_events = 0;
  double stream_s = 0.0;
  double bind_s = 0.0;
  double spawn_s = 0.0;
};

DynamicSystem set_up(const sim::Scenario& scenario, Tracer* tracer) {
  SpanScope setup(tracer, "setup");
  DynamicSystem d;
  const std::uint64_t seed = scenario.seed_for(1.0, 0);
  const workload::WorkloadConfig& wl = scenario.workload;
  const std::size_t initial = initial_processes(scenario);
  {
    SpanScope span(tracer, "workload.generate_stream");
    const auto started = Clock::now();
    d.stream = make_stream(scenario);
    d.stream_s = seconds_since(started);
    span.count("publications",
               static_cast<double>(workload::publication_count(d.stream)));
  }
  {
    SpanScope span(tracer, "topics.bind_scenario");
    const auto started = Clock::now();
    d.binding = std::make_unique<workload::DynamicScenarioBinding>(
        workload::bind_scenario(scenario));
    d.bind_s = seconds_since(started);
  }
  {
    SpanScope span(tracer, "core.construct_system");
    core::DamSystem::Config config;
    config.seed = workload::stream_rng(seed, workload::StreamId::kSystem, 0)();
    config.node.params = scenario.params.front();
    config.auto_wire_super_tables = wl.engine.auto_wire_super_tables;
    config.neighborhood_degree = wl.engine.neighborhood_degree;
    config.node.recovery.enabled = wl.engine.recovery_enabled;
    config.node.recovery.history_size = wl.engine.recovery_history;
    config.node.recovery.digest_size = wl.engine.recovery_digest;
    config.node.seen_gc_horizon = wl.engine.gc_horizon;
    config.threads = scenario.threads;
    d.recorder = std::make_unique<sim::TraceRecorder>(0);
    d.system = std::make_unique<core::DamSystem>(d.binding->hierarchy, config);
    d.system->set_trace_recorder(d.recorder.get());
  }
  {
    SpanScope span(tracer, "sim.failure_schedule");
    std::size_t joins = 0;
    for (const workload::TrafficEvent& event : d.stream) {
      joins += event.kind == workload::TrafficEvent::Kind::kJoin;
    }
    auto failures = std::make_unique<sim::ChurnFailures>(initial + joins);
    // Stillborn coins at alive fraction 1.0 never fire; they are drawn
    // because run_dynamic_simulation draws them.
    for (std::size_t p = 0; p < initial; ++p) {
      util::Rng coin =
          workload::stream_rng(seed, workload::StreamId::kStillborn, p);
      if (coin.bernoulli(0.0)) {
        failures->add_downtime(topics::ProcessId{static_cast<std::uint32_t>(p)},
                               {0, kNever});
      }
    }
    const std::size_t warmup = wl.engine.warmup_rounds;
    for (const workload::TrafficEvent& event : d.stream) {
      const bool crash = event.kind == workload::TrafficEvent::Kind::kCrash;
      const bool leave = event.kind == workload::TrafficEvent::Kind::kLeave;
      d.churn_events +=
          crash || leave || event.kind == workload::TrafficEvent::Kind::kJoin;
      if (!crash && !leave) continue;
      const sim::Round down = warmup + event.round;
      const sim::Round up =
          crash ? down + std::max<std::size_t>(event.length, 1) : kNever;
      failures->add_downtime(
          topics::ProcessId{static_cast<std::uint32_t>(event.actor)},
          {down, up});
    }
    d.system->set_failure_model(std::move(failures));
  }
  {
    SpanScope span(tracer, "core.spawn_group");
    const auto started = Clock::now();
    for (std::size_t topic = 0; topic < scenario.topic_names.size();
         ++topic) {
      d.system->spawn_group(d.binding->topic_ids[topic],
                            scenario.group_sizes[topic]);
    }
    d.spawn_s = seconds_since(started);
    span.count("processes", static_cast<double>(d.system->process_count()));
    span.count("view_arena_bytes",
               static_cast<double>(d.system->view_arena_bytes()));
  }
  return d;
}

/// What two runs of one dynamic simulation must agree on.
struct DynamicCounts {
  std::size_t publications = 0;
  std::size_t rounds = 0;
  std::uint64_t event_msgs = 0;
  std::uint64_t control_msgs = 0;
  std::uint64_t inter_msgs = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t expected = 0;
  double reliability = 0.0;
  util::QuantileSketch latency;
  std::size_t queue_bytes = 0;
  std::size_t arena_bytes = 0;
};

DynamicCounts counts_of(const workload::DynamicRunResult& result) {
  DynamicCounts counts;
  counts.publications = result.publications;
  counts.rounds = result.rounds;
  counts.event_msgs = result.total_messages;
  counts.control_msgs = result.control_messages;
  counts.inter_msgs = result.trace_inter_sends;
  counts.deliveries = result.trace_delivers;
  counts.expected = result.expected_deliveries;
  counts.reliability = result.event_reliability;
  counts.latency = result.latency_sketch;
  counts.queue_bytes = result.queue_bytes;
  counts.arena_bytes = result.table_bytes;
  return counts;
}

std::vector<std::string> differences(const DynamicCounts& a,
                                     const DynamicCounts& b) {
  std::vector<std::string> out;
  auto same = [&out](const char* what, double x, double y) {
    if (x != y) {
      out.push_back(std::string(what) + " " + std::to_string(x) + " vs " +
                    std::to_string(y));
    }
  };
  same("publications", a.publications, b.publications);
  same("rounds", a.rounds, b.rounds);
  same("event messages", a.event_msgs, b.event_msgs);
  same("control messages", a.control_msgs, b.control_msgs);
  same("intergroup messages", a.inter_msgs, b.inter_msgs);
  same("deliveries", a.deliveries, b.deliveries);
  same("expected deliveries", a.expected, b.expected);
  same("latency samples", a.latency.count(), b.latency.count());
  same("latency p50", round_quantile(a.latency, 0.5),
       round_quantile(b.latency, 0.5));
  same("latency p999", round_quantile(a.latency, 0.999),
       round_quantile(b.latency, 0.999));
  same("peak queue bytes", a.queue_bytes, b.queue_bytes);
  same("view arena bytes", a.arena_bytes, b.arena_bytes);
  if (std::abs(a.reliability - b.reliability) > 1e-12) {
    same("reliability", a.reliability, b.reliability);
  }
  return out;
}

/// The benchmark's own replay of run_dynamic_simulation's loop, through
/// DamSystem's public calls, recounting every publication at its deadline.
struct SteppedReplay {
  DynamicCounts counts;
  std::vector<Tally> tallies;  ///< one per publication
  std::size_t redeliveries = 0;
  std::size_t retired = 0;
  std::size_t bookkeeping_peak = 0;  ///< sampled when traced
  std::uint64_t duplicates = 0;
  std::uint64_t node_rounds = 0;
  double replay_s = 0.0;
};

SteppedReplay replay(DynamicSystem& d, const sim::Scenario& scenario,
                     const Closure& closure, Tracer* tracer) {
  core::DamSystem& system = *d.system;
  const workload::DynamicScenarioBinding& binding = *d.binding;
  const workload::WorkloadConfig& wl = scenario.workload;
  const sim::FailureModel& alive_model = system.failure_model();
  const std::size_t topic_count = scenario.topic_names.size();
  const std::size_t warmup = wl.engine.warmup_rounds;
  const std::size_t horizon = std::max<std::size_t>(wl.arrival.horizon, 1);
  const std::size_t drain = wl.engine.drain_rounds;
  const bool gc = wl.engine.gc_horizon > 0;
  const std::size_t window = system.metrics().timeline().window_rounds();

  struct Publication {
    net::EventId event;
    std::uint32_t topic = 0;
    std::size_t deadline = 0;
    double ratio = -1.0;
    bool harvested = false;
  };
  std::vector<Publication> published;
  SteppedReplay out;
  std::size_t rounds = 0;
  const auto started = Clock::now();

  auto tally = [&](const Publication& pub) {
    const sim::Round now = system.now();
    const auto& delivered = system.delivered_set(pub.event);
    Tally t;
    for (std::size_t g = 0; g < topic_count; ++g) {
      GroupTally group;
      group.in_closure = closure[pub.topic][g] != 0;
      const auto& members = system.registry().group(binding.topic_ids[g]);
      group.members = members.size();
      for (const topics::ProcessId member : members) {
        const bool alive = alive_model.alive(member, now);
        const bool got = delivered.contains(member);
        group.alive += alive;
        group.received += got;
        group.delivered += alive && got;
      }
      t.groups.push_back(group);
    }
    const auto& latencies = system.metrics().event_latencies();
    const auto it = latencies.find(pub.event);
    t.engine_received = it == latencies.end() ? 0 : it->second.deliveries;
    out.counts.expected += expected_of(t);
    out.tallies.push_back(std::move(t));
  };
  auto harvest = [&] {
    SpanScope span(tracer, "core.harvest");
    for (Publication& pub : published) {
      if (pub.ratio >= 0.0 || pub.deadline > rounds) continue;
      pub.ratio = system.delivery_ratio(pub.event);
      if (!gc) continue;
      tally(pub);
      pub.harvested = true;
      system.metrics().retire_event(pub.event);
      system.retire_event(pub.event);
      ++out.retired;
    }
  };
  auto sample_bookkeeping = [&] {
    if (tracer == nullptr) return;
    SpanScope span(tracer, "core.bookkeeping_gauges");
    const core::DamSystem::BookkeepingGauges gauges =
        system.bookkeeping_gauges();
    out.bookkeeping_peak =
        std::max(out.bookkeeping_peak, gauges.seen_bytes +
                                           gauges.delivered_bytes +
                                           gauges.request_bytes);
  };
  auto step = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      {
        SpanScope span(tracer, "core.run_rounds");
        const sim::Metrics& metrics = system.metrics();
        const std::uint64_t events = metrics.total_event_messages();
        const std::uint64_t control = metrics.total_control_messages();
        const std::uint64_t delivers =
            d.recorder->total(sim::TraceKind::kDeliver);
        system.run_rounds(1);
        if (tracer != nullptr) {
          const double event_delta =
              static_cast<double>(metrics.total_event_messages() - events);
          const double deliver_delta = static_cast<double>(
              d.recorder->total(sim::TraceKind::kDeliver) - delivers);
          span.count("busy", event_delta + deliver_delta > 0 ? 1 : 0);
          span.count("event_msgs", event_delta);
          span.count("control_msgs", static_cast<double>(
                                         metrics.total_control_messages() -
                                         control));
          span.count("deliveries", deliver_delta);
        }
      }
      ++rounds;
      out.node_rounds += system.process_count();
      harvest();
      if (rounds % window == 0) sample_bookkeeping();
    }
  };

  step(warmup);
  std::size_t next = 0;
  const workload::EventStream& stream = d.stream;
  for (std::size_t round = 0; round < horizon; ++round) {
    for (; next < stream.size() && stream[next].round == round; ++next) {
      const workload::TrafficEvent& event = stream[next];
      if (event.kind == workload::TrafficEvent::Kind::kJoin) {
        system.spawn(binding.topic_ids[event.topic]);
      } else if (event.kind == workload::TrafficEvent::Kind::kPublish) {
        const auto& group =
            system.registry().group(binding.topic_ids[event.topic]);
        if (group.empty()) continue;
        const std::size_t start = event.actor % group.size();
        for (std::size_t offset = 0; offset < group.size(); ++offset) {
          const topics::ProcessId candidate =
              group[(start + offset) % group.size()];
          if (!alive_model.alive(candidate, system.now())) continue;
          SpanScope span(tracer, "core.publish");
          published.push_back({system.publish(candidate), event.topic,
                               rounds + std::max<std::size_t>(drain, 1)});
          break;
        }
      }
    }
    step(1);
  }
  step(drain);
  sample_bookkeeping();

  double reliability_sum = 0.0;
  for (const Publication& pub : published) {
    reliability_sum +=
        pub.ratio >= 0.0 ? pub.ratio : system.delivery_ratio(pub.event);
    if (!pub.harvested) tally(pub);
  }
  const sim::Metrics& metrics = system.metrics();
  DynamicCounts& counts = out.counts;
  counts.publications = published.size();
  counts.rounds = rounds;
  counts.event_msgs = metrics.total_event_messages();
  counts.control_msgs = metrics.total_control_messages();
  counts.inter_msgs = d.recorder->total(sim::TraceKind::kInterSend);
  counts.deliveries = d.recorder->total(sim::TraceKind::kDeliver);
  counts.reliability =
      published.empty()
          ? 0.0
          : reliability_sum / static_cast<double>(published.size());
  counts.latency = metrics.latency_sketch();
  counts.queue_bytes = system.peak_queue_bytes();
  counts.arena_bytes = system.view_arena_bytes();
  for (std::uint32_t p = 0; p < system.process_count(); ++p) {
    out.duplicates += system.node(topics::ProcessId{p}).duplicate_count();
  }
  out.redeliveries = system.redeliveries();
  out.replay_s = seconds_since(started);
  return out;
}

/// Runs every check on a stepped replay; returns the failed publications.
std::uint64_t failed_publications(const SteppedReplay& stepped) {
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < stepped.tallies.size(); ++i) {
    const std::vector<std::string> failures = check_tally(stepped.tallies[i]);
    print_failures("publication " + std::to_string(i), failures);
    failed += failures.empty() ? 0 : 1;
  }
  std::vector<std::string> run_level = check_latency(
      round_quantile(stepped.counts.latency, 0.5),
      round_quantile(stepped.counts.latency, 0.999),
      static_cast<double>(stepped.counts.rounds));
  if (stepped.redeliveries != 0) {
    run_level.push_back(std::to_string(stepped.redeliveries) +
                        " redeliveries of live events");
  }
  print_failures("run", run_level);
  return run_level.empty() ? failed : stepped.counts.publications;
}

void dynamic_end_to_end(const DynamicCounts& counts, EndToEnd& e2e) {
  e2e.reliability = counts.reliability;
  e2e.latency = counts.latency;
  e2e.msgs_per_delivery =
      static_cast<double>(counts.event_msgs + counts.control_msgs) /
      static_cast<double>(counts.deliveries);
}

struct DynamicPlan {
  std::size_t setups = 10;       ///< timed set-ups per untraced run
  std::size_t quiet_rounds = 32; ///< rounds of the quiet probe
};

Report run_dynamic(const Options& options, const sim::Scenario& scenario,
                   const DynamicPlan& plan) {
  Report report;
  const Closure closure = closure_of(scenario);
  const workload::DynamicScenarioBinding binding =
      workload::bind_scenario(scenario);
  auto untraced = [&] {
    const auto started = Clock::now();
    workload::DynamicRunResult result =
        workload::run_dynamic_simulation(scenario, binding, 1.0, 0);
    const double replay_s =
        seconds_since(started) - result.table_build_seconds;
    return std::make_pair(std::move(result), replay_s);
  };

  if (!options.trace) {
    SteppedReplay reference;
    {
      DynamicSystem d = set_up(scenario, nullptr);
      reference = replay(d, scenario, closure, nullptr);
    }
    const std::uint64_t publications = reference.counts.publications;
    report.attempted += publications;
    report.failed += failed_publications(reference);
    std::vector<SelfTest> tests;
    for (const Tally& tally : reference.tallies) {
      merge_self_test(tests, self_test(tally));
    }
    if (!report_self_test(tests)) report.fault("self-test missed a corruption");

    EndToEnd e2e;
    const auto started = Clock::now();
    for (std::size_t i = 0; i < plan.setups; ++i) {
      const auto setup_started = Clock::now();
      DynamicSystem d = set_up(scenario, nullptr);
      e2e.setup.values.push_back(seconds_since(setup_started));
    }
    Pacer pacer(started, options.seconds, 3);
    while (pacer.another()) {
      const auto [result, replay_s] = untraced();
      report.attempted += publications;
      const std::vector<std::string> diff =
          differences(reference.counts, counts_of(result));
      print_failures("replay against the check pass", diff);
      if (!diff.empty()) report.failed += publications;
      e2e.replay_ns.values.push_back(
          replay_s * 1e9 / static_cast<double>(result.trace_delivers));
    }
    dynamic_end_to_end(reference.counts, e2e);
    report_end_to_end(e2e, report);
    return report;
  }

  Tracer tracer;
  Layers layers;
  std::vector<double> stream_s, bind_s, spawn_s;
  for (std::size_t i = 0; i < std::max<std::size_t>(plan.setups / 2, 3);
       ++i) {
    DynamicSystem d = set_up(scenario, &tracer);
    stream_s.push_back(d.stream_s);
    bind_s.push_back(d.bind_s);
    spawn_s.push_back(d.spawn_s);
  }
  SteppedReplay stepped;
  std::size_t churn_events = 0;
  {
    SpanScope span(&tracer, "replay");
    DynamicSystem d = set_up(scenario, &tracer);
    churn_events = d.churn_events;
    stepped = replay(d, scenario, closure, &tracer);
  }
  const std::uint64_t publications = stepped.counts.publications;
  report.attempted += 2 * publications;
  report.failed += failed_publications(stepped);
  const auto [result, untraced_s] = untraced();
  const std::vector<std::string> diff =
      differences(stepped.counts, counts_of(result));
  print_failures("traced replay against run_dynamic_simulation", diff);
  if (!diff.empty()) report.failed += publications;

  double quiet_ns = 0.0;
  {
    SpanScope span(&tracer, "quiet_probe");
    DynamicSystem d = set_up(scenario, &tracer);
    const auto started = Clock::now();
    for (std::size_t r = 0; r < plan.quiet_rounds; ++r) {
      SpanScope round(&tracer, "core.quiet_round");
      d.system->run_rounds(1);
    }
    quiet_ns = seconds_since(started) * 1e9 /
               static_cast<double>(plan.quiet_rounds *
                                   d.system->process_count());
  }

  const DynamicCounts& c = stepped.counts;
  std::vector<double> round_ms = tracer.seconds_of("core.run_rounds");
  for (double& value : round_ms) value *= 1e3;
  const Samples rounds{"core.round_ms", round_ms};
  layers["workload.stream_s"] = median_of(stream_s);
  layers["workload.publications"] = static_cast<double>(c.publications);
  layers["topics.bind_s"] = median_of(bind_s);
  layers["core.spawn_s"] = median_of(spawn_s);
  layers["core.view_arena_mib"] = static_cast<double>(c.arena_bytes) / kMiB;
  layers["core.quiet_ns_per_node_round"] = quiet_ns;
  layers["membership.control_msgs"] = static_cast<double>(c.control_msgs);
  layers["membership.control_per_node_round"] =
      static_cast<double>(c.control_msgs) /
      static_cast<double>(stepped.node_rounds);
  layers["core.round_ms_p50"] = rounds.median();
  // A 95th percentile needs enough rounds beyond it to be a tail.
  layers["core.round_ms_p95"] =
      round_ms.size() >= 200 ? rounds.quantile(0.95) : 0.0;
  layers["net.event_msgs"] = static_cast<double>(c.event_msgs);
  layers["core.duplicates_per_delivery"] =
      static_cast<double>(stepped.duplicates) /
      static_cast<double>(c.deliveries);
  layers["net.peak_queue_mib"] = static_cast<double>(c.queue_bytes) / kMiB;
  layers["core.bookkeeping_mib"] =
      static_cast<double>(stepped.bookkeeping_peak) / kMiB;
  layers["core.retired_events"] = static_cast<double>(stepped.retired);
  layers["sim.churn_events"] = static_cast<double>(churn_events);
  layers["core.intergroup_msgs"] = static_cast<double>(c.inter_msgs);
  layers["trace.overhead_pct"] = (stepped.replay_s / untraced_s - 1.0) * 100.0;
  rounds.print();
  report_layers(layers, report);
  write_trace(tracer, options, report);
  return report;
}

// --- Frozen engine --------------------------------------------------------

/// Every check of one frozen run (one publication).
std::vector<std::string> frozen_failures(const core::FrozenRunResult& result,
                                         const sim::Scenario& scenario,
                                         const Closure& closure,
                                         Tally* tally_out) {
  const std::uint32_t publish = scenario.publish_topic;
  const double c = scenario.params.front().c;
  Tally tally;
  std::uint64_t expected = 0;
  std::vector<std::size_t> reached;  // sizes of reached groups, root first
  for (std::size_t g = 0; g < result.groups.size(); ++g) {
    const core::FrozenGroupResult& engine = result.groups[g];
    GroupTally group;
    group.in_closure = closure[publish][g] != 0;
    group.members = scenario.group_sizes[g];
    group.alive = scenario.group_sizes[g];  // alive fraction 1: nobody fails
    group.delivered = engine.delivered;
    group.received = engine.delivered;
    group.sent = engine.intra_sent;
    group.fanout = fanout_law(scenario.group_sizes[g], c);
    if (group.in_closure) expected += group.alive;
    if (engine.delivered > 0) reached.push_back(scenario.group_sizes[g]);
    tally.groups.push_back(group);
  }
  for (const std::uint64_t count : result.deliveries_per_round) {
    tally.engine_received += count;
  }
  std::vector<std::string> failures = check_tally(tally);
  if (expected != result.expected_deliveries) {
    failures.push_back("expected deliveries " +
                       std::to_string(result.expected_deliveries) +
                       ", recomputed " + std::to_string(expected));
  }
  for (std::string& f : check_latency(
           round_quantile(result.latency_sketch, 0.5),
           round_quantile(result.latency_sketch, 0.999),
           static_cast<double>(result.rounds))) {
    failures.push_back(std::move(f));
  }
  // The paper's closed form for the groups the event reached. Rounding the
  // fanout up puts the simulation up to ~3% above it at these sizes.
  constexpr double kTolerance = 0.05;
  const core::TopicParams& p = scenario.params.front();
  const double analysis =
      analysis::dam_total_messages(reached, p.c, p.g, p.a, p.z, p.psucc);
  const double measured = static_cast<double>(result.total_messages);
  if (std::abs(measured - analysis) > kTolerance * analysis) {
    failures.push_back("total messages " + std::to_string(measured) +
                       " not within 5% of the analysis " +
                       std::to_string(analysis));
  }
  if (tally_out != nullptr) *tally_out = std::move(tally);
  return failures;
}

std::uint64_t frozen_deliveries(const core::FrozenRunResult& result) {
  std::uint64_t total = 0;
  for (const std::uint64_t count : result.deliveries_per_round) total += count;
  return total;
}

bool same_frozen(const core::FrozenRunResult& a,
                 const core::FrozenRunResult& b) {
  return a.rounds == b.rounds && a.total_messages == b.total_messages &&
         a.expected_deliveries == b.expected_deliveries &&
         a.deliveries_per_round == b.deliveries_per_round &&
         a.table_bytes == b.table_bytes;
}

/// The steady-churn preset at scale 5 (50/500/5000 processes) with its
/// traffic made the same size for every seed. The preset draws each of its
/// eight publishers' home topics at random and adds a Poisson background,
/// so from seed to seed a run holds from none to all of its traffic in the
/// 5000-process bottom group and its work swings by 2x. Here every
/// publisher is homed on the middle topic T1 and publishes once every 8
/// rounds, all eight together (184 publications over 192 rounds); a seed
/// changes who publishes and who crashes, leaves and joins, not how much
/// work the run holds. Publications reach T1 and T0; the 5000 bottom
/// processes only tick, so most node-rounds carry no event traffic.
sim::Scenario steady_churn(std::uint64_t seed) {
  sim::Scenario scenario = preset("steady-churn", 5.0, seed);
  scenario.workload.popularity.kind = workload::PopularityKind::kSingle;
  scenario.publish_topic = 1;
  scenario.workload.steady.rate = 0.0;
  scenario.workload.steady.burst_every = 8;
  scenario.workload.steady.burst_size = 1;
  scenario.workload.steady.burst_width = 1;
  return scenario;
}

}  // namespace

Report run_steady_churn(const Options& options) {
  DynamicPlan plan;
  plan.setups = 40;
  plan.quiet_rounds = 64;
  return run_dynamic(options, steady_churn(options.seed), plan);
}

Report run_giant_burst(const Options& options) {
  sim::Scenario scenario = preset("giant-dynamic", 1.0, options.seed);
  scenario.threads = bench_threads();
  DynamicPlan plan;
  plan.setups = 5;
  plan.quiet_rounds = 8;
  return run_dynamic(options, scenario, plan);
}

Report run_frozen_deep(const Options& options) {
  sim::Scenario scenario = preset("giant-deep", 10.0, options.seed);
  scenario.threads = bench_threads();
  const Closure closure = closure_of(scenario);
  const topics::TopicDag dag = scenario.build_dag();
  // Sub-runs pool eight publications: one publication's climb up the eight
  // levels decides the tail latency, and one chain that dies early decides
  // its reliability, so a single one swings from seed to seed.
  constexpr int kSubRuns = 8;
  constexpr std::size_t kSetups = 8;
  Report report;

  // One frozen run is one publication: it fails when a check fails for it
  // or when it differs from the first run of the same sub-run.
  auto check = [&](const core::FrozenRunResult& result, int run,
                   Tally* tally, const core::FrozenRunResult* first) {
    std::vector<std::string> failures =
        frozen_failures(result, scenario, closure, tally);
    if (first != nullptr && !same_frozen(*first, result)) {
      failures.push_back("differs from the first run of sub-run " +
                         std::to_string(run));
    }
    print_failures("sub-run " + std::to_string(run), failures);
    ++report.attempted;
    report.failed += failures.empty() ? 0 : 1;
  };
  struct Setup {
    double setup_s = 0.0;
    double tables_s = 0.0;
    std::size_t table_bytes = 0;
  };
  auto timed_setup = [&](int run, Tracer* tracer) {
    SpanScope span(tracer, "setup");
    Setup out;
    const auto started = Clock::now();
    topics::TopicDag own_dag;
    {
      SpanScope bind(tracer, "topics.build_dag");
      own_dag = scenario.build_dag();
    }
    const core::FrozenSimConfig config = scenario.config_for(own_dag, 1.0, run);
    const auto tables_started = Clock::now();
    SpanScope build(tracer, "core.build_frozen_tables");
    util::Rng rng(config.seed);
    const core::FrozenTables tables = core::build_frozen_tables(config, rng);
    out.tables_s = seconds_since(tables_started);
    out.setup_s = seconds_since(started);
    out.table_bytes = tables.arena_bytes();
    build.count("table_bytes", static_cast<double>(out.table_bytes));
    return out;
  };

  if (!options.trace) {
    std::vector<core::FrozenRunResult> reference;
    {
      core::FrozenRunResult warm =
          core::run_frozen_simulation(scenario.config_for(dag, 1.0, 0));
      Tally tally;
      check(warm, 0, &tally, nullptr);
      if (!report_self_test(self_test(tally))) {
        report.fault("self-test missed a corruption");
      }
      reference.push_back(std::move(warm));
    }
    EndToEnd e2e;
    const auto started = Clock::now();
    for (std::size_t i = 0; i < kSetups; ++i) {
      e2e.setup.values.push_back(
          timed_setup(static_cast<int>(i) % kSubRuns, nullptr).setup_s);
    }
    // Whole cycles over the sub-runs, so every run holds each sub-run
    // equally often.
    Pacer pacer(started, options.seconds, 1);
    while (pacer.another()) {
      for (int run = 0; run < kSubRuns; ++run) {
        const auto replay_started = Clock::now();
        core::FrozenRunResult result =
            core::run_frozen_simulation(scenario.config_for(dag, 1.0, run));
        const double wall = seconds_since(replay_started);
        const auto index = static_cast<std::size_t>(run);
        check(result, run, nullptr,
              index < reference.size() ? &reference[index] : nullptr);
        e2e.replay_ns.values.push_back(
            (wall - result.table_build_seconds) * 1e9 /
            static_cast<double>(frozen_deliveries(result)));
        if (index >= reference.size()) reference.push_back(std::move(result));
      }
    }

    std::uint64_t delivered = 0;
    std::uint64_t expected = 0;
    std::uint64_t messages = 0;
    std::uint64_t deliveries = 0;
    for (const core::FrozenRunResult& result : reference) {
      for (const core::FrozenGroupResult& group : result.groups) {
        delivered += group.delivered;
      }
      expected += result.expected_deliveries;
      messages += result.total_messages;
      deliveries += frozen_deliveries(result);
      e2e.latency.merge(result.latency_sketch);
    }
    e2e.reliability =
        static_cast<double>(delivered) / static_cast<double>(expected);
    e2e.msgs_per_delivery =
        static_cast<double>(messages) / static_cast<double>(deliveries);
    report_end_to_end(e2e, report);
    return report;
  }

  Tracer tracer;
  Layers layers;
  const Setup setup = timed_setup(0, &tracer);
  core::FrozenRunResult traced;
  double traced_s = 0.0;
  {
    SpanScope span(&tracer, "replay");
    SpanScope call(&tracer, "core.run_frozen_simulation");
    const auto started = Clock::now();
    traced = core::run_frozen_simulation(scenario.config_for(dag, 1.0, 0));
    traced_s = seconds_since(started);
    call.count("rounds", static_cast<double>(traced.rounds));
    call.count("messages", static_cast<double>(traced.total_messages));
  }
  check(traced, 0, nullptr, nullptr);
  const auto started = Clock::now();
  const core::FrozenRunResult untraced =
      core::run_frozen_simulation(scenario.config_for(dag, 1.0, 0));
  const double untraced_s = seconds_since(started);
  check(untraced, 0, nullptr, &traced);
  if (traced.table_bytes != setup.table_bytes) {
    report.fault("build_frozen_tables and run_frozen_simulation built "
                 "different tables");
  }
  std::uint64_t inter = 0;
  std::uint64_t duplicates = 0;
  for (const core::FrozenGroupResult& group : traced.groups) {
    inter += group.inter_sent;
    duplicates += group.duplicate_deliveries;
  }
  layers["topics.bind_s"] = median_of(tracer.seconds_of("topics.build_dag"));
  layers["core.tables_s"] = setup.tables_s;
  layers["core.table_mib"] = static_cast<double>(setup.table_bytes) / kMiB;
  layers["core.waves_s"] = traced_s - traced.table_build_seconds;
  layers["core.intergroup_msgs"] = static_cast<double>(inter);
  layers["core.duplicates_per_delivery"] =
      static_cast<double>(duplicates) /
      static_cast<double>(frozen_deliveries(traced));
  layers["trace.overhead_pct"] =
      ((traced_s - traced.table_build_seconds) /
           (untraced_s - untraced.table_build_seconds) -
       1.0) *
      100.0;
  report_layers(layers, report);
  write_trace(tracer, options, report);
  return report;
}

// --- Rival engines --------------------------------------------------------

Report run_rivals(const Options& options) {
  // The steady-churn scenario and seed, so the rivals replay the stream the
  // protocol replays in the steady-churn workload.
  const sim::Scenario base = steady_churn(options.seed);
  sim::Scenario tree = base;
  tree.engine = sim::EngineKind::kBaselineTree;
  sim::Scenario flood = base;
  flood.engine = sim::EngineKind::kBaselineGossip;
  constexpr std::size_t kSetups = 200;
  Report report;

  // What the checks need from the stream: publications, the closure members
  // present at each publication, and the population before and after joins.
  const Closure closure = closure_of(base);
  const workload::EventStream stream = make_stream(base);
  std::vector<std::uint64_t> members(base.group_sizes.begin(),
                                     base.group_sizes.end());
  std::uint64_t stream_publications = 0;
  std::uint64_t closure_members = 0;
  std::uint64_t churn_events = 0;
  for (const workload::TrafficEvent& event : stream) {
    churn_events += event.kind != workload::TrafficEvent::Kind::kPublish;
    if (event.kind == workload::TrafficEvent::Kind::kJoin) {
      ++members[event.topic];
    } else if (event.kind == workload::TrafficEvent::Kind::kPublish) {
      ++stream_publications;
      for (std::size_t g = 0; g < members.size(); ++g) {
        if (closure[event.topic][g] != 0) closure_members += members[g];
      }
    }
  }
  const std::size_t population_start = initial_processes(base);
  std::size_t population_end = 0;
  for (const std::uint64_t count : members) population_end += count;
  const double c = base.params.front().c;

  auto tally_of = [&](const workload::DynamicRunResult& result, bool is_tree) {
    RivalTally t;
    t.tree = is_tree;
    t.publications = result.publications;
    t.stream_publications = stream_publications;
    t.closure_members = closure_members;
    t.interested = result.latency_sketch.count();
    for (const std::uint64_t count : result.deliveries_per_round) {
      t.interested_per_round += count;
    }
    t.receptions = result.trace_delivers;
    t.messages = result.total_messages;
    t.fanout_low = fanout_law(population_start, c);
    t.fanout_high = fanout_law(population_end, c);
    t.reliability = result.event_reliability;
    return t;
  };
  auto run_pair = [&](Tracer* tracer, double* tree_s, double* flood_s) {
    std::pair<workload::DynamicRunResult, workload::DynamicRunResult> out;
    {
      SpanScope span(tracer, "baselines.run_steady_baseline.tree");
      const auto started = Clock::now();
      out.first = baselines::run_steady_baseline(tree, 1.0, 0);
      *tree_s = seconds_since(started);
    }
    {
      SpanScope span(tracer, "baselines.run_steady_baseline.flood");
      const auto started = Clock::now();
      out.second = baselines::run_steady_baseline(flood, 1.0, 0);
      *flood_s = seconds_since(started);
    }
    return out;
  };
  auto check_pair = [&](const workload::DynamicRunResult& t,
                        const workload::DynamicRunResult& f) {
    const std::uint64_t publications = t.publications + f.publications;
    report.attempted += publications;
    std::vector<std::string> failures = check_rival(tally_of(t, true));
    for (std::string& failure : check_rival(tally_of(f, false))) {
      failures.push_back(std::move(failure));
    }
    for (const workload::DynamicRunResult* r : {&t, &f}) {
      for (std::string& failure : check_latency(
               round_quantile(r->latency_sketch, 0.5),
               round_quantile(r->latency_sketch, 0.999),
               static_cast<double>(r->rounds))) {
        failures.push_back(std::move(failure));
      }
    }
    print_failures("rivals", failures);
    if (!failures.empty()) report.failed += publications;
  };
  auto same_pair = [&](const workload::DynamicRunResult& a,
                       const workload::DynamicRunResult& b) {
    return differences(counts_of(a), counts_of(b)).empty();
  };
  auto timed_setup = [&](Tracer* tracer) {
    SpanScope span(tracer, "setup");
    const auto started = Clock::now();
    {
      SpanScope generate(tracer, "workload.generate_stream");
      const workload::EventStream again = make_stream(base);
      generate.count("publications",
                     static_cast<double>(workload::publication_count(again)));
    }
    {
      SpanScope bind(tracer, "topics.bind_scenario");
      const workload::DynamicScenarioBinding binding =
          workload::bind_scenario(base);
    }
    return seconds_since(started);
  };

  double tree_s = 0.0;
  double flood_s = 0.0;
  if (!options.trace) {
    const auto [ref_tree, ref_flood] = run_pair(nullptr, &tree_s, &flood_s);
    check_pair(ref_tree, ref_flood);
    if (!report_self_test(
            self_test(tally_of(ref_tree, true), tally_of(ref_flood, false)))) {
      report.fault("self-test missed a corruption");
    }
    EndToEnd e2e;
    const auto started = Clock::now();
    for (std::size_t i = 0; i < kSetups; ++i) {
      e2e.setup.values.push_back(timed_setup(nullptr));
    }
    Pacer pacer(started, options.seconds, 3);
    while (pacer.another()) {
      const auto [t, f] = run_pair(nullptr, &tree_s, &flood_s);
      report.attempted += t.publications + f.publications;
      if (!same_pair(ref_tree, t) || !same_pair(ref_flood, f)) {
        std::fprintf(stderr, "rival replay differs from the check pass\n");
        report.failed += t.publications + f.publications;
      }
      e2e.replay_ns.values.push_back(
          (tree_s + flood_s) * 1e9 /
          static_cast<double>(t.latency_sketch.count() +
                              f.latency_sketch.count()));
    }
    e2e.reliability =
        (ref_tree.event_reliability *
             static_cast<double>(ref_tree.publications) +
         ref_flood.event_reliability *
             static_cast<double>(ref_flood.publications)) /
        static_cast<double>(ref_tree.publications + ref_flood.publications);
    e2e.latency = ref_tree.latency_sketch;
    e2e.latency.merge(ref_flood.latency_sketch);
    e2e.msgs_per_delivery =
        static_cast<double>(ref_tree.total_messages +
                            ref_tree.control_messages +
                            ref_flood.total_messages +
                            ref_flood.control_messages) /
        static_cast<double>(e2e.latency.count());
    report_end_to_end(e2e, report);
    return report;
  }

  Tracer tracer;
  Layers layers;
  for (std::size_t i = 0; i < 20; ++i) timed_setup(&tracer);
  std::pair<workload::DynamicRunResult, workload::DynamicRunResult> traced;
  {
    SpanScope span(&tracer, "replay");
    traced = run_pair(&tracer, &tree_s, &flood_s);
  }
  check_pair(traced.first, traced.second);
  const double traced_s = tree_s + flood_s;
  const auto [t, f] = run_pair(nullptr, &tree_s, &flood_s);
  report.attempted += t.publications + f.publications;
  if (!same_pair(traced.first, t) || !same_pair(traced.second, f)) {
    std::fprintf(stderr, "traced and untraced rival runs differ\n");
    report.failed += t.publications + f.publications;
  }
  layers["workload.stream_s"] =
      median_of(tracer.seconds_of("workload.generate_stream"));
  layers["workload.publications"] = static_cast<double>(stream_publications);
  layers["topics.bind_s"] =
      median_of(tracer.seconds_of("topics.bind_scenario"));
  layers["sim.churn_events"] = static_cast<double>(churn_events);
  layers["baselines.tree_s"] =
      tracer.seconds_of("baselines.run_steady_baseline.tree").front();
  layers["baselines.flood_s"] =
      tracer.seconds_of("baselines.run_steady_baseline.flood").front();
  layers["baselines.tree_msgs"] = static_cast<double>(
      traced.first.total_messages + traced.first.control_messages);
  layers["baselines.flood_msgs"] = static_cast<double>(
      traced.second.total_messages + traced.second.control_messages);
  layers["trace.overhead_pct"] = (traced_s / (tree_s + flood_s) - 1.0) * 100.0;
  report_layers(layers, report);
  write_trace(tracer, options, report);
  return report;
}

}  // namespace damperf
