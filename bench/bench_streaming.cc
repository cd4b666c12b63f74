// Streaming-service bench: events/sec and per-event submit latency
// (p50/p99) of the SessionManager as the number of concurrent monitored
// sessions grows (1 / 8 / 64 / 512), over a pool of hardware-concurrency
// workers, plus one session scored inline on the submitting thread (null
// pool) as the baseline. Every session is bound to one shared
// ProfileHandle, so all of them score through one compiled engine. Submit
// latency is producer-observed: it includes any kBlock back-pressure
// stall, which is exactly what a collector embedded in an application
// would feel.
//
// Each configuration is run `timing_repeats` times and the fastest run is
// reported (min-of-N); `--smoke` shrinks the event count and session
// sweep so the binary finishes in seconds for CI.
//
// A second sweep measures the multi-tenant fleet node on a churn-heavy
// workload: tens of thousands of short sessions (one window each) spread
// over several tenants, at 1 and 8 shards.
//
// Machine-readable results are written to BENCH_streaming.json at the
// repository root (override with --json <path>).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "service/alert_sink.h"
#include "service/fleet_node.h"
#include "service/profile_registry.h"
#include "service/session_manager.h"
#include "service/streaming_monitor.h"
#include "util/strings.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

#ifndef ADPROM_SOURCE_DIR
#define ADPROM_SOURCE_DIR "."
#endif

namespace adprom::bench {
namespace {

std::string Num(double v) { return util::StrFormat("%.6g", v); }

double Seconds(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct Preset {
  bool smoke = false;
  size_t total_events = 60000;
  size_t timing_repeats = 3;
  std::vector<size_t> session_sweep = {1, 8, 64, 512};
  // Fleet sweep: short sessions (one window each) at fleet scale.
  size_t fleet_tenants = 4;
  // Churn runs are short (~0.1 s at 10k sessions), so they take more
  // min-of-N repeats than the long stream runs to damp scheduler noise.
  size_t fleet_timing_repeats = 5;
  std::vector<size_t> fleet_sessions = {10000, 100000};
  std::vector<size_t> fleet_shards = {1, 8};
};

Preset SmokePreset() {
  Preset p;
  p.smoke = true;
  p.total_events = 4000;
  p.timing_repeats = 1;
  p.session_sweep = {1, 8};
  p.fleet_timing_repeats = 1;
  p.fleet_sessions = {500};
  return p;
}

/// Counts verdicts without storing them: the sink must not become the
/// bottleneck being measured.
class CountingSink : public service::AlertSink {
 public:
  void OnDetection(const std::string& session_id,
                   const core::Detection& detection) override {
    (void)session_id;
    verdicts.fetch_add(1, std::memory_order_relaxed);
    if (detection.IsAlarm()) alarms.fetch_add(1, std::memory_order_relaxed);
  }
  std::atomic<size_t> verdicts{0};
  std::atomic<size_t> alarms{0};
};

struct StreamRun {
  std::string name;
  size_t sessions = 1;
  size_t events = 0;
  size_t verdicts = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

double Percentile(std::vector<double>* sorted_us, double p) {
  if (sorted_us->empty()) return 0.0;
  const size_t index = std::min(
      sorted_us->size() - 1,
      static_cast<size_t>(p * static_cast<double>(sorted_us->size())));
  return (*sorted_us)[index];
}

/// One configuration: `sessions` concurrent sessions fed round-robin from
/// the flattened corpus event pool, ~`total_events` events overall.
StreamRun RunConfigOnce(const service::SessionBinding& binding,
                        const std::vector<runtime::CallEvent>& pool_events,
                        size_t sessions, size_t total_events,
                        util::ThreadPool* pool) {
  const core::ApplicationProfile& profile = binding.profile->profile();
  CountingSink sink;
  service::SessionManagerOptions options;
  options.queue_capacity = 1024;
  options.overflow = service::SessionManagerOptions::OverflowPolicy::kBlock;
  service::SessionManager manager(&sink, pool, options);

  std::vector<std::string> ids;
  ids.reserve(sessions);
  for (size_t s = 0; s < sessions; ++s) {
    ids.push_back("s" + std::to_string(s));
  }
  const size_t per_session =
      std::max(profile.options.window_length, total_events / sessions);
  const size_t events = per_session * sessions;
  std::vector<double> latencies_us;
  latencies_us.reserve(events);

  const auto bench_start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < per_session; ++i) {
    for (size_t s = 0; s < sessions; ++s) {
      // Session s streams the corpus from its own offset, so concurrent
      // sessions are not in lockstep on identical windows.
      const runtime::CallEvent& event =
          pool_events[(s * 7919 + i) % pool_events.size()];
      const auto t0 = std::chrono::steady_clock::now();
      (void)manager.Submit(ids[s], binding, event);
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - t0)
              .count());
    }
  }
  manager.Drain();
  const double seconds = Seconds(bench_start);
  manager.CloseAll();

  StreamRun run;
  run.name = pool == nullptr ? "inline" : "pooled";
  run.sessions = sessions;
  run.events = events;
  run.verdicts = sink.verdicts.load();
  run.seconds = seconds;
  run.events_per_sec = static_cast<double>(events) / seconds;
  std::sort(latencies_us.begin(), latencies_us.end());
  run.p50_us = Percentile(&latencies_us, 0.50);
  run.p99_us = Percentile(&latencies_us, 0.99);
  return run;
}

struct FleetRun {
  std::string name;
  size_t shards = 1;
  size_t tenants = 1;
  size_t sessions = 0;
  size_t events = 0;
  size_t verdicts = 0;
  size_t drops = 0;
  size_t backlog_max = 0;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

/// Churn workload: `sessions` short-lived sessions (window_length events
/// each, i.e. exactly one verdict window) fed and closed one after the
/// other, spread round-robin over `tenants` tenants. Each session is
/// ingested as one SubmitBatch burst, the way the binary feed hands bursts
/// to the node: one profile resolve, one session-lock hold, and one worker
/// hand-off per session instead of one per event. Latency samples are
/// therefore per-burst, not per-event.
FleetRun RunFleetConfigOnce(const core::ApplicationProfile& profile,
                            const std::vector<runtime::CallEvent>& pool_events,
                            size_t shards, size_t tenants, size_t sessions,
                            util::ThreadPool* pool) {
  const size_t per_session = profile.options.window_length;
  CountingSink sink;
  service::SessionManagerOptions session_options;
  session_options.queue_capacity = 1024;
  session_options.overflow =
      service::SessionManagerOptions::OverflowPolicy::kBlock;

  std::vector<double> latencies_us;
  latencies_us.reserve(sessions);
  FleetRun run;
  run.name = "fleet";
  run.shards = shards;
  run.tenants = tenants;
  run.sessions = sessions;
  run.events = sessions * per_session;

  service::ProfileRegistry registry;
  std::vector<std::string> tenant_names;
  for (size_t t = 0; t < tenants; ++t) {
    tenant_names.push_back("tenant" + std::to_string(t));
    core::ApplicationProfile copy = profile;
    if (!registry.Install(tenant_names.back(), std::move(copy)).ok()) {
      std::printf("FATAL: registry install failed\n");
      std::abort();
    }
  }
  service::FleetOptions fleet_options;
  fleet_options.num_shards = shards;
  fleet_options.session = session_options;
  service::FleetNode fleet(&registry, &sink, pool, fleet_options);
  // Each session's burst is a contiguous slice of the pool at its own
  // offset, so concurrent sessions are not in lockstep on identical
  // windows and no events are copied on the producer side.
  const size_t max_offset = pool_events.size() - per_session;
  const auto bench_start = std::chrono::steady_clock::now();
  for (size_t s = 0; s < sessions; ++s) {
    const std::string key = "s" + std::to_string(s);
    const std::span<const runtime::CallEvent> burst(
        pool_events.data() + (s * 7919) % max_offset, per_session);
    const auto t0 = std::chrono::steady_clock::now();
    (void)fleet.SubmitBatch(tenant_names[s % tenants], key, burst);
    latencies_us.push_back(std::chrono::duration<double, std::micro>(
                               std::chrono::steady_clock::now() - t0)
                               .count());
    (void)fleet.CloseSession(tenant_names[s % tenants], key);
  }
  fleet.Drain();
  run.seconds = Seconds(bench_start);
  run.drops = fleet.total_dropped();
  const service::FleetMetrics metrics = fleet.Metrics();
  for (const service::ShardMetrics& shard : metrics.shards) {
    run.backlog_max =
        std::max(run.backlog_max, static_cast<size_t>(shard.max_queue_depth));
  }
  fleet.CloseAll();

  run.verdicts = sink.verdicts.load();
  run.events_per_sec = static_cast<double>(run.events) / run.seconds;
  std::sort(latencies_us.begin(), latencies_us.end());
  run.p50_us = Percentile(&latencies_us, 0.50);
  run.p99_us = Percentile(&latencies_us, 0.99);
  return run;
}

FleetRun RunFleetConfig(const core::ApplicationProfile& profile,
                        const std::vector<runtime::CallEvent>& pool_events,
                        size_t shards, size_t tenants, size_t sessions,
                        const Preset& preset, util::ThreadPool* pool) {
  FleetRun best;
  // Large sweeps keep the per-repeat cost in check: min-of-N only for the
  // smallest point, single shot above it.
  const size_t repeats = sessions > preset.fleet_sessions.front()
                             ? 1
                             : preset.fleet_timing_repeats;
  for (size_t r = 0; r < repeats; ++r) {
    FleetRun run = RunFleetConfigOnce(profile, pool_events, shards, tenants,
                                      sessions, pool);
    if (r == 0 || run.seconds < best.seconds) best = std::move(run);
  }
  return best;
}

/// Min-of-N: repeats the configuration and keeps the fastest run (its
/// latency percentiles come from that same run).
StreamRun RunConfig(const service::SessionBinding& binding,
                    const std::vector<runtime::CallEvent>& pool_events,
                    size_t sessions, const Preset& preset,
                    util::ThreadPool* pool) {
  StreamRun best;
  for (size_t r = 0; r < preset.timing_repeats; ++r) {
    StreamRun run = RunConfigOnce(binding, pool_events, sessions,
                                  preset.total_events, pool);
    if (r == 0 || run.seconds < best.seconds) best = std::move(run);
  }
  return best;
}

void WriteJson(const std::vector<StreamRun>& runs,
               const std::vector<FleetRun>& fleet_runs, size_t pool_workers,
               const Preset& preset, const std::string& json_path) {
  std::ostringstream json;
  json << "{\n";
  json << "  \"bench\": \"bench_streaming\",\n";
  json << "  " << JsonProvenance(preset.timing_repeats) << ",\n";
  json << "  \"hardware_concurrency\": "
       << util::ThreadPool::DefaultConcurrency() << ",\n";
  json << "  \"pool_workers\": " << pool_workers << ",\n";
  json << "  \"corpus\": \"grep-like\",\n";
  json << "  \"overflow_policy\": \"block\",\n";
  json << "  \"runs\": [";
  for (size_t i = 0; i < runs.size(); ++i) {
    const StreamRun& run = runs[i];
    json << (i ? ", " : "") << "{\"name\": \"" << run.name
         << "\", \"sessions\": " << run.sessions
         << ", \"events\": " << run.events
         << ", \"verdicts\": " << run.verdicts
         << ", \"wall_time_sec\": " << Num(run.seconds)
         << ", \"events_per_sec\": " << Num(run.events_per_sec)
         << ", \"submit_p50_us\": " << Num(run.p50_us)
         << ", \"submit_p99_us\": " << Num(run.p99_us) << "}";
  }
  json << "],\n";
  json << "  \"fleet_runs\": [";
  for (size_t i = 0; i < fleet_runs.size(); ++i) {
    const FleetRun& run = fleet_runs[i];
    json << (i ? ", " : "") << "{\"name\": \"" << run.name
         << "\", \"shards\": " << run.shards
         << ", \"tenants\": " << run.tenants
         << ", \"sessions\": " << run.sessions
         << ", \"events\": " << run.events
         << ", \"verdicts\": " << run.verdicts
         << ", \"drops\": " << run.drops
         << ", \"backlog_max\": " << run.backlog_max
         << ", \"wall_time_sec\": " << Num(run.seconds)
         << ", \"events_per_sec\": " << Num(run.events_per_sec)
         << ", \"submit_p50_us\": " << Num(run.p50_us)
         << ", \"submit_p99_us\": " << Num(run.p99_us) << "}";
  }
  json << "]\n";
  json << "}\n";

  std::ofstream out(json_path, std::ios::binary);
  if (out) {
    out << json.str();
    std::printf("\nwrote %s\n", json_path.c_str());
  } else {
    std::printf("\nWARNING: cannot write %s\n", json_path.c_str());
  }
}

void Run(const Preset& preset, const std::string& json_path) {
  PrintHeader(preset.smoke
                  ? "Streaming service throughput & latency (smoke)"
                  : "Streaming service throughput & latency");

  PreparedApp prepared = Prepare(apps::MakeGrepLike());
  core::AdProm system = TrainOrDie(prepared);
  const core::ApplicationProfile& profile = system.profile();

  std::vector<runtime::CallEvent> pool_events;
  for (const runtime::Trace& trace : system.training_traces()) {
    pool_events.insert(pool_events.end(), trace.begin(), trace.end());
  }
  std::printf("corpus: grep-like, %zu pooled events, window %zu,"
              " min-of-%zu runs\n",
              pool_events.size(), profile.options.window_length,
              preset.timing_repeats);

  const size_t workers = util::ThreadPool::DefaultConcurrency();
  std::vector<StreamRun> runs;
  // Every session of the sweep pins this one handle and scores through its
  // engine.
  service::SessionBinding binding;
  binding.profile = std::make_shared<const service::ProfileHandle>(
      "grep-like", "bench", 1, profile);

  // Baseline: one session scored inline on the submitting thread — the
  // raw per-event cost of the incremental forward recursion.
  runs.push_back(RunConfig(binding, pool_events, 1, preset, nullptr));

  util::ThreadPool pool(workers);
  for (size_t sessions : preset.session_sweep) {
    runs.push_back(RunConfig(binding, pool_events, sessions, preset, &pool));
  }

  util::TablePrinter table({"mode", "sessions", "events", "seconds",
                            "events/sec", "submit p50 (us)",
                            "submit p99 (us)"});
  for (const StreamRun& run : runs) {
    table.AddRow({run.name, std::to_string(run.sessions),
                  std::to_string(run.events),
                  util::StrFormat("%.3f", run.seconds),
                  util::StrFormat("%.0f", run.events_per_sec),
                  util::StrFormat("%.2f", run.p50_us),
                  util::StrFormat("%.2f", run.p99_us)});
  }
  table.Print();
  std::printf("(inline = null-pool synchronous scoring; pooled rows run"
              " %zu workers, kBlock overflow — p99 shows back-pressure)\n",
              workers);

  // Fleet churn sweep: session open/close cost dominates (one window per
  // session).
  std::printf("\nfleet churn sweep: %zu-event sessions over %zu tenants\n",
              profile.options.window_length, preset.fleet_tenants);
  std::vector<FleetRun> fleet_runs;
  for (size_t sessions : preset.fleet_sessions) {
    for (size_t shards : preset.fleet_shards) {
      fleet_runs.push_back(RunFleetConfig(profile, pool_events, shards,
                                          preset.fleet_tenants, sessions,
                                          preset, &pool));
    }
  }

  util::TablePrinter fleet_table({"mode", "shards", "sessions", "events",
                                  "seconds", "events/sec", "p99 (us)",
                                  "drops", "max backlog"});
  for (const FleetRun& run : fleet_runs) {
    fleet_table.AddRow({run.name, std::to_string(run.shards),
                        std::to_string(run.sessions),
                        std::to_string(run.events),
                        util::StrFormat("%.3f", run.seconds),
                        util::StrFormat("%.0f", run.events_per_sec),
                        util::StrFormat("%.2f", run.p99_us),
                        std::to_string(run.drops),
                        std::to_string(run.backlog_max)});
  }
  fleet_table.Print();

  WriteJson(runs, fleet_runs, workers, preset, json_path);
}

}  // namespace
}  // namespace adprom::bench

int main(int argc, char** argv) {
  std::string json_path =
      std::string(ADPROM_SOURCE_DIR) + "/BENCH_streaming.json";
  adprom::bench::Preset preset;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--smoke") {
      preset = adprom::bench::SmokePreset();
    }
  }
  adprom::bench::Run(preset, json_path);
  return 0;
}
