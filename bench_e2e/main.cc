// bench_e2e: end-to-end benchmark of AD-PROM's two pipelines on one serve
// workload: the profile build (static analysis, trace collection,
// PCA/k-means, Baum-Welch) and the detection service (frame decode,
// FleetNode route, queue, score, verdict, sink), driven in-process the way
// `adprom serve --format=binary` drives it.
//
//   bench_e2e --workload tenants|heavy|churn [--seed 1] [--seconds 30]
//             [--trace 0|1] [--trace-out spans.json] [--smoke]
//
// --trace 0 measures the end-to-end metrics of the service; --trace 1
// measures the per-layer ones (staged build, warm re-analysis, counters of
// one serve phase, a traced inline pass, a layer replay). --smoke shortens
// every phase and keeps every check. Prints one "workload metric value
// unit" line per metric, then, as the last line, the JSON result object.
// Exits 1 when any output differs from the reference.

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "build.h"
#include "common.h"
#include "core/profile.h"
#include "layers.h"
#include "serve.h"
#include "trace.h"
#include "util/logging.h"
#include "util/strings.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"
#include "workload.h"

#ifndef ADPROM_ROOT_DIR
#define ADPROM_ROOT_DIR "."
#endif

namespace adprom::e2e {
namespace {

constexpr int64_t kNoLagLimit = INT64_MAX;

constexpr double kWarmupS = 0.1;    // fixed-rate warm-up of every phase
constexpr double kSegmentS = 0.25;  // --trace 0: open loop per serve phase
/// Start-ups timed between two serve phases of --trace 0.
constexpr size_t kStartupsPerSlot = 3;

// --trace 1 phase durations, as shares of --seconds.
constexpr double kFixedShare = 4.0 / 30;   // open loop at the fixed rate
constexpr double kProbeShare = 0.75 / 30;  // one search probe

/// A search probe fails when a verdict arrives later than this after the
/// probe's schedule ends.
constexpr int64_t kSearchDrainNs = 1'000'000'000;
/// How often churn's ingest thread reloads its reload tenant.
constexpr int64_t kReloadPeriodNs = 500'000'000;

/// A serve workload: what differs between workloads. Each run also builds
/// the workload's profiles, because the service needs them.
struct Workload {
  std::string name;
  std::vector<std::string> tenants;
  TrafficShape shape;
  uint64_t saturate_events = 0;  // per closed-loop round
  double fixed_eps = 0.0;
  double search_low_eps = 0.0;  // the search bracket
  double search_high_eps = 0.0;
  /// Verdict p99 limit of a search probe. heavy's p99 is already 20-40 ms
  /// at three quarters of its capacity, where 50 ms passed at random.
  double search_p99_ms = 50.0;
  std::string reload_tenant{};  // reloaded every kReloadPeriodNs; "" = none
  uint64_t trace_prefix_events = 0;  // the traced inline pass
  size_t replay_events = 0;          // the layer replay
  size_t replay_windows = 0;
};

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {.name = "tenants",
       .tenants = {"App1", "App2", "App3", "App_b"},
       .shape = {.lanes = 256,
                 .min_session_events = 1500,
                 .max_session_events = 2500,
                 .stream_events = 600'000},
       .saturate_events = 100'000,
       .fixed_eps = 100'000,
       .search_low_eps = 50'000,
       .search_high_eps = 400'000,
       .trace_prefix_events = 300'000,
       .replay_events = 50'000,
       .replay_windows = 20'000},
      {.name = "heavy",
       .tenants = {"App4"},
       .shape = {.lanes = 64,
                 .min_session_events = 400,
                 .max_session_events = 800,
                 .stream_events = 100'000},
       .saturate_events = 15'000,
       .fixed_eps = 2'000,
       .search_low_eps = 10'000,
       .search_high_eps = 160'000,
       .search_p99_ms = 100.0,
       .trace_prefix_events = 15'000,
       .replay_events = 10'000,
       .replay_windows = 2'000},
      {.name = "churn",
       .tenants = {"App1", "App2", "App3", "App_b"},
       .shape = {.lanes = 256,
                 .min_session_events = 15,
                 .max_session_events = 15,
                 .stream_events = 600'000},
       .saturate_events = 50'000,
       .fixed_eps = 50'000,
       .search_low_eps = 25'000,
       .search_high_eps = 400'000,
       .reload_tenant = "App_b",
       .trace_prefix_events = 300'000,
       .replay_events = 50'000,
       .replay_windows = 20'000},
  };
  return kWorkloads;
}

/// How often a --trace 1 run repeats its measurements.
struct Repetitions {
  size_t startups = 48;     // start-ups split into their parts
  size_t search_steps = 7;  // bisection steps of the search
};

/// --smoke: every phase shortened, every check kept.
constexpr double kSmokeSeconds = 3.0;
constexpr Repetitions kSmokeRepetitions = {.startups = 2, .search_steps = 2};
Workload Shortened(Workload w) {
  w.shape.stream_events = 20'000;
  w.saturate_events = 20'000;
  w.trace_prefix_events = 5'000;
  w.replay_events = 2'000;
  w.replay_windows = 500;
  return w;
}

/// FNV-64 of Serialize() of each app's profile, trained with the Table VII
/// options; every build must reproduce it.
const char* ExpectedProfileFnv64(const std::string& app) {
  static const std::map<std::string, const char*> kDigests = {
      {"App1", "4556419dae19abe6"}, {"App2", "d80bc24c7d9c863c"},
      {"App3", "77ffc442b94a2673"}, {"App4", "72c846959c93914e"},
      {"App_b", "65db91d417a1f461"}};
  return kDigests.at(app);
}

struct Args {
  Workload workload;
  Repetitions reps;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  std::string workload;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  const auto& all = Workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return w.name == workload;
  });
  if (it == all.end()) return false;
  args->workload = *it;
  if (smoke) {
    args->workload = Shortened(*it);
    args->reps = kSmokeRepetitions;
    args->seconds = kSmokeSeconds;
  }
  return args->seconds > 0.0;
}

/// The ingest thread plus the scoring pool stay within the machine's
/// cores: 3 workers on 4 cores, fewer on smaller machines. No two pools
/// are alive at once, so a run never has more threads than that.
size_t PoolWorkers() {
  const size_t cores = util::ThreadPool::DefaultConcurrency();
  return std::clamp<size_t>(cores - 1, 1, 3);
}

double Us(double ns) { return ns * 1e-3; }

void CheckProfileDigest(const Tenant& tenant, Tally* tally) {
  const std::string got =
      util::StrFormat("%016" PRIx64, Fnv64Of(tenant.profile_text));
  const std::string want = ExpectedProfileFnv64(tenant.name);
  if (got != want) {
    tally->Fail(1, tenant.name + " profile FNV-64 is " + got + ", expected " +
                       want);
  }
}

/// Builds every tenant of the workload and checks each profile's digest.
std::vector<Tenant> BuildAll(const Workload& workload, Tally* tally) {
  std::vector<Tenant> tenants;
  for (const std::string& name : workload.tenants) {
    tenants.push_back(BuildTenant(name));
    CheckProfileDigest(tenants.back(), tally);
    ++tally->attempted;
  }
  return tenants;
}

class NullSink : public service::AlertSink {
 public:
  void OnDetection(const std::string&, const core::Detection&) override {}
};

/// One serve start-up: Deserialize every profile, Install each into a
/// registry, construct the pool and the FleetNode. Profiles were trained
/// beforehand; tearing down is not timed.
struct Startup {
  double total_s = 0.0;
  double deserialize_ms = 0.0;
  double install_ms = 0.0;
};

Startup MeasureStartup(const std::vector<Tenant>& tenants) {
  NullSink sink;
  const int64_t t0 = NowNs();
  std::vector<core::ApplicationProfile> profiles;
  for (const Tenant& tenant : tenants) {
    auto profile = core::ApplicationProfile::Deserialize(tenant.profile_text);
    ADPROM_CHECK_MSG(profile.ok(), profile.status().ToString());
    profiles.push_back(std::move(profile).value());
  }
  const int64_t t1 = NowNs();
  auto registry = std::make_unique<service::ProfileRegistry>();
  for (size_t t = 0; t < tenants.size(); ++t) {
    ADPROM_CHECK(
        registry->Install(tenants[t].name, std::move(profiles[t])).ok());
  }
  const int64_t t2 = NowNs();
  auto pool = std::make_unique<util::ThreadPool>(PoolWorkers());
  auto node = std::make_unique<service::FleetNode>(
      registry.get(), &sink, pool.get(), ServeFleetOptions());
  const int64_t t3 = NowNs();
  return {static_cast<double>(t3 - t0) * 1e-9,
          static_cast<double>(t1 - t0) * 1e-6,
          static_cast<double>(t2 - t1) * 1e-6};
}

/// The serve side of one workload: profiles installed, the stream and its
/// reference, the sink, and the phases that run against them. Each phase
/// brings its own scoring pool, so between phases the process has only
/// the ingest thread and builds or start-ups can spawn theirs.
class ServeRun {
 public:
  ServeRun(const Args& args, const std::vector<Tenant>& tenants, Tally* tally)
      : workload_(args.workload), tally_(tally) {
    std::vector<core::ApplicationProfile> profiles;
    for (const Tenant& tenant : tenants) {
      auto profile = core::ApplicationProfile::Deserialize(tenant.profile_text);
      ADPROM_CHECK_MSG(profile.ok(), profile.status().ToString());
      ADPROM_CHECK(registry_.Install(tenant.name, *profile).ok());
      profiles.push_back(std::move(profile).value());
    }
    stream_ = GenerateStream(tenants, workload_.shape,
                             profiles.front().options.window_length,
                             args.seed);
    {
      util::ThreadPool pool(PoolWorkers());
      ComputeReference(profiles, &pool, &stream_);
    }

    warm_events_ = Events(workload_.fixed_eps, kWarmupS);
    fixed_events_ =
        Events(workload_.fixed_eps,
               args.trace ? kFixedShare * args.seconds : kSegmentS);
    search_low_ = workload_.search_low_eps;
    search_high_ = workload_.search_high_eps;
    probe_s_ = kProbeShare * args.seconds;

    // Slots for the largest phase the run has, allocated up front.
    const uint64_t max_events = std::max(
        {warm_events_ + fixed_events_ + workload_.saturate_events,
         Events(search_high_, probe_s_), workload_.trace_prefix_events});
    sink_ = std::make_unique<VerdictSink>(
        &stream_, PositionOfOrdinal(stream_, max_events) + 1);

    ctx_.stream = &stream_;
    ctx_.registry = &registry_;
    ctx_.sink = sink_.get();
    ctx_.tally = tally_;
    for (size_t t = 0; t < tenants.size(); ++t) {
      ctx_.profile_texts.push_back(tenants[t].profile_text);
      ctx_.generation.push_back(registry_.Generation(tenants[t].name));
      if (tenants[t].name == workload_.reload_tenant) {
        ctx_.reload_tenant = static_cast<int>(t);
      }
    }
    ADPROM_CHECK_MSG(
        workload_.reload_tenant.empty() || ctx_.reload_tenant >= 0,
        "reload tenant " + workload_.reload_tenant + " is not a tenant");
    ctx_.reload_period_ns = kReloadPeriodNs;
    ctx_.lag_ns.assign(fixed_events_, 0);
    ctx_.lag_ns.clear();
    ctx_.submit_ns.assign(fixed_events_, 0);
    ctx_.submit_ns.clear();
  }

  /// What the fixed-rate segments measured, pooled over phases.
  struct Fixed {
    std::vector<int64_t> latency_ns;
    std::vector<int64_t> lag_ns;
    std::vector<int64_t> submit_ns;
    size_t queue_depth_max = 0;
    Phase::FlagCounts flags;
  };

  /// One serve phase on a fresh pool and node: a warm-up at the fixed
  /// rate, the fixed segment (open loop at the fixed rate, pooled into
  /// `fixed`), then one closed-loop saturate round, drained. Returns the
  /// round's seconds. `before` and `after` (nullable) take the threads'
  /// schedstat around the round, `peak_kb` (nullable) VmHWM at its end. Up
  /// to then the phase allocates nothing of the benchmark's own.
  double ServePhase(Fixed* fixed, uint64_t* peak_kb,
                    std::map<int, TaskTimes>* before,
                    std::map<int, TaskTimes>* after) {
    const double rate = workload_.fixed_eps;
    util::ThreadPool pool(PoolWorkers());
    Phase phase(&ctx_, &pool,
                warm_events_ + fixed_events_ + workload_.saturate_events);
    phase.RunOpen(warm_events_, rate, false, kNoLagLimit);
    phase.RunOpen(fixed_events_, rate, true, kNoLagLimit);
    const size_t queue_depth_max =
        phase.node().Metrics().shards.front().max_queue_depth;

    if (before != nullptr) *before = ReadTaskTimes();
    const double round_s = phase.RunClosed(workload_.saturate_events);
    if (after != nullptr) *after = ReadTaskTimes();
    if (peak_kb != nullptr) *peak_kb = ProcStatusKb("VmHWM");
    Finish(&phase);

    fixed->queue_depth_max = std::max(fixed->queue_depth_max, queue_depth_max);
    Append(phase.lag_ns(), &fixed->lag_ns);
    Append(phase.submit_ns(), &fixed->submit_ns);
    std::vector<int64_t> latency = phase.Latencies();
    std::fprintf(stderr, "  fixed p50 %.3f us, saturate %.0f events/s\n",
                 Us(Quantile(&latency, 0.5)),
                 static_cast<double>(workload_.saturate_events) / round_s);
    Append(latency, &fixed->latency_ns);
    const Phase::FlagCounts flags = phase.MeasuredFlags();
    fixed->flags.verdicts += flags.verdicts;
    fixed->flags.alarms += flags.alarms;
    fixed->flags.data_leaks += flags.data_leaks;
    return round_s;
  }

  /// search: the next step of a geometric bisection inside the bracket.
  /// The step's rate passes when an open-loop probe at it passes; a
  /// failed probe is repeated once, because near capacity a single
  /// scheduling stall fails a probe the rate would otherwise pass.
  void SearchStep() {
    const double rate = std::sqrt(search_low_ * search_high_);
    const bool pass = Probe(rate) || Probe(rate);
    (pass ? search_low_ : search_high_) = rate;
  }
  /// The highest rate that passed (the bracket floor when none did).
  double sustainable() const { return search_low_; }

  /// One open-loop probe at `rate`: it passes when the verdict p99 is
  /// within the limit and every event got its verdict within the drain
  /// limit of the schedule's end.
  bool Probe(double rate) {
    const uint64_t events = Events(rate, probe_s_);
    const double p99_limit_ns = workload_.search_p99_ms * 1e6;
    util::ThreadPool pool(PoolWorkers());
    Phase phase(&ctx_, &pool, events);
    const Phase::OpenResult result =
        phase.RunOpen(events, rate, true, kSearchDrainNs);
    Finish(&phase);
    std::vector<int64_t> latency = phase.Latencies();
    const double p99_ns = Quantile(&latency, 0.99);
    const int64_t drain_ns = result.drained_ns - result.schedule_end_ns;
    const bool pass =
        !result.aborted && drain_ns <= kSearchDrainNs && p99_ns <= p99_limit_ns;
    std::fprintf(stderr,
                 "  probe: %.0f events/s %s (p99 %.3f ms, drained %.3f s "
                 "after the schedule%s)\n",
                 rate, pass ? "pass" : "fail", p99_ns * 1e-6,
                 static_cast<double>(drain_ns) * 1e-9,
                 result.aborted ? ", ingest gave up" : "");
    return pass;
  }

  /// The traced pass: the stream's first `events` events through an
  /// inline node (no pool), closed loop, then every session closed.
  /// Returns the wall seconds; `spans` (nullable) records the layers.
  double InlinePass(uint64_t events, SpanRecorder* spans, uint64_t* frames) {
    Phase phase(&ctx_, nullptr, events, spans);
    const int64_t start = NowNs();
    phase.RunClosed(events);
    phase.CloseOpenSessions();
    const double wall = SecondsSince(start);
    *frames = phase.frames_decoded();
    tally_->attempted += phase.events_submitted();
    phase.Verify();
    return wall;
  }

  ServeContext* ctx() { return &ctx_; }

 private:
  static uint64_t Events(double rate, double seconds) {
    return static_cast<uint64_t>(rate * seconds);
  }
  static void Append(const std::vector<int64_t>& from,
                     std::vector<int64_t>* to) {
    to->insert(to->end(), from.begin(), from.end());
  }

  void Finish(Phase* phase) {
    phase->CloseOpenSessions();
    tally_->attempted += phase->events_submitted();
    phase->Verify();
  }

  const Workload& workload_;
  Tally* tally_;
  service::ProfileRegistry registry_;
  Stream stream_;
  std::unique_ptr<VerdictSink> sink_;
  ServeContext ctx_;
  uint64_t warm_events_ = 0;
  uint64_t fixed_events_ = 0;  // the fixed segment of one serve phase
  double search_low_ = 0.0;
  double search_high_ = 0.0;
  double probe_s_ = 0.0;
};

/// --trace 0: the end-to-end metrics.
///
/// After the profiles are built and the stream and its reference exist,
/// the run repeats one round until --seconds have passed: a slot of
/// start-ups, a serve phase, another slot of start-ups. The host's speed
/// changes every few seconds, so a run reports the median over all rounds
/// (latency: the quantile over every event of every fixed segment; setup_s:
/// the median of every start-up).
void RunEndToEnd(const Args& args, Tally* tally, MetricSet* out) {
  const std::vector<Tenant> tenants = BuildAll(args.workload, tally);
  ServeRun serve(args, tenants, tally);

  std::vector<double> setup_s;
  std::vector<double> eps;
  std::vector<double> rss_mb;
  ServeRun::Fixed fixed;
  auto startups = [&] {
    for (size_t i = 0; i < kStartupsPerSlot; ++i) {
      setup_s.push_back(MeasureStartup(tenants).total_s);
    }
  };
  const int64_t end = NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  do {
    startups();

    // The serve phase's peak-RSS growth, from a heap trimmed of the
    // earlier phases' garbage: the node's memory at full queues. A refused
    // reset would leave an earlier, higher peak in VmHWM, and the growth
    // would read as about 0.
    malloc_trim(0);
    const bool reset = ResetPeakRss();
    const uint64_t base_kb = ProcStatusKb("VmHWM");
    uint64_t peak_kb = 0;
    const double round_s =
        serve.ServePhase(&fixed, &peak_kb, nullptr, nullptr);
    if (reset && base_kb > 0 && peak_kb > base_kb) {
      rss_mb.push_back(static_cast<double>(peak_kb - base_kb) / 1024.0);
    } else {
      tally->Fail(1, "cannot measure peak RSS: resetting VmHWM through "
                     "/proc/self/clear_refs failed or VmHWM did not grow");
    }
    eps.push_back(static_cast<double>(args.workload.saturate_events) /
                  round_s);

    startups();
  } while (NowNs() < end);

  out->Add("throughput_eps", Median(eps), "events/s");
  out->Add("verdict_p50_us", Us(Quantile(&fixed.latency_ns, 0.5)), "us");
  out->Add("setup_s", Median(setup_s), "s");
  if (rss_mb.size() == eps.size()) out->Add("rss_mb", Median(rss_mb), "MiB");
}

void PrintSelfTimes(const std::string& workload, const SpanRecorder& spans,
                    double wall_s, double untraced_s) {
  std::printf("\n%s traced pass: wall %.3f s, untraced %.3f s\n",
              workload.c_str(), wall_s, untraced_s);
  util::TablePrinter table(
      {"span", "calls", "total ms", "self ms", "self share"});
  const double wall_ms = wall_s * 1e3;
  double self_sum_ms = 0.0;
  const std::vector<SpanRecorder::Row> rows = spans.Rows();
  for (size_t i = 0; i < rows.size(); ++i) {
    const double self_ms = static_cast<double>(rows[i].self_ns) * 1e-6;
    self_sum_ms += self_ms;
    table.AddRow(
        {SpanNameText(static_cast<SpanName>(i)), std::to_string(rows[i].count),
         util::StrFormat("%.3f", static_cast<double>(rows[i].total_ns) * 1e-6),
         util::StrFormat("%.3f", self_ms),
         util::StrFormat("%.4f", self_ms / wall_ms)});
  }
  table.AddRow({"(unattributed)", "-", "-",
                util::StrFormat("%.3f", wall_ms - self_sum_ms),
                util::StrFormat("%.4f", 1.0 - self_sum_ms / wall_ms)});
  table.AddRow({"wall", "-", util::StrFormat("%.3f", wall_ms), "-", "1.0000"});
  table.Print();
}

/// --trace 1: the per-layer metrics.
void RunLayers(const Args& args, Tally* tally, MetricSet* out) {
  const Workload& workload = args.workload;
  BuildStages stages;
  std::vector<Tenant> tenants;
  for (const std::string& name : workload.tenants) {
    tenants.push_back(StagedBuild(name, &stages));
    CheckProfileDigest(tenants.back(), tally);
    ++tally->attempted;
  }
  const DriftCorpus::Run drift = DriftCorpus(ADPROM_ROOT_DIR).Measure();
  std::vector<double> deserialize_ms;
  std::vector<double> install_ms;
  for (size_t i = 0; i < args.reps.startups; ++i) {
    const Startup startup = MeasureStartup(tenants);
    deserialize_ms.push_back(startup.deserialize_ms);
    install_ms.push_back(startup.install_ms);
  }

  ServeRun serve(args, tenants, tally);
  std::map<int, TaskTimes> before;
  std::map<int, TaskTimes> after;
  ServeRun::Fixed fixed;
  const double wall_s = serve.ServePhase(&fixed, nullptr, &before, &after);
  for (size_t i = 0; i < args.reps.search_steps; ++i) serve.SearchStep();
  const int ingest_tid = static_cast<int>(getpid());
  double worker_cpu = 0.0;
  double worker_wait = 0.0;
  for (const auto& [tid, times] : after) {
    if (tid == ingest_tid || !before.contains(tid)) continue;
    worker_cpu += static_cast<double>(times.cpu_ns - before[tid].cpu_ns);
    worker_wait += static_cast<double>(times.wait_ns - before[tid].wait_ns);
  }
  const double wall_ns = wall_s * 1e9;
  const double workers_ns = wall_ns * static_cast<double>(PoolWorkers());

  // The traced pass, run once untraced for the overhead.
  const uint64_t prefix = workload.trace_prefix_events;
  uint64_t frames = 0;
  const double untraced_s = serve.InlinePass(prefix, nullptr, &frames);
  SpanRecorder spans(4 * prefix);
  const double traced_s = serve.InlinePass(prefix, &spans, &frames);
  PrintSelfTimes(workload.name, spans, traced_s, untraced_s);
  if (!args.trace_out.empty() &&
      !spans.WriteChromeJson(args.trace_out, workload.name)) {
    tally->Fail(1, "cannot write " + args.trace_out);
  }
  const std::vector<SpanRecorder::Row> rows = spans.Rows();
  auto row = [&](SpanName name) { return rows[static_cast<size_t>(name)]; };
  int64_t self_sum_ns = 0;
  for (const SpanRecorder::Row& r : rows) self_sum_ns += r.self_ns;

  const LayerCosts layers = ReplayLayers(
      serve.ctx(), workload.replay_events, workload.replay_windows);

  // Counters of the pooled serve run.
  out->Add("ingest.busy_frac",
           static_cast<double>(after[ingest_tid].cpu_ns -
                               before[ingest_tid].cpu_ns) / wall_ns,
           "fraction");
  out->Add("ingest.runq_frac",
           static_cast<double>(after[ingest_tid].wait_ns -
                               before[ingest_tid].wait_ns) / wall_ns,
           "fraction");
  out->Add("service.worker_busy_frac", worker_cpu / workers_ns, "fraction");
  out->Add("service.worker_runq_frac", worker_wait / workers_ns, "fraction");
  out->Add("ingest.lag_p50_us", Us(Quantile(&fixed.lag_ns, 0.5)), "us");
  out->Add("ingest.lag_p99_us", Us(Quantile(&fixed.lag_ns, 0.99)), "us");
  out->Add("service.submit_p99_us", Us(Quantile(&fixed.submit_ns, 0.99)),
           "us");
  out->Add("service.queue_depth_max",
           static_cast<double>(fixed.queue_depth_max), "count");
  out->Add("service.reload_ms", layers.reload_ms, "ms");
  out->Add("core.deserialize_ms", Median(deserialize_ms), "ms");
  out->Add("service.install_ms", Median(install_ms), "ms");
  out->Add("latency.verdict_p99_us", Us(Quantile(&fixed.latency_ns, 0.99)),
           "us");
  out->Add("latency.verdict_p999_us",
           Us(Quantile(&fixed.latency_ns, 0.999)), "us");
  out->Add("latency.samples", static_cast<double>(fixed.latency_ns.size()),
           "count");
  out->Add("sink.verdicts", static_cast<double>(fixed.flags.verdicts),
           "count");
  out->Add("sink.alarms", static_cast<double>(fixed.flags.alarms), "count");
  out->Add("sink.dataleak", static_cast<double>(fixed.flags.data_leaks),
           "count");
  out->Add("search.sustainable_eps", serve.sustainable(), "events/s");

  // Traced pass.
  out->Add("trace.overhead_frac", traced_s / untraced_s - 1.0, "fraction");
  out->Add("runtime.decode_ns",
           NsPer(row(SpanName::kFeed).self_ns + row(SpanName::kNext).self_ns,
               frames),
           "ns");
  out->Add("service.submit_self_ns",
           NsPer(row(SpanName::kSubmit).self_ns, row(SpanName::kSubmit).count),
           "ns");
  out->Add("service.close_self_us",
           NsPer(row(SpanName::kCloseSession).self_ns,
               row(SpanName::kCloseSession).count) * 1e-3,
           "us");
  out->Add("sink.verdict_ns",
           NsPer(row(SpanName::kOnDetection).total_ns,
               row(SpanName::kOnDetection).count),
           "ns");
  out->Add("trace.unattributed_frac",
           1.0 - static_cast<double>(self_sum_ns) / (traced_s * 1e9),
           "fraction");

  // Layer replay.
  out->Add("runtime.decode4k_ns", layers.decode4k_ns, "ns");
  out->Add("core.encode_ns", layers.encode_ns, "ns");
  out->Add("service.monitor_ns", layers.monitor_ns, "ns");
  out->Add("core.score_w1_ns", layers.score_w1_ns, "ns");
  out->Add("core.score_w16_ns", layers.score_w16_ns, "ns");
  out->Add("core.verdict_ns", layers.verdict_ns, "ns");

  // Build stages.
  out->Add("build.wall_s", stages.wall_s, "s");
  out->Add("prog.parse_ms", stages.parse_ms, "ms");
  out->Add("core.analyze_s", stages.analyze_s, "s");
  out->Add("analysis.cfg_s", stages.cfg_s, "s");
  out->Add("analysis.absint_s", stages.absint_s, "s");
  out->Add("analysis.taint_s", stages.taint_s, "s");
  out->Add("analysis.forecast_s", stages.forecast_s, "s");
  out->Add("analysis.aggregation_s", stages.aggregation_s, "s");
  out->Add("runtime.collect_s", stages.collect_s, "s");
  out->Add("runtime.trace_events", stages.trace_events, "count");
  out->Add("core.construct_s", stages.construct_s, "s");
  out->Add("ml.reduction_s", stages.reduction_s, "s");
  out->Add("hmm.init_s", stages.init_s, "s");
  out->Add("hmm.baum_welch_s", stages.baum_welch_s, "s");
  out->Add("core.construct_other_s",
           stages.construct_s - stages.reduction_s - stages.init_s -
               stages.baum_welch_s,
           "s");
  out->Add("core.serialize_ms", stages.serialize_ms, "ms");
  out->Add("core.profile_bytes", stages.profile_bytes, "bytes");
  out->Add("hmm.states", stages.states, "count");
  out->Add("hmm.a_density", stages.a_nonzeros / stages.a_cells, "fraction");
  out->Add("build.busy_frac", stages.cpu_s / stages.wall_s, "fraction");

  // Warm re-analysis.
  out->Add("analysis.rebuild_ms", drift.total_ms, "ms");
  for (size_t i = 0; i < DriftCorpus::kRevisions; ++i) {
    out->Add(std::string("analysis.rebuild_") + DriftCorpus::RevisionKind(i) +
                 "_ms",
             drift.revision_ms[i], "ms");
  }
  out->Add("analysis.rebuild_hits", static_cast<double>(drift.hits), "count");
  out->Add("analysis.rebuild_misses", static_cast<double>(drift.misses),
           "count");
}

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: bench_e2e --workload tenants|heavy|churn [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out PATH] [--smoke]\n");
    return 2;
  }
  const std::string& workload = args.workload.name;
  Tally tally;
  MetricSet metrics;
  if (args.trace) {
    RunLayers(args, &tally, &metrics);
  } else {
    RunEndToEnd(args, &tally, &metrics);
  }

  std::string fields;
  for (const Metric& m : metrics.all()) {
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    if (value != m.value) tally.Fail(1, m.name + " is not finite");
    std::printf("%s %s %.9g %s\n", workload.c_str(), m.name.c_str(),
                value, m.unit.c_str());
    fields += (fields.empty() ? "" : ", ") + JsonString(m.name) +
              util::StrFormat(": {\"value\": %.17g, \"unit\": ", value) +
              JsonString(m.unit) + "}";
  }
  for (const std::string& note : tally.notes) {
    std::fprintf(stderr, "bench_e2e: FAILED: %s\n", note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              tally.failed == 0 ? "true" : "false", tally.attempted,
              tally.failed, fields.c_str());
  std::fflush(stdout);
  return tally.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace adprom::e2e

int main(int argc, char** argv) { return adprom::e2e::Main(argc, argv); }
