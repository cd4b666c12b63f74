// Throughput bench for the two hot layers: parallel Baum-Welch training
// and the encode-once / workspace detection pipeline.
//
//  * Training: the Table-8-style heavy corpus (the bash-like SIR app,
//    ~1000 call sites, clustered to ~300 hidden states). The dense scalar
//    reference (ReferenceBaumWelchTrain, one thread) is the base row; the
//    production engine (BaumWelchTrain, batched SIMD E-step) is swept over
//    1/2/4/N threads, plus single-thread rows with the SIMD kernels and
//    with the scalar kernels pinned. Min-of-N wall time, speedup, and a
//    bit-identical check of every trained model against the reference.
//  * Kernels: the single-thread scoring microbench — the same window set
//    scored by the dense per-window forward pass (the reference) and by
//    the batched engine (scalar lanes, SIMD lanes, SIMD + quantized
//    triage) — plus the trained model's transition/emission nnz and
//    density and the triage tables' footprint.
//  * Detection: the grep-like app's traces scored by the encode-once
//    MonitorTrace and by the batch MonitorTraces pool fan-out at 1/2/4/N
//    threads, weak-scaled (trace set replicated once per thread) so
//    per-thread work stays constant; reported as events/sec plus
//    per-thread efficiency.
//
// Rows that ask for more threads than the host has carry
// "measured": false and no efficiency: they time oversubscription, not
// scaling. All wall times are min-of-N (see MinWallSeconds); the JSON
// carries a provenance block naming the CPU and the repeat count.
// `--smoke` shrinks every preset so the whole binary finishes in seconds
// for CI.
//
// Machine-readable results are written to BENCH_throughput.json at the
// repository root (override with --json <path>) so the perf trajectory is
// tracked across PRs.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "core/detection_engine.h"
#include "hmm/batch_baum_welch.h"
#include "hmm/batch_forward.h"
#include "hmm/baum_welch.h"
#include "hmm/inference.h"
#include "hmm/sparse.h"
#include "util/simd.h"
#include "util/strings.h"
#include "util/table_printer.h"
#include "util/thread_pool.h"

#ifndef ADPROM_SOURCE_DIR
#define ADPROM_SOURCE_DIR "."
#endif

namespace adprom::bench {
namespace {

struct Preset {
  bool smoke = false;
  /// Windows the training sweep and kernel microbench run over.
  size_t train_window_cap = 400;
  /// Baum-Welch iterations per timed training run.
  int train_iterations = 3;
  /// Min-of-N repeats for the timed training runs.
  size_t train_repeats = 3;
  /// Min-of-N repeats for the kernel scoring microbench.
  size_t kernel_repeats = 5;
  /// Target window count per detection timing pass (sets its repeats).
  size_t detect_target_windows = 60000;
};

Preset SmokePreset() {
  Preset p;
  p.smoke = true;
  p.train_window_cap = 100;
  p.train_iterations = 1;
  p.train_repeats = 1;
  p.kernel_repeats = 2;
  p.detect_target_windows = 2000;
  return p;
}

/// Whether a row run at `threads` threads measures scaling: a row with
/// more threads than the host runs concurrently times oversubscription,
/// so it is reported as not measured and gets no efficiency.
bool Measured(size_t threads) {
  return threads <= util::ThreadPool::DefaultConcurrency();
}

/// One row of the production training sweep (BaumWelchTrain).
struct TrainRun {
  size_t threads = 0;
  std::string simd_level;
  double seconds = 0.0;
  double speedup = 1.0;  // vs the 1-thread production run
  /// speedup / threads — the multi-thread rows strong-scale a fixed
  /// corpus, so raw speedup alone reads as a regression when the corpus
  /// is too small to feed the extra threads. 1.0 means each extra thread
  /// added a full thread's worth of throughput.
  double per_thread_efficiency = 1.0;
};

/// One single-thread row of the batched engine, measured against the
/// dense reference row.
struct BatchTrainRun {
  std::string name;  // "batch-scalar" or "batch-simd"
  size_t width = 0;
  std::string simd_level;
  double seconds = 0.0;
  double speedup_vs_dense = 0.0;  // dense reference seconds / this row
  /// Trained model bitwise equal to the reference model.
  bool bit_identical = true;
};

struct DetectRun {
  std::string name;
  size_t threads = 1;
  /// Events per timed pass for THIS row (weak-scaled rows replicate the
  /// trace set once per thread, so their pass is `threads` x larger).
  size_t events = 0;
  bool weak_scaled = false;
  double seconds = 0.0;
  double events_per_sec = 0.0;
  double windows_per_sec = 0.0;
  /// events_per_sec / (threads * single-thread batch events_per_sec) —
  /// 1.0 means each extra thread adds a full thread's worth of throughput.
  double per_thread_efficiency = 1.0;
};

/// One batched-engine row of the kernel microbench.
struct BatchKernelRun {
  std::string name;
  size_t width = 0;
  std::string simd_level;
  double seconds = 0.0;
  double windows_per_sec = 0.0;
  double speedup_vs_dense = 0.0;
  /// Fraction of windows the triage tier certified (0 for exact rows).
  double certified_fraction = 0.0;
  /// Exact rows: scores bitwise-equal to the dense per-window pass. Triage
  /// rows: every score a sound floor on — and threshold-equivalent to —
  /// the exact score.
  bool scores_ok = true;
};

/// The thread counts to sweep: 1, 2, 4, and the hardware concurrency
/// (just 1 and 2 under --smoke).
std::vector<size_t> ThreadSweep(const Preset& preset) {
  std::set<size_t> sweep =
      preset.smoke
          ? std::set<size_t>{1, 2}
          : std::set<size_t>{1, 2, 4, util::ThreadPool::DefaultConcurrency()};
  return {sweep.begin(), sweep.end()};
}

std::string Num(double v) { return util::StrFormat("%.6g", v); }

/// The JSON tail shared by every threaded row: whether it measured
/// scaling, and its efficiency only if it did.
std::string ScalingJson(size_t threads, double efficiency) {
  if (!Measured(threads)) return ", \"measured\": false";
  return ", \"measured\": true, \"per_thread_efficiency\": " +
         Num(efficiency);
}

std::string EfficiencyCell(size_t threads, double efficiency) {
  return Measured(threads) ? util::StrFormat("%.2f", efficiency)
                           : "not measured";
}

struct KernelResults {
  size_t windows = 0;
  size_t repeats = 0;
  double dense_seconds = 0.0;
  size_t transition_nnz = 0;
  double transition_density = 1.0;
  size_t emission_nnz = 0;
  double emission_density = 1.0;
  std::vector<BatchKernelRun> batch_runs;
  size_t quantized_table_bytes = 0;
};

struct BenchResults {
  double reference_seconds = 0.0;
  std::vector<TrainRun> train_runs;
  std::vector<BatchTrainRun> batch_train_runs;
  bool bit_identical = true;
  int train_iterations = 0;
  size_t train_windows = 0;
  size_t train_states = 0;
  size_t train_alphabet = 0;
  size_t train_repeats = 0;
  double train_transition_density = 1.0;
  KernelResults kernels;
  std::vector<DetectRun> detect_runs;
  size_t detect_repeats = 0;
  size_t detect_traces = 0;
  size_t detect_events = 0;
  size_t detect_windows = 0;
};

/// The Table-8-style heavy corpus, trained once (1 EM iteration) so the
/// timed sweeps and the kernel microbench share one model and window set.
struct TrainingSetup {
  core::ApplicationProfile profile;
  std::vector<hmm::ObservationSeq> windows;
};

TrainingSetup SetupTraining(const Preset& preset) {
  // The bash-like app crosses the 900-site clustering threshold, so the
  // trained HMM has hundreds of states and the E-step is genuinely
  // expensive — and its pCTM-derived transition matrix is genuinely
  // sparse.
  PreparedApp prepared =
      Prepare(preset.smoke ? apps::MakeBashLike(25, 8, 4)
                           : apps::MakeBashLike());
  core::ProfileOptions options;
  options.train.max_iterations = 1;  // the sweeps below re-train
  options.max_training_windows = 400;
  core::AdProm system = TrainOrDie(prepared, options);

  TrainingSetup setup;
  setup.profile = system.profile();
  for (const runtime::Trace& trace : system.training_traces()) {
    for (const auto& window :
         core::SlidingWindows(trace, options.window_length)) {
      setup.windows.push_back(setup.profile.Encode(window));
    }
  }
  if (setup.windows.size() > preset.train_window_cap) {
    setup.windows.resize(preset.train_window_cap);
  }
  return setup;
}

size_t CountNonzeros(const util::Matrix& m) {
  size_t nnz = 0;
  for (size_t r = 0; r < m.rows(); ++r) {
    for (size_t c = 0; c < m.cols(); ++c) nnz += m.At(r, c) != 0.0;
  }
  return nnz;
}

bool SameModel(const hmm::HmmModel& a, const hmm::HmmModel& b) {
  return a.a().MaxAbsDiff(b.a()) == 0.0 && a.b().MaxAbsDiff(b.b()) == 0.0 &&
         a.pi() == b.pi();
}

void BenchTraining(const TrainingSetup& setup, const Preset& preset,
                   BenchResults* results) {
  const core::ApplicationProfile& profile = setup.profile;
  const std::vector<hmm::ObservationSeq>& windows = setup.windows;
  results->train_windows = windows.size();
  results->train_states = profile.model.num_states();
  results->train_alphabet = profile.alphabet.size();
  results->train_iterations = preset.train_iterations;
  results->train_repeats = preset.train_repeats;
  results->train_transition_density =
      hmm::SparseHmm(profile.model).transition_density();
  std::printf("training corpus: bash-like, %zu windows, %zu states,"
              " alphabet %zu\n",
              windows.size(), profile.model.num_states(),
              profile.alphabet.size());

  // Times `train` from the setup model, min-of-N, and returns the model
  // the last repeat trained.
  auto time_training = [&](const hmm::TrainOptions& options, bool reference,
                           double* seconds, std::string* simd_level) {
    hmm::HmmModel model;
    *seconds = MinWallSeconds(preset.train_repeats, [&] {
      model = profile.model;  // same start for every run
      auto stats =
          reference ? hmm::ReferenceBaumWelchTrain(&model, windows, options)
                    : hmm::BaumWelchTrain(&model, windows, options);
      ADPROM_CHECK_MSG(stats.ok(), stats.status().ToString());
      *simd_level = stats->simd_level;
    });
    return model;
  };
  hmm::TrainOptions base;
  base.max_iterations = preset.train_iterations;
  base.tolerance = 0.0;
  base.num_threads = 1;

  // The dense scalar reference, single-threaded: the base row of every
  // speedup_vs_dense and of the batch-simd gate.
  std::string simd_level;
  const hmm::HmmModel reference_model = time_training(
      base, /*reference=*/true, &results->reference_seconds, &simd_level);

  // The production engine across the thread sweep.
  hmm::HmmModel single_thread_model;
  for (size_t threads : ThreadSweep(preset)) {
    hmm::TrainOptions train = base;
    train.num_threads = static_cast<int>(threads);
    TrainRun run;
    run.threads = threads;
    const hmm::HmmModel model = time_training(train, /*reference=*/false,
                                              &run.seconds, &run.simd_level);
    if (results->train_runs.empty()) {
      single_thread_model = model;
    } else {
      run.speedup = results->train_runs.front().seconds / run.seconds;
    }
    run.per_thread_efficiency =
        run.speedup / static_cast<double>(run.threads);
    results->bit_identical =
        results->bit_identical && SameModel(model, reference_model);
    results->train_runs.push_back(std::move(run));
  }

  // Single-thread engine rows against the reference row: the scalar
  // kernels pinned, and the runtime SIMD dispatch. The latter is the
  // sweep's 1-thread row — the same configuration, so it is not timed
  // twice. speedup_vs_dense of batch-simd is the headline training number
  // (the perf gate keys on it).
  {
    hmm::TrainOptions train = base;
    train.no_simd = true;
    BatchTrainRun run;
    run.name = "batch-scalar";
    const hmm::HmmModel model = time_training(train, /*reference=*/false,
                                              &run.seconds, &run.simd_level);
    run.bit_identical = SameModel(model, reference_model);
    results->batch_train_runs.push_back(std::move(run));
  }
  {
    const TrainRun& single = results->train_runs.front();
    BatchTrainRun run;
    run.name = "batch-simd";
    run.seconds = single.seconds;
    run.simd_level = single.simd_level;
    run.bit_identical = SameModel(single_thread_model, reference_model);
    results->batch_train_runs.push_back(std::move(run));
  }
  for (BatchTrainRun& run : results->batch_train_runs) {
    run.width = hmm::BatchEStep::kDefaultWidth;
    run.speedup_vs_dense = results->reference_seconds / run.seconds;
    results->bit_identical = results->bit_identical && run.bit_identical;
  }

  util::TablePrinter table({"Baum-Welch (" +
                                std::to_string(preset.train_iterations) +
                                " iters)",
                            "threads", "engine", "seconds", "speedup",
                            "efficiency"});
  table.AddRow({"train", "1", "dense reference",
                util::StrFormat("%.3f", results->reference_seconds), "", ""});
  for (const TrainRun& run : results->train_runs) {
    table.AddRow({"train", std::to_string(run.threads),
                  "batch (" + run.simd_level + ")",
                  util::StrFormat("%.3f", run.seconds),
                  util::StrFormat("%.2fx", run.speedup),
                  EfficiencyCell(run.threads, run.per_thread_efficiency)});
  }
  for (const BatchTrainRun& run : results->batch_train_runs) {
    table.AddRow({"train", "1",
                  run.name + " (" + run.simd_level + ", W=" +
                      std::to_string(run.width) + ")",
                  util::StrFormat("%.3f", run.seconds),
                  util::StrFormat("%.2fx vs dense", run.speedup_vs_dense),
                  ""});
  }
  table.Print();
  std::printf("every model bit-identical to the dense reference: %s\n"
              "(transition density %.3f; multi-thread rows strong-scale a"
              " fixed %zu-window corpus; efficiency = speedup/threads)\n\n",
              results->bit_identical ? "yes" : "NO — BUG",
              results->train_transition_density, windows.size());
}

void BenchKernels(const TrainingSetup& setup, const Preset& preset,
                  BenchResults* results) {
  const hmm::HmmModel& model = setup.profile.model;
  const std::vector<hmm::ObservationSeq>& windows = setup.windows;
  const hmm::SparseHmm sparse(model);
  KernelResults& k = results->kernels;
  k.windows = windows.size();
  k.repeats = preset.kernel_repeats;
  k.transition_nnz = CountNonzeros(model.a());
  k.transition_density = sparse.transition_density();
  k.emission_nnz = CountNonzeros(model.b());
  const size_t b_cells = model.num_states() * model.num_symbols();
  k.emission_density =
      b_cells == 0 ? 1.0
                   : static_cast<double>(k.emission_nnz) /
                         static_cast<double>(b_cells);

  // Single-thread scoring reference: the dense forward pass, window by
  // window, min-of-N.
  hmm::ForwardWorkspace ws;
  std::vector<double> dense_scores(windows.size());
  k.dense_seconds = MinWallSeconds(preset.kernel_repeats, [&] {
    for (size_t i = 0; i < windows.size(); ++i) {
      auto score = hmm::PerSymbolLogLikelihood(model, windows[i], &ws);
      ADPROM_CHECK_MSG(score.ok(), score.status().ToString());
      dense_scores[i] = *score;
    }
  });

  // The batched engine: the same window set through BatchScorer. ScoreBatch
  // requires one common length per call, so the windows are bucketed by
  // length once (outside the timed region) — MonitorTrace gets this for
  // free because SlidingWindows emits uniform windows per trace.
  struct Bucket {
    std::vector<hmm::SymbolSpan> spans;
    std::vector<size_t> index;  // original window index per span
  };
  std::vector<Bucket> buckets;
  for (size_t i = 0; i < windows.size(); ++i) {
    Bucket* bucket = nullptr;
    for (Bucket& candidate : buckets) {
      if (candidate.spans[0].size() == windows[i].size()) {
        bucket = &candidate;
        break;
      }
    }
    if (bucket == nullptr) bucket = &buckets.emplace_back();
    bucket->spans.emplace_back(windows[i]);
    bucket->index.push_back(i);
  }

  const double threshold = setup.profile.threshold;
  std::vector<double> batch_scores(windows.size());
  auto bench_batch = [&](std::string name, bool no_simd, bool triage) {
    hmm::BatchOptions options;
    options.no_simd = no_simd;
    options.triage = triage;
    const hmm::BatchScorer scorer(&sparse, options);
    hmm::BatchWorkspace batch_ws;
    scorer.Reserve(&batch_ws);
    std::vector<double> bucket_out;
    bucket_out.reserve(windows.size());
    const double seconds = MinWallSeconds(preset.kernel_repeats, [&] {
      for (const Bucket& bucket : buckets) {
        bucket_out.resize(bucket.spans.size());
        auto status =
            scorer.ScoreBatch(bucket.spans, threshold, &batch_ws, bucket_out);
        ADPROM_CHECK_MSG(status.ok(), status.ToString());
        for (size_t j = 0; j < bucket.index.size(); ++j) {
          batch_scores[bucket.index[j]] = bucket_out[j];
        }
      }
    });
    BatchKernelRun run;
    run.name = std::move(name);
    run.width = scorer.options().width;
    run.simd_level = util::SimdLevelName(scorer.simd_level());
    run.seconds = seconds;
    run.windows_per_sec = static_cast<double>(windows.size()) / seconds;
    run.speedup_vs_dense = k.dense_seconds / seconds;
    // The workspace accumulates across repeats; normalize to one pass.
    run.certified_fraction =
        static_cast<double>(batch_ws.stats.triage_certified) /
        static_cast<double>(batch_ws.stats.windows);
    for (size_t i = 0; i < windows.size(); ++i) {
      run.scores_ok =
          run.scores_ok &&
          (triage ? batch_scores[i] <= dense_scores[i] &&
                        (batch_scores[i] < threshold) ==
                            (dense_scores[i] < threshold)
                  : std::memcmp(&batch_scores[i], &dense_scores[i],
                                sizeof(double)) == 0);
    }
    if (triage) {
      k.quantized_table_bytes = scorer.triage_tables().SizeBytes();
    }
    k.batch_runs.push_back(std::move(run));
  };
  bench_batch("batch-scalar", /*no_simd=*/true, /*triage=*/false);
  bench_batch("batch-simd", /*no_simd=*/false, /*triage=*/false);
  bench_batch("batch-simd-triage", /*no_simd=*/false, /*triage=*/true);

  util::TablePrinter table(
      {"Forward kernel", "seconds (min-of-" +
                             std::to_string(preset.kernel_repeats) + ")",
       "windows/sec", "vs dense"});
  table.AddRow({"dense reference", util::StrFormat("%.4f", k.dense_seconds),
                util::StrFormat("%.0f", windows.size() / k.dense_seconds),
                "1.00x"});
  for (const BatchKernelRun& run : k.batch_runs) {
    table.AddRow({run.name + " (" + run.simd_level + ", W=" +
                      std::to_string(run.width) + ")",
                  util::StrFormat("%.4f", run.seconds),
                  util::StrFormat("%.0f", run.windows_per_sec),
                  util::StrFormat("%.2fx", run.speedup_vs_dense)});
  }
  table.Print();
  std::printf("transition matrix: nnz %zu (%.1f%% dense); emission matrix:"
              " nnz %zu (%.1f%% dense)\n",
              k.transition_nnz, 100.0 * k.transition_density,
              k.emission_nnz, 100.0 * k.emission_density);
  bool batch_ok = true;
  for (const BatchKernelRun& run : k.batch_runs) {
    batch_ok = batch_ok && run.scores_ok;
  }
  std::printf("batched scores bit-identical to dense (exact) / sound floors"
              " (triage): %s; triage certified %.1f%%, quantized tables"
              " %zu bytes\n\n",
              batch_ok ? "yes" : "NO — BUG",
              100.0 * k.batch_runs.back().certified_fraction,
              k.quantized_table_bytes);
}

void BenchDetection(const Preset& preset, BenchResults* results) {
  // Serving-style workload: the grep-like app's full trace set, scored
  // over and over as a stream of monitored runs.
  PreparedApp prepared = Prepare(apps::MakeGrepLike());
  core::AdProm system = TrainOrDie(prepared);
  const core::ApplicationProfile& profile = system.profile();
  const std::vector<runtime::Trace>& traces = system.training_traces();
  const core::DetectionEngine engine(&profile);

  size_t total_events = 0;
  size_t total_windows = 0;
  for (const runtime::Trace& trace : traces) {
    total_events += trace.size();
    total_windows +=
        core::SlidingWindows(trace, profile.options.window_length).size();
  }
  const size_t repeats =
      std::max<size_t>(1, preset.detect_target_windows / total_windows);
  results->detect_repeats = repeats;
  results->detect_traces = traces.size();
  results->detect_events = total_events;
  results->detect_windows = total_windows;
  std::printf("detection corpus: grep-like, %zu traces, %zu events,"
              " %zu windows per pass, min-of-%zu passes\n",
              traces.size(), total_events, total_windows, repeats);

  auto record = [&](std::string name, size_t threads, size_t scale,
                    double seconds) {
    DetectRun run;
    run.name = std::move(name);
    run.threads = threads;
    run.events = total_events * scale;
    run.weak_scaled = scale > 1;
    run.seconds = seconds;
    run.events_per_sec = static_cast<double>(run.events) / seconds;
    run.windows_per_sec =
        static_cast<double>(total_windows * scale) / seconds;
    results->detect_runs.push_back(run);
  };

  size_t checksum = 0;  // keep the scoring from being optimized away
  record("encode-once", 1, 1, MinWallSeconds(repeats, [&] {
           for (const runtime::Trace& trace : traces) {
             checksum += engine.MonitorTrace(trace).size();
           }
         }));
  // Multi-thread rows are WEAK-scaled: the trace set is replicated once
  // per thread, so per-thread work stays constant across the sweep (a
  // strong-scaled sweep hands each extra thread a shrinking slice that the
  // pool's block fan-out overhead soon outgrows). Per-thread efficiency
  // (vs the 1-thread batch row) is what the JSON tracks: 1.0 means an
  // extra thread adds a full thread's worth of throughput.
  for (size_t threads : ThreadSweep(preset)) {
    std::vector<runtime::Trace> replicated;
    replicated.reserve(traces.size() * threads);
    for (size_t copy = 0; copy < threads; ++copy) {
      replicated.insert(replicated.end(), traces.begin(), traces.end());
    }
    util::ThreadPool pool(threads);
    record("batch", threads, threads, MinWallSeconds(repeats, [&] {
             checksum += engine.MonitorTraces(replicated, &pool).size();
           }));
  }

  double batch_single_eps = 0.0;
  for (const DetectRun& run : results->detect_runs) {
    if (run.name == "batch" && run.threads == 1) {
      batch_single_eps = run.events_per_sec;
    }
  }
  for (DetectRun& run : results->detect_runs) {
    run.per_thread_efficiency =
        batch_single_eps > 0.0
            ? run.events_per_sec /
                  (static_cast<double>(run.threads) * batch_single_eps)
            : 1.0;
  }

  util::TablePrinter table({"Detection", "threads", "scaling", "seconds",
                            "events/sec", "windows/sec", "efficiency"});
  for (const DetectRun& run : results->detect_runs) {
    table.AddRow({run.name, std::to_string(run.threads),
                  run.weak_scaled ? "weak" : "fixed",
                  util::StrFormat("%.3f", run.seconds),
                  util::StrFormat("%.0f", run.events_per_sec),
                  util::StrFormat("%.0f", run.windows_per_sec),
                  EfficiencyCell(run.threads, run.per_thread_efficiency)});
  }
  table.Print();
  std::printf("(checksum %zu; batch rows weak-scale the corpus so"
              " per-thread work is constant)\n",
              checksum);
}

void WriteJson(const BenchResults& results, const Preset& preset,
               const std::string& json_path) {
  std::ostringstream json;
  json << "{\n";
  json << "  \"bench\": \"bench_throughput\",\n";
  json << "  " << JsonProvenance(preset.kernel_repeats) << ",\n";
  json << "  \"hardware_concurrency\": "
       << util::ThreadPool::DefaultConcurrency() << ",\n";
  json << "  \"training\": {\"corpus\": \"bash-like\", \"iterations\": "
       << results.train_iterations
       << ", \"windows\": " << results.train_windows
       << ", \"states\": " << results.train_states
       << ", \"alphabet\": " << results.train_alphabet
       << ", \"timing_repeats\": " << results.train_repeats
       << ", \"transition_density\": "
       << Num(results.train_transition_density)
       << ", \"bit_identical\": "
       << (results.bit_identical ? "true" : "false")
       << ", \"reference\": {\"name\": \"dense-reference\", \"threads\": 1"
       << ", \"wall_time_sec\": " << Num(results.reference_seconds)
       << "}, \"runs\": [";
  for (size_t i = 0; i < results.train_runs.size(); ++i) {
    const TrainRun& run = results.train_runs[i];
    json << (i ? ", " : "") << "{\"threads\": " << run.threads
         << ", \"engine\": \"batch\", \"simd_level\": \"" << run.simd_level
         << "\", \"wall_time_sec\": " << Num(run.seconds)
         << ", \"speedup\": " << Num(run.speedup)
         << ", \"speedup_vs_dense\": "
         << Num(results.reference_seconds / run.seconds)
         << ScalingJson(run.threads, run.per_thread_efficiency) << "}";
  }
  json << "], \"batch_runs\": [";
  for (size_t i = 0; i < results.batch_train_runs.size(); ++i) {
    const BatchTrainRun& run = results.batch_train_runs[i];
    json << (i ? ", " : "") << "{\"name\": \"" << run.name
         << "\", \"width\": " << run.width << ", \"simd_level\": \""
         << run.simd_level << "\""
         << ", \"wall_time_sec\": " << Num(run.seconds)
         << ", \"speedup_vs_dense\": " << Num(run.speedup_vs_dense)
         << ", \"bit_identical\": "
         << (run.bit_identical ? "true" : "false") << "}";
  }
  json << "]},\n";
  const KernelResults& k = results.kernels;
  json << "  \"kernels\": {\"corpus\": \"bash-like\", \"windows\": "
       << k.windows << ", \"timing_repeats\": " << k.repeats
       << ", \"dense_wall_time_sec\": " << Num(k.dense_seconds)
       << ", \"dense_windows_per_sec\": "
       << Num(k.windows / k.dense_seconds)
       << ", \"transition_nnz\": " << k.transition_nnz
       << ", \"transition_density\": " << Num(k.transition_density)
       << ", \"emission_nnz\": " << k.emission_nnz
       << ", \"emission_density\": " << Num(k.emission_density)
       << ", \"quantized_table_bytes\": " << k.quantized_table_bytes
       << ", \"batch_runs\": [";
  for (size_t i = 0; i < k.batch_runs.size(); ++i) {
    const BatchKernelRun& run = k.batch_runs[i];
    json << (i ? ", " : "") << "{\"name\": \"" << run.name
         << "\", \"width\": " << run.width << ", \"simd_level\": \""
         << run.simd_level << "\""
         << ", \"wall_time_sec\": " << Num(run.seconds)
         << ", \"windows_per_sec\": " << Num(run.windows_per_sec)
         << ", \"speedup_vs_dense\": " << Num(run.speedup_vs_dense)
         << ", \"triage_certified_fraction\": "
         << Num(run.certified_fraction)
         << ", \"scores_ok\": " << (run.scores_ok ? "true" : "false")
         << "}";
  }
  json << "]},\n";
  json << "  \"detection\": {\"corpus\": \"grep-like\", \"repeats\": "
       << results.detect_repeats
       << ", \"traces\": " << results.detect_traces
       << ", \"events_per_pass\": " << results.detect_events
       << ", \"windows_per_pass\": " << results.detect_windows
       << ", \"runs\": [";
  for (size_t i = 0; i < results.detect_runs.size(); ++i) {
    const DetectRun& run = results.detect_runs[i];
    json << (i ? ", " : "") << "{\"name\": \"" << run.name
         << "\", \"threads\": " << run.threads
         << ", \"events\": " << run.events
         << ", \"weak_scaled\": " << (run.weak_scaled ? "true" : "false")
         << ", \"wall_time_sec\": " << Num(run.seconds)
         << ", \"events_per_sec\": " << Num(run.events_per_sec)
         << ", \"windows_per_sec\": " << Num(run.windows_per_sec)
         << ScalingJson(run.threads, run.per_thread_efficiency) << "}";
  }
  json << "]}\n";
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
  PrintHeader(preset.smoke ? "Training & detection throughput (smoke)"
                           : "Training & detection throughput");
  BenchResults results;
  TrainingSetup setup = SetupTraining(preset);
  BenchTraining(setup, preset, &results);
  BenchKernels(setup, preset, &results);
  BenchDetection(preset, &results);
  WriteJson(results, preset, json_path);
}

}  // namespace
}  // namespace adprom::bench

int main(int argc, char** argv) {
  std::string json_path =
      std::string(ADPROM_SOURCE_DIR) + "/BENCH_throughput.json";
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
