#ifndef ADPROM_HMM_BAUM_WELCH_H_
#define ADPROM_HMM_BAUM_WELCH_H_

#include <functional>
#include <string>
#include <vector>

#include "hmm/hmm_model.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace adprom::hmm {

/// Options for Baum-Welch training.
struct TrainOptions {
  int max_iterations = 50;
  /// Stop when the mean per-sequence log-likelihood improves by less than
  /// this amount between iterations.
  double tolerance = 1e-4;
  /// Probability floor applied after each re-estimation so no emission
  /// or initial probability collapses to exactly zero. It is applied with
  /// HmmModel::SmoothEmissions, which floors only B and π and keeps A's
  /// exact-zero pattern — the pCTM structure SparseHmm compiles. Baum-Welch
  /// itself never turns a zero transition nonzero (its expected count
  /// stays zero), so the zero pattern survives every iteration.
  double smoothing = 1e-9;
  /// Pins the batched engine's kernels to the scalar flavour regardless of
  /// what the CPU supports (the `--no-simd` ablation switch). Bit-identical
  /// by the engine's contract; this exists for benchmarks and tests.
  bool no_simd = false;
  /// Worker threads for the E-step: 0 = hardware concurrency, 1 = serial.
  /// The expected-count accumulation is sharded over the sequences with a
  /// shard layout that depends only on the corpus size, and the per-shard
  /// accumulators are merged in fixed shard order — so the trained model
  /// is bit-identical for every thread count.
  int num_threads = 0;
  /// Optional early-stopping hook, called after every iteration with the
  /// iteration index. Returning false stops training. The paper's
  /// "converge sub-dataset" (CSDS) early stopping plugs in here: the
  /// Profile Constructor scores a held-out fifth of the normal data and
  /// halts once the held-out score stops improving.
  std::function<bool(int iteration, const HmmModel& model)> keep_going;
};

/// Summary of a training run.
struct TrainStats {
  int iterations = 0;
  /// Mean per-sequence training log-likelihood after each iteration.
  std::vector<double> log_likelihood_curve;
  bool converged = false;
  bool stopped_by_callback = false;
  /// The kernel table the batched E-step ran ("scalar"/"neon"/"avx2");
  /// always "scalar" for ReferenceBaumWelchTrain.
  std::string simd_level = "scalar";
};

/// Multi-sequence Baum-Welch (EM) re-estimation with Rabiner scaling.
/// Trains `model` in place on `sequences`. The E-step runs the batched SIMD
/// engine (BatchEStep, batch_baum_welch.h) over runs of equal-length
/// sequences. Sequences the current model assigns ~zero probability are
/// skipped for that iteration (they would otherwise poison the expected
/// counts). Fails when `sequences` is empty
/// or a symbol is out of range. When `pool` is non-null it is used for the
/// E-step instead of an internally created pool (options.num_threads then
/// only matters for the serial fast path when it equals 1).
util::Result<TrainStats> BaumWelchTrain(
    HmmModel* model, const std::vector<ObservationSeq>& sequences,
    const TrainOptions& options = TrainOptions(),
    util::ThreadPool* pool = nullptr);

/// The scalar reference for BaumWelchTrain: the same validation, shard
/// layout, merge order, M-step and smoothing, with an E-step that runs the
/// dense per-sequence forward, backward and xi loops. It trains the
/// bit-identical model; tests and benches compare the batched engine
/// against it.
util::Result<TrainStats> ReferenceBaumWelchTrain(
    HmmModel* model, const std::vector<ObservationSeq>& sequences,
    const TrainOptions& options = TrainOptions(),
    util::ThreadPool* pool = nullptr);

}  // namespace adprom::hmm

#endif  // ADPROM_HMM_BAUM_WELCH_H_
