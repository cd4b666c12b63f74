#include "hmm/baum_welch.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>

#include "hmm/batch_baum_welch.h"
#include "hmm/inference.h"
#include "hmm/sparse.h"
#include "util/logging.h"
#include "util/strings.h"

namespace adprom::hmm {

namespace {

/// Upper bound on E-step shards. The shard layout must not depend on the
/// thread count (that is what makes parallel training bit-identical to
/// serial), so the corpus is always cut into min(kMaxShards, #sequences)
/// contiguous blocks and the per-shard partial sums are merged in shard
/// order. 16 shards keep the peak accumulator memory modest (each shard
/// holds an N x N + N x M count matrix) while still feeding 16 workers.
constexpr size_t kMaxShards = 16;

/// Transition density at or below which the batched xi sweep walks A's
/// CSR rows instead of its dense rows. Each stored entry costs the CSR
/// sweep an index load and a gather, against the dense sweep's contiguous
/// vectorized rows, so past roughly this density the skipped zeros no
/// longer pay for the indirection. Both sweeps add the same terms in the
/// same order, so the choice never changes the trained model.
constexpr double kCsrXiMaxDensity = 0.15;

/// Adds one sequence's expected counts to `acc` with the dense scalar
/// forward, backward and xi loops: the reference E-step the batched engine
/// must match bit for bit. The buffers are reused across calls.
void AccumulateSequence(const HmmModel& model, const ObservationSeq& seq,
                        ForwardWorkspace* fw_ws, BackwardWorkspace* bw_ws,
                        std::vector<double>* emit_scratch,
                        EStepAccumulators* acc) {
  const size_t n = model.num_states();
  auto fw = ForwardInto(model, seq, fw_ws);
  ADPROM_CHECK(fw.ok());  // symbols were validated before training began
  if (*fw < -1e17) return;  // ~zero-probability outlier
  ADPROM_CHECK(BackwardInto(model, seq, fw_ws->scale, bw_ws).ok());
  acc->total_ll += *fw;
  ++acc->used;
  const size_t t_len = seq.size();
  const util::Matrix& alpha = fw_ws->alpha;
  const util::Matrix& beta = bw_ws->beta;

  // gamma_t(s) ∝ alpha_t(s) * beta_t(s); with Rabiner scaling the
  // product needs a factor scale[t] to be a proper distribution.
  for (size_t t = 0; t < t_len; ++t) {
    const double* alpha_t = alpha.RowData(t);
    const double* beta_t = beta.RowData(t);
    const double scale_t = fw_ws->scale[t];
    for (size_t s = 0; s < n; ++s) {
      const double gamma = alpha_t[s] * beta_t[s] * scale_t;
      if (t == 0) acc->pi_acc[s] += gamma;
      acc->b_num.At(s, seq[t]) += gamma;
      acc->b_den[s] += gamma;
      if (t + 1 < t_len) acc->a_den[s] += gamma;
    }
  }
  // xi_t(s,q) = alpha_t(s) A(s,q) B(q,o_{t+1}) beta_{t+1}(q); the
  // emission*beta factor is hoisted per (t, q).
  std::vector<double>& emit_next = *emit_scratch;
  emit_next.assign(n, 0.0);
  for (size_t t = 0; t + 1 < t_len; ++t) {
    const double* alpha_t = alpha.RowData(t);
    const double* beta_next = beta.RowData(t + 1);
    for (size_t q = 0; q < n; ++q) {
      emit_next[q] = model.b().At(q, seq[t + 1]) * beta_next[q];
    }
    for (size_t s = 0; s < n; ++s) {
      const double alpha_ts = alpha_t[s];
      if (alpha_ts == 0.0) continue;
      const double* a_row = model.a().RowData(s);
      double* out_row = acc->a_num.RowData(s);
      for (size_t q = 0; q < n; ++q) {
        out_row[q] += alpha_ts * a_row[q] * emit_next[q];
      }
    }
  }
}

/// Per-shard state: the accumulators plus the reused E-step buffers (the
/// batched engine's workspace, or the reference's forward/backward ones).
struct Shard {
  size_t begin = 0;
  size_t end = 0;
  EStepAccumulators acc;
  BatchTrainWorkspace batch_ws;
  ForwardWorkspace fw_ws;
  BackwardWorkspace bw_ws;
  std::vector<double> emit_scratch;
};

/// The training loop both entry points share; `reference` selects the
/// dense per-sequence E-step instead of the batched engine.
util::Result<TrainStats> Train(HmmModel* model,
                               const std::vector<ObservationSeq>& sequences,
                               const TrainOptions& options,
                               util::ThreadPool* pool, bool reference) {
  if (sequences.empty())
    return util::Status::InvalidArgument("no training sequences");
  for (const ObservationSeq& seq : sequences) {
    if (seq.empty())
      return util::Status::InvalidArgument("empty training sequence");
    for (int symbol : seq) {
      if (symbol < 0 ||
          static_cast<size_t>(symbol) >= model->num_symbols()) {
        return util::Status::OutOfRange(util::StrFormat(
            "symbol %d out of range [0, %zu)", symbol,
            model->num_symbols()));
      }
    }
  }

  const size_t n = model->num_states();
  const size_t m = model->num_symbols();
  TrainStats stats;
  stats.log_likelihood_curve.reserve(
      static_cast<size_t>(std::max(options.max_iterations, 0)));
  double prev_mean_ll = -std::numeric_limits<double>::infinity();

  // Contiguous shard layout, a function of the corpus size only.
  const size_t num_shards = std::min(kMaxShards, sequences.size());
  std::vector<Shard> shards(num_shards);
  for (size_t k = 0; k < num_shards; ++k) {
    shards[k].begin = k * sequences.size() / num_shards;
    shards[k].end = (k + 1) * sequences.size() / num_shards;
  }

  // The batched engine advances runs of equal-length sequences together.
  const BatchEStep estep(BatchEStep::kDefaultWidth, options.no_simd);
  if (!reference) {
    size_t max_len = 0;
    for (const ObservationSeq& seq : sequences) {
      max_len = std::max(max_len, seq.size());
    }
    for (Shard& shard : shards) {
      estep.Reserve(n, max_len, &shard.batch_ws);
    }
  }

  // The caller's pool, or an internal one when more than one thread is
  // requested and there is more than one shard to fan out.
  std::unique_ptr<util::ThreadPool> owned_pool;
  if (pool == nullptr && num_shards > 1) {
    const size_t threads = util::ResolveThreadCount(options.num_threads);
    if (threads > 1) {
      owned_pool = std::make_unique<util::ThreadPool>(
          std::min(threads, num_shards));
      pool = owned_pool.get();
    }
  }

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Rebuild the CSR view of the (just re-estimated) model. The O(N²)
    // scan is negligible next to the O(ΣT·nnz) E-step, and the read-only
    // SparseHmm is shared safely across the shard workers.
    SparseHmm sparse;
    bool csr_xi = false;
    if (!reference) {
      sparse = SparseHmm(*model);
      csr_xi = sparse.transition_density() <= kCsrXiMaxDensity;
    }

    // E-step: every shard accumulates its block of sequences. The batched
    // engine advances maximal runs of consecutive equal-length sequences
    // (capped at the engine width); runs are formed in corpus order, so
    // the accumulation order — and the result — is exactly the
    // reference's.
    util::ParallelFor(pool, num_shards, [&](size_t k) {
      Shard& shard = shards[k];
      shard.acc.Reset(n, m);
      if (reference) {
        for (size_t i = shard.begin; i < shard.end; ++i) {
          AccumulateSequence(*model, sequences[i], &shard.fw_ws,
                             &shard.bw_ws, &shard.emit_scratch, &shard.acc);
        }
        return;
      }
      size_t i = shard.begin;
      while (i < shard.end) {
        size_t run = 1;
        const size_t len = sequences[i].size();
        while (i + run < shard.end && run < estep.width() &&
               sequences[i + run].size() == len) {
          ++run;
        }
        estep.AccumulateBlock(
            *model, sparse, csr_xi,
            std::span<const ObservationSeq>(&sequences[i], run),
            &shard.batch_ws, &shard.acc);
        i += run;
      }
    });

    // Merge in fixed shard order (shard 0 is the merge target).
    EStepAccumulators& total = shards[0].acc;
    for (size_t k = 1; k < num_shards; ++k) total.MergeFrom(shards[k].acc);

    if (total.used == 0) {
      return util::Status::FailedPrecondition(
          "model assigns zero probability to every training sequence");
    }

    // M-step: re-estimate with a smoothing floor.
    for (size_t s = 0; s < n; ++s) {
      for (size_t q = 0; q < n; ++q) {
        model->mutable_a().At(s, q) =
            total.a_den[s] > 0.0 ? total.a_num.At(s, q) / total.a_den[s]
                                 : model->a().At(s, q);
      }
      for (size_t o = 0; o < m; ++o) {
        model->mutable_b().At(s, o) =
            total.b_den[s] > 0.0 ? total.b_num.At(s, o) / total.b_den[s]
                                 : model->b().At(s, o);
      }
    }
    double pi_total = 0.0;
    for (double v : total.pi_acc) pi_total += v;
    if (pi_total > 0.0) {
      for (size_t s = 0; s < n; ++s)
        model->mutable_pi()[s] = total.pi_acc[s] / pi_total;
    }
    if (options.smoothing > 0.0) model->SmoothEmissions(options.smoothing);

    const double mean_ll =
        total.total_ll / static_cast<double>(total.used);
    stats.log_likelihood_curve.push_back(mean_ll);
    stats.iterations = iter + 1;
    if (!reference) stats.simd_level = estep.kernel_name();

    if (options.keep_going && !options.keep_going(iter, *model)) {
      stats.stopped_by_callback = true;
      break;
    }
    if (iter > 0 && mean_ll - prev_mean_ll < options.tolerance) {
      stats.converged = true;
      break;
    }
    prev_mean_ll = mean_ll;
  }
  return std::move(stats);
}

}  // namespace

util::Result<TrainStats> BaumWelchTrain(
    HmmModel* model, const std::vector<ObservationSeq>& sequences,
    const TrainOptions& options, util::ThreadPool* pool) {
  return Train(model, sequences, options, pool, /*reference=*/false);
}

util::Result<TrainStats> ReferenceBaumWelchTrain(
    HmmModel* model, const std::vector<ObservationSeq>& sequences,
    const TrainOptions& options, util::ThreadPool* pool) {
  return Train(model, sequences, options, pool, /*reference=*/true);
}

}  // namespace adprom::hmm
