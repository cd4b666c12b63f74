#ifndef ADPROM_HMM_INFERENCE_H_
#define ADPROM_HMM_INFERENCE_H_

#include <span>
#include <vector>

#include "hmm/hmm_model.h"
#include "util/status.h"

namespace adprom::hmm {

/// A read-only view of an observation sequence. ObservationSeq converts
/// implicitly, and the Detection Engine passes window-sized slices of a
/// once-encoded trace buffer so overlapping windows are never re-encoded.
using SymbolSpan = std::span<const int>;

/// Floor on the per-step forward scale factor, shared by the dense
/// reference and the batch kernels (they must floor identically to stay
/// bit-identical).
inline constexpr double kScaleFloor = 1e-300;

/// Validates an observation sequence against an alphabet size: empty
/// sequences and out-of-range symbols fail. Shared by the dense reference,
/// sparse Viterbi and the batch engines.
util::Status ValidateSequence(size_t num_symbols, SymbolSpan seq);

/// Scaled forward-pass variables: alpha_hat (T x N, each row normalized)
/// and the per-step scaling factors c_t with log P(O|λ) = -Σ log c_t⁻¹,
/// kept so the backward pass and Baum-Welch can reuse them.
struct ForwardVariables {
  util::Matrix alpha;            // T x N, scaled
  std::vector<double> scale;     // T entries, each >= some tiny floor
  double log_likelihood = 0.0;   // log P(O | λ)
};

/// Reusable buffers for the forward pass. Feed the same workspace to many
/// calls (one per scored window) and the alpha/scale storage is recycled:
/// zero heap allocations in steady state once the buffers have grown to
/// the working window length. Not thread-safe — use one per worker.
struct ForwardWorkspace {
  util::Matrix alpha;         // grown to T x N on demand
  std::vector<double> scale;  // grown to T on demand
};

/// Reusable buffers for the backward pass (Baum-Welch E-step).
struct BackwardWorkspace {
  util::Matrix beta;               // grown to T x N on demand
  std::vector<double> emit_next;   // N scratch entries
};

/// Runs the numerically-scaled forward algorithm (Rabiner's method). Fails
/// on an empty sequence or an out-of-range symbol. Sequences the model
/// assigns (near-)zero probability get a floored scale and a very negative
/// log-likelihood instead of NaN.
util::Result<ForwardVariables> Forward(const HmmModel& model, SymbolSpan seq);

/// Allocation-free variant: runs the same forward pass into `workspace`
/// and returns log P(O | λ). The alpha/scale results stay readable in the
/// workspace until the next call.
util::Result<double> ForwardInto(const HmmModel& model, SymbolSpan seq,
                                 ForwardWorkspace* workspace);

/// The paper's *evaluation problem*: log P(O | λ).
util::Result<double> LogLikelihood(const HmmModel& model, SymbolSpan seq);

/// Length-normalized score used by the Detection Engine so windows of
/// different lengths are comparable: log P(O|λ) / |O|.
util::Result<double> PerSymbolLogLikelihood(const HmmModel& model,
                                            SymbolSpan seq);

/// Workspace variant of PerSymbolLogLikelihood for the hot scoring loop.
util::Result<double> PerSymbolLogLikelihood(const HmmModel& model,
                                            SymbolSpan seq,
                                            ForwardWorkspace* workspace);

/// Scaled backward pass (beta, scaled with the forward's factors).
util::Result<util::Matrix> Backward(const HmmModel& model, SymbolSpan seq,
                                    const std::vector<double>& scale);

/// Allocation-free variant of Backward: fills workspace->beta.
util::Status BackwardInto(const HmmModel& model, SymbolSpan seq,
                          const std::vector<double>& scale,
                          BackwardWorkspace* workspace);

/// The paper's *decoding problem*: most likely hidden-state sequence
/// (Viterbi, in log space).
util::Result<std::vector<size_t>> Viterbi(const HmmModel& model,
                                          SymbolSpan seq);

}  // namespace adprom::hmm

#endif  // ADPROM_HMM_INFERENCE_H_
