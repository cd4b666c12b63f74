#ifndef ADPROM_HMM_BATCH_FORWARD_H_
#define ADPROM_HMM_BATCH_FORWARD_H_

#include <cstdint>
#include <span>
#include <vector>

#include "hmm/inference.h"
#include "hmm/sparse.h"
#include "util/simd.h"
#include "util/status.h"

namespace adprom::hmm {

/// Tuning knobs for the batched scoring engine (runtime-only, never
/// serialized).
struct BatchOptions {
  /// W — how many windows advance together per block. Each forward step
  /// then sweeps the transition CSR once for all W windows instead of once
  /// per window; W * num_states doubles must stay cache-resident, so very
  /// large widths lose again. 16 doubles = one four-group AVX2 tile, and
  /// keeps two profile-sized activation blocks inside a 48K L1d.
  size_t width = 16;
  /// Force the scalar kernels even where the CPU offers AVX2/NEON
  /// (`--no-simd`). The SIMD and scalar kernels are bit-identical; this
  /// exists for ablation and for exercising the fallback in CI.
  bool no_simd = false;
  /// Enable the quantized triage tier (`--triage`): windows whose cheap
  /// int16 lower bound already clears the anomaly threshold skip the exact
  /// forward pass. Never changes a verdict — see TriageTables.
  bool triage = false;
};

/// Prepared quantized tables for the triage tier, in the spirit of
/// pre-quantized int8/int16 GEMM weights: log-probabilities pre-scaled by
/// 2^kScaleBits and stored as int16, accumulated in int32.
///
/// The triage score is a max-plus (Viterbi) pass over these tables. It is
/// a *certified lower bound* on the exact per-symbol log-likelihood:
///   log P(O|λ) >= max-path log-prob >= quantized max-path / 2^kScaleBits
/// because every quantized log is rounded *down* (floor, minus one LSB to
/// absorb libm rounding) and the best single path never exceeds the sum
/// over all paths. A window whose bound clears the threshold is therefore
/// provably not anomalous and can skip the exact tier; every other window
/// is re-scored exactly, so the exact tier remains the verdict authority.
///
/// Rounding *down* is the load-bearing direction, so a log too negative
/// for int16 (EM can drive stored transition probabilities arbitrarily
/// close to zero) must NOT clamp up to INT16_MIN — that would let the
/// bound overshoot the exact score. Such entries store the kSentinel
/// value instead, which the kernel expands to kNegInf (-inf). Paths
/// through a sentinel saturate at kNegInf rather than accumulate further
/// down, so a saturated result is no longer a faithful path sum — which
/// is why ScoreBatch refuses to certify any window whose best path ends
/// at or below kNegInf (the bound it would report is not proven).
class TriageTables {
 public:
  /// log-probabilities are stored as floor(log(p) * 2^kScaleBits) - 1.
  static constexpr int kScaleBits = 10;
  static constexpr int32_t kScale = 1 << kScaleBits;
  /// Table value meaning "log too negative for int16" (includes log 0).
  /// The kernel expands it to kNegInf before accumulating.
  static constexpr int16_t kSentinel = INT16_MIN;
  /// Quantized stand-in for -inf: the max identity, the sentinel
  /// expansion, and the per-step saturation floor. Far enough from
  /// INT32_MIN that one add of two kNegInf-floored operands cannot wrap.
  static constexpr int32_t kNegInf = INT32_MIN / 2;
  /// Triage certifies only when bound >= threshold + kSlack; the slack
  /// absorbs the final double divisions' rounding.
  static constexpr double kSlack = 1e-9;
  /// Sequences longer than this skip triage (keeps the int32 accumulators
  /// provably clear of overflow). Detection windows are tens of symbols.
  static constexpr size_t kMaxLen = 16384;

  TriageTables() = default;
  /// Builds the quantized tables. If any *emission* log underflows int16
  /// range (only possible for unsmoothed models — smoothing floors b at
  /// ~1e-6), the tables come out empty() and the triage tier stays
  /// disabled for that model: emission logs are gathered per lane, so
  /// unlike pi/A they have no sentinel-expansion path in the kernel.
  explicit TriageTables(const SparseHmm& model);

  bool empty() const { return qpi_.empty(); }
  size_t num_states() const { return qpi_.size(); }
  /// Prepared-table footprint in bytes (what `adprom info` reports).
  size_t SizeBytes() const {
    return (qpi_.size() + qa_transpose_.size() + qb_transpose_.size()) *
           sizeof(int16_t);
  }

  /// Quantized log π, N entries.
  const std::vector<int16_t>& qpi() const { return qpi_; }
  /// Quantized log A values aligned with SparseHmm::a_transpose()'s nnz
  /// order (predecessor-major per destination state).
  const std::vector<int16_t>& qa_transpose() const { return qa_transpose_; }
  /// Quantized log Bᵀ, M x N row-major (row = symbol, col = state).
  const std::vector<int16_t>& qb_transpose() const { return qb_transpose_; }

 private:
  std::vector<int16_t> qpi_;
  std::vector<int16_t> qa_transpose_;
  std::vector<int16_t> qb_transpose_;
};

/// Reusable buffers for the batched engine — the BatchScorer analogue of
/// ForwardWorkspace. Reserve() pre-sizes everything for the scorer's batch
/// width, after which ScoreBatch performs zero heap allocations (asserted
/// by a counting operator-new test). Not thread-safe — one per worker.
struct BatchWorkspace {
  // Exact tier: two N x W column-major activation blocks (state-major,
  // window-minor) ping-ponged between steps, plus per-lane scratch.
  std::vector<double> act_a;
  std::vector<double> act_b;
  std::vector<double> totals;        // W per-step scale factors
  std::vector<double> loglik;        // W running log-likelihoods
  std::vector<const double*> emit_rows;  // W per-step Bᵀ row pointers

  // Triage tier: the same block layout in int32.
  std::vector<int32_t> tri_a;
  std::vector<int32_t> tri_b;
  std::vector<int32_t> tri_best;
  std::vector<const int16_t*> tri_rows;
  std::vector<const int*> pending;   // sequences the triage could not clear
  std::vector<size_t> lane_index;    // pending[i]'s original chunk lane

  // Caller-side staging (DetectionEngine / StreamingMonitor batch paths).
  std::vector<SymbolSpan> spans;
  std::vector<double> scores;

  struct Stats {
    size_t windows = 0;
    /// Windows whose triage bound cleared the threshold (skipped exact).
    size_t triage_certified = 0;
  };
  Stats stats;

  /// Pre-sizes every buffer for `num_states` states at batch width
  /// `width`, so even the first ScoreBatch call allocates nothing.
  void Reserve(size_t num_states, size_t width);
  /// Reserve minus the caller-side staging (spans, scores), which the
  /// caller may be scoring out of; what ScoreBatch itself ensures.
  void ReserveKernelBuffers(size_t num_states, size_t width);
};

/// The batched, vectorized detection scoring engine. Packs up to
/// `options.width` equal-length windows into a column-major activation
/// block and advances all of them one time-step per pass, sweeping the
/// transition CSR once per step instead of once per window. The inner
/// kernels are lane-per-window SIMD (AVX2/NEON behind util::simd.h,
/// runtime-dispatched via cpuid, scalar fallback): each lane holds a
/// distinct window, so per-window accumulation order is unchanged and the
/// scores are bit-identical to scalar ForwardInto for every width, lane
/// count, and ISA.
class BatchScorer {
 public:
  BatchScorer() = default;
  /// `model` must outlive the scorer. Builds the quantized triage tables
  /// when options.triage is set.
  BatchScorer(const SparseHmm* model, BatchOptions options);

  const BatchOptions& options() const { return options_; }
  /// The kernel flavour dispatch selected (after --no-simd and the
  /// ADPROM_FORCE_SCALAR override).
  util::SimdLevel simd_level() const { return level_; }
  const TriageTables& triage_tables() const { return triage_; }

  /// Pre-sizes `ws` for this scorer.
  void Reserve(BatchWorkspace* ws) const;

  /// Scores every sequence in `seqs` — all non-empty, of one common
  /// length, with symbols inside the model's alphabet — and writes the
  /// per-symbol log-likelihoods to `out` (same size as `seqs`).
  ///
  /// Exact tier results are bit-identical to PerSymbolLogLikelihood /
  /// scalar ForwardInto, window by window. With triage enabled, windows
  /// whose certified lower bound reaches `triage_threshold` +
  /// TriageTables::kSlack report that bound instead of the exact score;
  /// because bound <= exact, any consumer comparing against
  /// `triage_threshold` reaches the same verdict either way.
  util::Status ScoreBatch(std::span<const SymbolSpan> seqs,
                          double triage_threshold, BatchWorkspace* ws,
                          std::span<double> out) const;

 private:
  const SparseHmm* model_ = nullptr;
  BatchOptions options_;
  util::SimdLevel level_ = util::SimdLevel::kScalar;
  TriageTables triage_;
};

}  // namespace adprom::hmm

#endif  // ADPROM_HMM_BATCH_FORWARD_H_
