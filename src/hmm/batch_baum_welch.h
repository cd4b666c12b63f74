#ifndef ADPROM_HMM_BATCH_BAUM_WELCH_H_
#define ADPROM_HMM_BATCH_BAUM_WELCH_H_

// Batched SIMD Baum-Welch E-step engine: W equal-length sequences advance
// together through column-major (state-major, window-minor) forward AND
// backward activation blocks with lane-per-window kernels, then a fused
// per-window gamma/xi sweep adds their expected counts in exactly the
// scalar reference's term order. Results are bit-identical to the dense
// reference in baum_welch.cc (ReferenceBaumWelchTrain) for any batch
// width, SIMD level, and thread count; BaumWelchTrain always routes
// through this engine.

#include <cstddef>
#include <span>
#include <vector>

#include "hmm/hmm_model.h"
#include "hmm/sparse.h"
#include "util/matrix.h"
#include "util/simd.h"

namespace adprom::hmm {

/// Expected-count accumulators for one shard of the training corpus.
/// (Shared by the dense reference E-step and the batched engine — both add
/// the same terms in the same order.)
struct EStepAccumulators {
  util::Matrix a_num;
  std::vector<double> a_den;
  util::Matrix b_num;
  std::vector<double> b_den;
  std::vector<double> pi_acc;
  double total_ll = 0.0;
  size_t used = 0;

  void Reset(size_t n, size_t m) {
    a_num.Reshape(n, n);
    a_den.assign(n, 0.0);
    b_num.Reshape(n, m);
    b_den.assign(n, 0.0);
    pi_acc.assign(n, 0.0);
    total_ll = 0.0;
    used = 0;
  }

  /// Element-wise merge. Called in fixed shard order, which keeps the
  /// floating-point summation order independent of the thread count.
  void MergeFrom(const EStepAccumulators& other) {
    const size_t n = a_den.size();
    const size_t m = b_num.cols();
    for (size_t s = 0; s < n; ++s) {
      double* a_row = a_num.RowData(s);
      const double* oa_row = other.a_num.RowData(s);
      for (size_t q = 0; q < n; ++q) a_row[q] += oa_row[q];
      double* b_row = b_num.RowData(s);
      const double* ob_row = other.b_num.RowData(s);
      for (size_t o = 0; o < m; ++o) b_row[o] += ob_row[o];
      a_den[s] += other.a_den[s];
      b_den[s] += other.b_den[s];
      pi_acc[s] += other.pi_acc[s];
    }
    total_ll += other.total_ll;
    used += other.used;
  }
};

/// Reusable buffers for one shard's batched E-step. Reserve() sizes
/// everything up front so AccumulateBlock allocates nothing in steady
/// state (property-tested with the operator-new hook, like
/// BatchWorkspace).
struct BatchTrainWorkspace {
  // Persistent activation history: t_len x num_states x width blocks,
  // state-major within a step, window-minor within a state.
  std::vector<double> alpha;
  std::vector<double> beta;
  std::vector<double> scale;   // t_len x width (post-floor totals)
  std::vector<double> loglik;  // width
  // Backward scratch: the b(q, o_{t+1}) * beta_{t+1}(q) block, n x width.
  std::vector<double> emit_block;
  std::vector<const double*> emit_rows;  // width emission-row pointers
  std::vector<const int*> seq_ptrs;      // width staged sequence pointers
  // Per-window sweep scratch: one lane de-strided into contiguous
  // t_len x num_states panels so the gamma/xi loops run cache-resident.
  std::vector<double> alpha_w;
  std::vector<double> beta_w;
  std::vector<double> scale_w;
  // The hoisted b(q, o_{t+1}) * beta_{t+1}(q) factors for every step of
  // the window at once (t_len x num_states), so the xi sweep can run
  // source-state-major with each A/a_num row pair cache-hot across t.
  std::vector<double> emit_panel;
  // Per-source-state compaction of the steps with nonzero alpha: their
  // alpha values and emit_panel row pointers, in ascending-t order.
  std::vector<double> xi_alpha;
  std::vector<const double*> xi_emit;

  void Reserve(size_t num_states, size_t width, size_t max_len);
};

/// The batched E-step engine: owns the dispatch decision (runtime SIMD
/// level, scalar pin) and the block width; stateless across calls apart
/// from that, so one instance is shared by all shards of a training run.
class BatchEStep {
 public:
  /// The width BaumWelchTrain runs the engine at.
  static constexpr size_t kDefaultWidth = 16;

  explicit BatchEStep(size_t width = kDefaultWidth, bool no_simd = false);

  size_t width() const { return width_; }
  util::SimdLevel simd_level() const { return level_; }
  const char* kernel_name() const;

  /// Sizes `ws` for blocks of up to width() sequences of length
  /// <= max_len over a num_states-state model.
  void Reserve(size_t num_states, size_t max_len,
               BatchTrainWorkspace* ws) const;

  /// Adds the expected counts of `seqs` (equal-length, seqs.size() <=
  /// width(), symbols already validated) to `acc`, bit-identically to
  /// running the dense reference over them in order. Forward/backward
  /// walk `sparse`'s CSR structure; the xi sweep uses the CSR rows when
  /// `csr_xi` is set and the dense rows of `model` otherwise
  /// (BaumWelchTrain decides by transition density; both are exact).
  void AccumulateBlock(const HmmModel& model, const SparseHmm& sparse,
                       bool csr_xi, std::span<const ObservationSeq> seqs,
                       BatchTrainWorkspace* ws, EStepAccumulators* acc) const;

 private:
  size_t width_;
  util::SimdLevel level_;
};

}  // namespace adprom::hmm

#endif  // ADPROM_HMM_BATCH_BAUM_WELCH_H_
