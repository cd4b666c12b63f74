#ifndef ADPROM_HMM_SPARSE_H_
#define ADPROM_HMM_SPARSE_H_

#include <cstddef>
#include <vector>

#include "hmm/hmm_model.h"
#include "hmm/inference.h"
#include "util/matrix.h"
#include "util/status.h"

namespace adprom::hmm {

/// Compressed-sparse-row view of a matrix: only the exact nonzeros are
/// stored, in row-major order with ascending column indices inside each
/// row — the same index order the dense kernels visit, which is what makes
/// the kernels that walk it bit-identical to their dense counterparts.
struct CsrMatrix {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<size_t> row_ptr;  // rows + 1 offsets into col/val
  std::vector<size_t> col;      // ascending within each row
  std::vector<double> val;      // val[k] = dense(row, col[k]) != 0.0

  static CsrMatrix FromDense(const util::Matrix& dense);

  size_t nnz() const { return val.size(); }
  /// nnz / (rows * cols); 1.0 for an empty matrix so density-gated code
  /// treats it as "nothing to skip".
  double Density() const;
};

/// A read-only sparse compilation of an HmmModel: the model both batch
/// engines read — the scoring engine (BatchScorer, batch_forward.h) and
/// the training E-step (BatchEStep, batch_baum_welch.h). The transition
/// matrix A is stored twice: row-compressed for the E-step's backward pass
/// and xi sweep, and column-compressed (CSR of Aᵀ) for both engines'
/// forward gather, the triage tables and the Viterbi column argmax. B is
/// kept dense but *transposed* (M x N) so the per-step emission factor
/// b(s, o_t) is a contiguous row. π is copied.
///
/// The struct owns plain copies of the parameters (no back-pointer), so a
/// SparseHmm stays valid after the source model is mutated or destroyed;
/// Baum-Welch rebuilds one per iteration, the DetectionEngine builds one
/// per engine. Profile-constructed models keep the pCTM's exact transition
/// zeros (HmmModel::SmoothEmissions smooths only B and π), which is where
/// the nnz win comes from; fully-smoothed models degrade gracefully to
/// density 1 with identical results.
class SparseHmm {
 public:
  SparseHmm() = default;
  explicit SparseHmm(const HmmModel& model);

  size_t num_states() const { return pi_.size(); }
  size_t num_symbols() const { return b_transpose_.rows(); }

  const CsrMatrix& a() const { return a_; }
  const CsrMatrix& a_transpose() const { return a_transpose_; }
  const util::Matrix& b_transpose() const { return b_transpose_; }
  const std::vector<double>& pi() const { return pi_; }

  double transition_density() const { return a_.Density(); }

 private:
  CsrMatrix a_;
  CsrMatrix a_transpose_;
  util::Matrix b_transpose_;  // M x N
  std::vector<double> pi_;
};

/// Sparse Viterbi; bit-identical path (including argmax tie-breaking) to
/// Viterbi(model, ...). Columns where a skipped zero transition could win
/// or tie the argmax — possible because safe_log(0) is the large-but-
/// finite -1e18 — fall back to an exact dense-order scan of that column.
util::Result<std::vector<size_t>> Viterbi(const SparseHmm& model,
                                          SymbolSpan seq);

}  // namespace adprom::hmm

#endif  // ADPROM_HMM_SPARSE_H_
