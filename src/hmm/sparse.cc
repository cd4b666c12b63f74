#include "hmm/sparse.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace adprom::hmm {

CsrMatrix CsrMatrix::FromDense(const util::Matrix& dense) {
  CsrMatrix out;
  out.rows = dense.rows();
  out.cols = dense.cols();
  out.row_ptr.assign(out.rows + 1, 0);
  size_t nnz = 0;
  for (size_t r = 0; r < out.rows; ++r) {
    const double* row = dense.RowData(r);
    for (size_t c = 0; c < out.cols; ++c) nnz += row[c] != 0.0;
  }
  out.col.reserve(nnz);
  out.val.reserve(nnz);
  for (size_t r = 0; r < out.rows; ++r) {
    const double* row = dense.RowData(r);
    for (size_t c = 0; c < out.cols; ++c) {
      if (row[c] != 0.0) {
        out.col.push_back(c);
        out.val.push_back(row[c]);
      }
    }
    out.row_ptr[r + 1] = out.col.size();
  }
  return out;
}

double CsrMatrix::Density() const {
  const size_t cells = rows * cols;
  if (cells == 0) return 1.0;
  return static_cast<double>(nnz()) / static_cast<double>(cells);
}

SparseHmm::SparseHmm(const HmmModel& model)
    : a_(CsrMatrix::FromDense(model.a())),
      a_transpose_(CsrMatrix::FromDense(model.a().Transpose())),
      b_transpose_(model.b().Transpose()),
      pi_(model.pi()) {}

util::Result<std::vector<size_t>> Viterbi(const SparseHmm& model,
                                          SymbolSpan seq) {
  ADPROM_RETURN_IF_ERROR(ValidateSequence(model.num_symbols(), seq));
  const size_t n = model.num_states();
  const size_t t_len = seq.size();
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  constexpr double kLogZero = -1e18;  // dense safe_log(0)

  auto safe_log = [](double v) { return v > 0.0 ? std::log(v) : kLogZero; };

  util::Matrix delta(t_len, n, kNegInf);
  std::vector<size_t> psi(t_len * n, 0);
  {
    const double* b0 = model.b_transpose().RowData(seq[0]);
    for (size_t s = 0; s < n; ++s) {
      delta.At(0, s) = safe_log(model.pi()[s]) + safe_log(b0[s]);
    }
  }
  // Column-wise argmax over Aᵀ's rows. The dense loop also considers the
  // zero cells, each worth delta[p] + kLogZero — usually hopeless, but δ
  // spreads past 1e18 once emissions hit exact zeros, so whenever the best
  // such candidate could win *or tie* (ties matter: the dense argmax keeps
  // the smallest p), the column is rescanned in exact dense order. The
  // bound below is safe because rounding is monotone: every zero
  // candidate's dense value is <= fl(row_max + kLogZero).
  const CsrMatrix& at = model.a_transpose();
  for (size_t t = 1; t < t_len; ++t) {
    const double* prev = delta.RowData(t - 1);
    double row_max = kNegInf;
    for (size_t p = 0; p < n; ++p) row_max = std::max(row_max, prev[p]);
    const double zero_bound = row_max + kLogZero;
    const double* b_col = model.b_transpose().RowData(seq[t]);
    for (size_t s = 0; s < n; ++s) {
      double best = kNegInf;
      size_t best_prev = 0;
      const size_t begin = at.row_ptr[s];
      const size_t end = at.row_ptr[s + 1];
      for (size_t k = begin; k < end; ++k) {
        const double v = prev[at.col[k]] + std::log(at.val[k]);
        if (v > best) {
          best = v;
          best_prev = at.col[k];
        }
      }
      if (!(best > zero_bound)) {
        // Exact fallback: walk every predecessor in dense order, reading
        // stored values where present and safe_log(0) elsewhere.
        best = kNegInf;
        best_prev = 0;
        size_t k = begin;
        for (size_t p = 0; p < n; ++p) {
          double lg = kLogZero;
          if (k < end && at.col[k] == p) {
            lg = std::log(at.val[k]);
            ++k;
          }
          const double v = prev[p] + lg;
          if (v > best) {
            best = v;
            best_prev = p;
          }
        }
      }
      delta.At(t, s) = best + safe_log(b_col[s]);
      psi[t * n + s] = best_prev;
    }
  }

  std::vector<size_t> path(t_len, 0);
  double best = kNegInf;
  for (size_t s = 0; s < n; ++s) {
    if (delta.At(t_len - 1, s) > best) {
      best = delta.At(t_len - 1, s);
      path[t_len - 1] = s;
    }
  }
  for (size_t t = t_len - 1; t-- > 0;)
    path[t] = psi[(t + 1) * n + path[t + 1]];
  return std::move(path);
}

}  // namespace adprom::hmm
