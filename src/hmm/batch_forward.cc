#include "hmm/batch_forward.h"

#include <algorithm>
#include <cmath>

#include "hmm/batch_kernels.h"

namespace adprom::hmm {

namespace internal {

const BatchKernels& ScalarKernels() {
  static const BatchKernels kernels = {
      &ForwardBlock<util::ScalarArch>, &TriageBlock<util::ScalarArch>,
      util::ScalarArch::kLanes, util::ScalarArch::kILanes, "scalar"};
  return kernels;
}

#if defined(__aarch64__)
const BatchKernels* NeonKernels() {
  static const BatchKernels kernels = {
      &ForwardBlock<util::NeonArch>, &TriageBlock<util::NeonArch>,
      util::NeonArch::kLanes, util::NeonArch::kILanes, "neon"};
  return &kernels;
}
#else
const BatchKernels* NeonKernels() { return nullptr; }
#endif

#if !defined(ADPROM_BATCH_AVX2)
// The AVX2 table lives in batch_forward_avx2.cc (compiled with -mavx2);
// builds without that translation unit dispatch to scalar instead.
const BatchKernels* Avx2Kernels() { return nullptr; }
#endif

namespace {

const BatchKernels& KernelsFor(util::SimdLevel level) {
  switch (level) {
    case util::SimdLevel::kAvx2:
      if (const BatchKernels* kernels = Avx2Kernels()) return *kernels;
      return ScalarKernels();
    case util::SimdLevel::kNeon:
      if (const BatchKernels* kernels = NeonKernels()) return *kernels;
      return ScalarKernels();
    case util::SimdLevel::kScalar:
      return ScalarKernels();
  }
  return ScalarKernels();
}

}  // namespace

}  // namespace internal

namespace {

/// Quantizes one probability for the triage tables: floor keeps the
/// stored log at or below the true log (the lower-bound direction), and
/// the extra LSB absorbs the at-most-1-ulp error of std::log itself.
///
/// A log below int16 range (EM can leave stored probabilities under
/// ~1.2e-14) must NOT clamp up to INT16_MIN — a raised log would let the
/// max-plus bound overshoot the exact score and falsely certify windows.
/// Such entries become kSentinel, which the kernel expands to -inf.
int16_t QuantizeLog(double p) {
  if (!(p > 0.0)) return TriageTables::kSentinel;
  const double scaled = std::floor(std::log(p) * TriageTables::kScale) - 1.0;
  if (scaled <= static_cast<double>(INT16_MIN)) {
    return TriageTables::kSentinel;
  }
  return static_cast<int16_t>(std::min(scaled, 0.0));
}

}  // namespace

TriageTables::TriageTables(const SparseHmm& model) {
  const size_t n = model.num_states();
  const size_t m = model.num_symbols();
  qpi_.resize(n);
  for (size_t s = 0; s < n; ++s) qpi_[s] = QuantizeLog(model.pi()[s]);
  const CsrMatrix& at = model.a_transpose();
  qa_transpose_.resize(at.nnz());
  for (size_t k = 0; k < at.nnz(); ++k) {
    qa_transpose_[k] = QuantizeLog(at.val[k]);
  }
  qb_transpose_.resize(m * n);
  for (size_t o = 0; o < m; ++o) {
    const double* row = model.b_transpose().RowData(o);
    for (size_t s = 0; s < n; ++s) {
      qb_transpose_[o * n + s] = QuantizeLog(row[s]);
    }
  }
  // The kernel expands pi/A sentinels on the scalar (broadcast) side, but
  // emission logs are gathered per lane with no room for a per-lane
  // expansion. Smoothed profiles keep every b(s,o) >= ~1e-6 (log >= -14),
  // so a sentinel here means an unsmoothed model: degrade gracefully by
  // disabling the triage tier for it rather than risking the bound.
  for (const int16_t q : qb_transpose_) {
    if (q == kSentinel) {
      qpi_.clear();
      qa_transpose_.clear();
      qb_transpose_.clear();
      return;
    }
  }
}

void BatchWorkspace::Reserve(size_t num_states, size_t width) {
  ReserveKernelBuffers(num_states, width);
  spans.reserve(width);
  scores.reserve(width);
}

void BatchWorkspace::ReserveKernelBuffers(size_t num_states, size_t width) {
  // Grow-only: a workspace shared by models of different sizes (one per
  // scoring thread, serving every tenant) never shrinks and re-fills.
  auto grow = [](auto& buffer, size_t size) {
    if (buffer.size() < size) buffer.resize(size);
  };
  grow(act_a, num_states * width);
  grow(act_b, num_states * width);
  grow(totals, width);
  grow(loglik, width);
  grow(emit_rows, width);
  grow(tri_a, num_states * width);
  grow(tri_b, num_states * width);
  grow(tri_best, width);
  grow(tri_rows, width);
  pending.reserve(width);
  lane_index.reserve(width);
}

BatchScorer::BatchScorer(const SparseHmm* model, BatchOptions options)
    : model_(model), options_(options) {
  options_.width = std::max<size_t>(1, options_.width);
  level_ = options_.no_simd ? util::SimdLevel::kScalar
                            : util::DetectSimdLevel();
  if (options_.triage) triage_ = TriageTables(*model);
}

void BatchScorer::Reserve(BatchWorkspace* ws) const {
  if (model_ == nullptr) return;
  ws->Reserve(model_->num_states(), options_.width);
}

util::Status BatchScorer::ScoreBatch(std::span<const SymbolSpan> seqs,
                                     double triage_threshold,
                                     BatchWorkspace* ws,
                                     std::span<double> out) const {
  if (model_ == nullptr) {
    return util::Status::FailedPrecondition("BatchScorer has no model");
  }
  if (out.size() != seqs.size()) {
    return util::Status::InvalidArgument("ScoreBatch output size mismatch");
  }
  if (seqs.empty()) return util::Status::Ok();
  const size_t t_len = seqs[0].size();
  for (const SymbolSpan& seq : seqs) {
    if (seq.size() != t_len) {
      return util::Status::InvalidArgument(
          "ScoreBatch sequences must share one length");
    }
    ADPROM_RETURN_IF_ERROR(ValidateSequence(model_->num_symbols(), seq));
  }
  // Not Reserve(ws): `seqs` and `out` may live in ws->spans / ws->scores,
  // and growing those here would leave them dangling.
  ws->ReserveKernelBuffers(model_->num_states(), options_.width);

  const internal::BatchKernels& kernels = internal::KernelsFor(level_);
  const bool triage =
      options_.triage && !triage_.empty() && t_len <= TriageTables::kMaxLen;
  const double per_symbol_scale =
      static_cast<double>(TriageTables::kScale) * static_cast<double>(t_len);

  // Runs the exact tier over `width` sequence pointers and writes their
  // per-symbol log-likelihoods through `emit` — SIMD over the largest
  // lane-aligned prefix, scalar kernel over the remainder lanes. Both
  // kernels are bit-identical per lane, so the split is invisible.
  auto exact_block = [&](const int* const* block_seqs, size_t width,
                         auto&& emit) {
    internal::ForwardBlockArgs args;
    args.model = model_;
    args.t_len = t_len;
    args.totals = ws->totals.data();
    args.loglik = ws->loglik.data();
    args.emit_rows = ws->emit_rows.data();
    size_t done = 0;
    const size_t aligned = width - width % kernels.lanes;
    for (const size_t part : {aligned, width - aligned}) {
      if (part == 0) continue;
      args.seqs = block_seqs + done;
      args.width = part;
      args.cur = ws->act_a.data();
      args.next = ws->act_b.data();
      (done == 0 && part == aligned ? kernels.forward
                                    : internal::ScalarKernels().forward)(
          args);
      for (size_t w = 0; w < part; ++w) {
        emit(done + w,
             ws->loglik[w] / static_cast<double>(t_len));
      }
      done += part;
    }
  };

  ws->stats.windows += seqs.size();
  for (size_t base = 0; base < seqs.size(); base += options_.width) {
    const size_t chunk = std::min(options_.width, seqs.size() - base);
    // Stage the chunk's sequence pointers (spans stay owned by the
    // caller; the kernels read raw int pointers).
    ws->pending.clear();
    for (size_t i = 0; i < chunk; ++i) {
      ws->pending.push_back(seqs[base + i].data());
    }
    const int* const* chunk_seqs = ws->pending.data();

    if (!triage) {
      exact_block(chunk_seqs, chunk,
                  [&](size_t w, double score) { out[base + w] = score; });
      continue;
    }

    // Triage tier: certified-benign lanes keep their bound; the rest are
    // compacted into a narrower exact block.
    {
      internal::TriageBlockArgs args;
      args.model = model_;
      args.tables = &triage_;
      args.t_len = t_len;
      args.best = ws->tri_best.data();
      args.emit_rows = ws->tri_rows.data();
      size_t done = 0;
      const size_t aligned = chunk - chunk % kernels.ilanes;
      for (const size_t part : {aligned, chunk - aligned}) {
        if (part == 0) continue;
        args.seqs = chunk_seqs + done;
        args.width = part;
        args.cur = ws->tri_a.data();
        args.next = ws->tri_b.data();
        (done == 0 && part == aligned ? kernels.triage
                                      : internal::ScalarKernels().triage)(
            args);
        for (size_t w = 0; w < part; ++w) {
          // A lane at or below kNegInf hit the kernel's saturation floor
          // (a sentinel factor or an underflowing path); its value is no
          // longer a proven path sum, so it must never certify.
          ws->totals[done + w] =
              ws->tri_best[w] > TriageTables::kNegInf
                  ? static_cast<double>(ws->tri_best[w]) / per_symbol_scale
                  : -HUGE_VAL;
        }
        done += part;
      }
    }
    // Partition: compact the uncertified sequence pointers to the front of
    // `pending` (reads stay ahead of writes, so in-place is safe) and
    // remember each one's original chunk lane.
    size_t uncertified = 0;
    ws->lane_index.clear();
    for (size_t w = 0; w < chunk; ++w) {
      const double bound = ws->totals[w];
      if (bound >= triage_threshold + TriageTables::kSlack) {
        out[base + w] = bound;
        ++ws->stats.triage_certified;
      } else {
        ws->pending[uncertified] = chunk_seqs[w];
        ws->lane_index.push_back(w);
        ++uncertified;
      }
    }
    if (uncertified == 0) continue;
    exact_block(ws->pending.data(), uncertified, [&](size_t w,
                                                     double score) {
      out[base + ws->lane_index[w]] = score;
    });
  }
  return util::Status::Ok();
}

}  // namespace adprom::hmm
