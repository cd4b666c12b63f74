// Differential tests for the batched scoring engine: for any batch width,
// lane count, kernel flavour (SIMD vs forced-scalar) and window mix, the
// exact tier's scores must be *bit-identical* to the dense scalar
// ForwardInto reference — not merely close. The triage tier must be a
// sound lower bound: it may only certify windows whose exact score
// provably clears the threshold, and must leave every other window to the
// exact tier.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "hmm/batch_forward.h"
#include "hmm/inference.h"
#include "hmm/sparse.h"
#include "util/rng.h"
#include "util/simd.h"

namespace adprom::hmm {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

#define EXPECT_BIT_EQ(a, b) EXPECT_EQ(Bits(a), Bits(b))

/// Same structurally-sparse shape the profile constructor produces:
/// ~70% exact zeros in A, smoothed dense-positive B and π.
HmmModel RandomSparseModel(size_t n, size_t m, util::Rng& rng) {
  util::Matrix a(n, n);
  util::Matrix b(n, m);
  std::vector<double> pi(n);
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = 0; t < n; ++t) {
      if (rng.UniformDouble() < 0.3) a.At(s, t) = 0.05 + rng.UniformDouble();
    }
    a.At(s, rng.UniformU64(n)) = 0.05 + rng.UniformDouble();
    for (size_t o = 0; o < m; ++o) b.At(s, o) = 0.1 + rng.UniformDouble();
    pi[s] = 0.1 + rng.UniformDouble();
  }
  a.NormalizeRows();
  b.NormalizeRows();
  double total = 0.0;
  for (double v : pi) total += v;
  for (double& v : pi) v /= total;
  HmmModel model(std::move(a), std::move(b), std::move(pi));
  model.SmoothEmissions(1e-6);
  EXPECT_TRUE(model.Validate().ok());
  return model;
}

std::vector<ObservationSeq> RandomSeqs(size_t count, size_t len, size_t m,
                                       util::Rng& rng) {
  std::vector<ObservationSeq> seqs(count);
  for (ObservationSeq& seq : seqs) {
    seq.resize(len);
    for (size_t t = 0; t < len; ++t) {
      seq[t] = static_cast<int>(rng.UniformU64(m));
    }
  }
  return seqs;
}

std::vector<SymbolSpan> Spans(const std::vector<ObservationSeq>& seqs) {
  return {seqs.begin(), seqs.end()};
}

/// Dense scalar reference scores, window by window.
std::vector<double> ScalarScores(const HmmModel& model,
                                 const std::vector<ObservationSeq>& seqs) {
  ForwardWorkspace ws;
  std::vector<double> out;
  out.reserve(seqs.size());
  for (const ObservationSeq& seq : seqs) {
    auto score = PerSymbolLogLikelihood(model, seq, &ws);
    EXPECT_TRUE(score.ok());
    out.push_back(score.ok() ? *score : -1e9);
  }
  return out;
}

class BatchForwardTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchForwardTest, ExactTierIsBitIdenticalToScalarAtEveryWidth) {
  util::Rng rng(GetParam());
  const size_t n = 2 + rng.UniformU64(20);
  const size_t m = 2 + rng.UniformU64(9);
  const HmmModel model = RandomSparseModel(n, m, rng);
  const SparseHmm sparse(model);
  const size_t len = 1 + rng.UniformU64(24);
  // 11 windows: exercises every chunking shape against the widths below
  // (full chunks, partial tail chunks, sub-lane remainders).
  const auto seqs = RandomSeqs(11, len, m, rng);
  const auto spans = Spans(seqs);
  const std::vector<double> reference = ScalarScores(model, seqs);

  // Widths 1, 3 and 5 leave sub-lane remainders on every SIMD arch;
  // 32 (W) and 33 (W+1) cover the default width and one past it.
  for (const size_t width : {size_t{1}, size_t{3}, size_t{5}, size_t{8},
                             size_t{32}, size_t{33}}) {
    for (const bool no_simd : {false, true}) {
      BatchOptions options;
      options.width = width;
      options.no_simd = no_simd;
      const BatchScorer scorer(&sparse, options);
      BatchWorkspace ws;
      scorer.Reserve(&ws);
      std::vector<double> got(seqs.size());
      ASSERT_TRUE(
          scorer.ScoreBatch(spans, /*triage_threshold=*/0.0, &ws, got).ok());
      for (size_t i = 0; i < seqs.size(); ++i) {
        EXPECT_BIT_EQ(got[i], reference[i])
            << "window " << i << " width " << width << " no_simd "
            << no_simd << " level "
            << util::SimdLevelName(scorer.simd_level());
      }
    }
  }
}

TEST_P(BatchForwardTest, TriageBoundNeverExceedsExactScore) {
  util::Rng rng(GetParam() + 4000);
  const size_t n = 2 + rng.UniformU64(16);
  const size_t m = 2 + rng.UniformU64(8);
  const HmmModel model = RandomSparseModel(n, m, rng);
  const SparseHmm sparse(model);
  const TriageTables tables(sparse);
  ASSERT_EQ(tables.num_states(), n);
  EXPECT_GT(tables.SizeBytes(), 0u);

  const size_t len = 1 + rng.UniformU64(20);
  const auto seqs = RandomSeqs(16, len, m, rng);
  const auto spans = Spans(seqs);
  const std::vector<double> exact = ScalarScores(model, seqs);

  // Run with a threshold low enough that every window certifies — the
  // max-path bound sits below the sum-over-paths exact score by up to
  // ~log(n) per symbol, but for this model family it never drops below
  // about -96 per symbol (every quantized factor is >= -32 log-units), so
  // -1e5 is clear by orders of magnitude. got[] then holds the raw
  // bounds, which must never exceed the exact scores.
  constexpr double kCertifyAll = -1e5;
  BatchOptions options;
  options.triage = true;
  const BatchScorer scorer(&sparse, options);
  ASSERT_FALSE(scorer.triage_tables().empty());
  BatchWorkspace ws;
  std::vector<double> got(seqs.size());
  ASSERT_TRUE(scorer.ScoreBatch(spans, kCertifyAll, &ws, got).ok());
  EXPECT_EQ(ws.stats.triage_certified, seqs.size())
      << "a threshold below any reachable bound should certify everything";
  for (size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_LE(got[i], exact[i]) << "window " << i;
    // Certified or not, the verdict side of the threshold is unchanged.
    EXPECT_EQ(got[i] >= kCertifyAll, exact[i] >= kCertifyAll);
  }

  // With an unreachable threshold nothing certifies and every score is the
  // exact one, bit for bit.
  BatchWorkspace ws2;
  std::vector<double> got2(seqs.size());
  ASSERT_TRUE(scorer.ScoreBatch(spans, 1e9, &ws2, got2).ok());
  EXPECT_EQ(ws2.stats.triage_certified, 0u);
  for (size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_BIT_EQ(got2[i], exact[i]) << "window " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchForwardTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

TEST(BatchForwardValidationTest, RejectsMixedLengthsAndBadSymbols) {
  util::Rng rng(11);
  const HmmModel model = RandomSparseModel(4, 3, rng);
  const SparseHmm sparse(model);
  const BatchScorer scorer(&sparse, BatchOptions{});
  BatchWorkspace ws;

  ObservationSeq a{0, 1, 2};
  ObservationSeq b{0, 1};
  std::vector<SymbolSpan> mixed{a, b};
  std::vector<double> out(2);
  EXPECT_FALSE(scorer.ScoreBatch(mixed, 0.0, &ws, out).ok());

  ObservationSeq bad{0, 3, 1};  // symbol 3 out of range for m = 3
  std::vector<SymbolSpan> invalid{bad};
  std::vector<double> out1(1);
  EXPECT_FALSE(scorer.ScoreBatch(invalid, 0.0, &ws, out1).ok());

  std::vector<SymbolSpan> empty;
  EXPECT_TRUE(scorer.ScoreBatch(empty, 0.0, &ws, {}).ok());

  EXPECT_FALSE(BatchScorer().ScoreBatch(invalid, 0.0, &ws, out1).ok());
}

TEST(BatchForwardDispatchTest, NoSimdForcesScalarKernels) {
  util::Rng rng(12);
  const HmmModel model = RandomSparseModel(4, 3, rng);
  const SparseHmm sparse(model);
  BatchOptions options;
  options.no_simd = true;
  const BatchScorer scorer(&sparse, options);
  EXPECT_EQ(scorer.simd_level(), util::SimdLevel::kScalar);
}

TEST(TriageTablesTest, QuantizedLogsAreLowerBounds) {
  util::Rng rng(13);
  const HmmModel model = RandomSparseModel(6, 4, rng);
  const SparseHmm sparse(model);
  const TriageTables tables(sparse);
  const double scale = TriageTables::kScale;
  for (size_t s = 0; s < sparse.num_states(); ++s) {
    EXPECT_LE(tables.qpi()[s] / scale, std::log(sparse.pi()[s]));
  }
  const CsrMatrix& at = sparse.a_transpose();
  for (size_t k = 0; k < at.nnz(); ++k) {
    EXPECT_LE(tables.qa_transpose()[k] / scale, std::log(at.val[k]));
  }
  for (size_t o = 0; o < sparse.num_symbols(); ++o) {
    for (size_t s = 0; s < sparse.num_states(); ++s) {
      EXPECT_LE(
          tables.qb_transpose()[o * sparse.num_states() + s] / scale,
          std::log(sparse.b_transpose().At(o, s)));
    }
  }
}

TEST(TriageTablesTest, UnderflowingTransitionLogsNeverInflateTheBound) {
  // EM can leave stored transition probabilities far below int16 log range
  // (p < ~1.2e-14, as the Supermarket profile does). Rounding such a log
  // UP to INT16_MIN (-32 log-units) once made the quantized best path beat
  // every honest path — the bound overshot the exact score and could
  // falsely certify anomalous windows. The quantizer must treat those
  // entries as -inf so the bound only ever drops.
  //
  // Bottleneck construction: state 0 emits symbol 0, state 1 emits symbol
  // 1 (rest smoothed to ~1e-6), and the only route from 0 to 1 is a 1e-30
  // transition. For the window {0,1,1,1,1,1} the honest alternatives are
  // "pay log(1e-30) ~= -69 once" or "stay in state 0 and pay five smoothed
  // emissions ~= -69"; the old clamp priced the bottleneck at -32 and
  // certified a bound ~2x above the exact score.
  util::Matrix a(2, 2);
  a.At(0, 0) = 1.0 - 1e-30;
  a.At(0, 1) = 1e-30;
  a.At(1, 1) = 1.0;
  util::Matrix b(2, 2);
  b.At(0, 0) = 1.0;
  b.At(1, 1) = 1.0;
  HmmModel model(std::move(a), std::move(b), {1.0, 0.0});
  model.SmoothEmissions(1e-6);
  ASSERT_TRUE(model.Validate().ok());
  const SparseHmm sparse(model);

  BatchOptions options;
  options.triage = true;
  const BatchScorer scorer(&sparse, options);
  ASSERT_FALSE(scorer.triage_tables().empty());

  const std::vector<ObservationSeq> seqs = {
      {0, 1, 1, 1, 1, 1},  // squeezed through the bottleneck
      {0, 0, 0, 0, 0, 0},  // never touches it
  };
  const auto spans = Spans(seqs);
  const std::vector<double> exact = ScalarScores(model, seqs);

  BatchWorkspace ws;
  std::vector<double> got(seqs.size());
  ASSERT_TRUE(scorer.ScoreBatch(spans, -1e5, &ws, got).ok());
  EXPECT_EQ(ws.stats.triage_certified, seqs.size());
  for (size_t i = 0; i < seqs.size(); ++i) {
    EXPECT_LE(got[i], exact[i]) << "window " << i;
  }
}

}  // namespace
}  // namespace adprom::hmm
