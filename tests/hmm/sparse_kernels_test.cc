// Differential tests for the kernels that walk the CSR compilation
// (SparseHmm): on the same model, the batched scoring engine's forward
// pass, the batched E-step's forward/backward blocks, sparse Viterbi and
// batched Baum-Welch must be *bit-identical* to the dense scalar
// references — not merely close. Bitwise equality is the contract that
// lets the detection engine, the profile constructor and the streaming
// service run the batch engines without any behavioural change.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "hmm/batch_baum_welch.h"
#include "hmm/batch_forward.h"
#include "hmm/baum_welch.h"
#include "hmm/inference.h"
#include "hmm/sparse.h"
#include "util/rng.h"

namespace adprom::hmm {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

#define EXPECT_BIT_EQ(a, b) EXPECT_EQ(Bits(a), Bits(b))

/// A structurally sparse model: ~70% of A's entries are exact zeros (at
/// least one nonzero per row), B and π smoothed dense-positive — the shape
/// ProfileConstructor produces from a pCTM.
HmmModel RandomSparseModel(size_t n, size_t m, util::Rng& rng) {
  util::Matrix a(n, n);
  util::Matrix b(n, m);
  std::vector<double> pi(n);
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = 0; t < n; ++t) {
      if (rng.UniformDouble() < 0.3) a.At(s, t) = 0.05 + rng.UniformDouble();
    }
    // Guarantee a stochastic row.
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

ObservationSeq RandomSeq(size_t len, size_t m, util::Rng& rng) {
  ObservationSeq seq(len);
  for (size_t t = 0; t < len; ++t) {
    seq[t] = static_cast<int>(rng.UniformU64(m));
  }
  return seq;
}

/// One window's score through the batched scoring engine.
double BatchScore(const SparseHmm& sparse, const ObservationSeq& seq) {
  const BatchScorer scorer(&sparse, BatchOptions{});
  BatchWorkspace ws;
  const SymbolSpan span(seq);
  double score = 0.0;
  EXPECT_TRUE(scorer
                  .ScoreBatch(std::span(&span, 1), /*triage_threshold=*/0.0,
                              &ws, std::span(&score, 1))
                  .ok());
  return score;
}

TEST(CsrMatrixTest, FromDenseRecordsExactlyTheNonzeros) {
  util::Matrix dense(3, 4);
  dense.At(0, 1) = 0.5;
  dense.At(0, 3) = 0.25;
  dense.At(2, 0) = 1.0;
  const CsrMatrix csr = CsrMatrix::FromDense(dense);
  EXPECT_EQ(csr.rows, 3u);
  EXPECT_EQ(csr.cols, 4u);
  ASSERT_EQ(csr.nnz(), 3u);
  EXPECT_EQ(csr.row_ptr, (std::vector<size_t>{0, 2, 2, 3}));
  EXPECT_EQ(csr.col, (std::vector<size_t>{1, 3, 0}));
  EXPECT_EQ(csr.val, (std::vector<double>{0.5, 0.25, 1.0}));
  EXPECT_DOUBLE_EQ(csr.Density(), 3.0 / 12.0);
}

TEST(CsrMatrixTest, EmptyMatrixHasDensityOne) {
  EXPECT_EQ(CsrMatrix().Density(), 1.0);
}

TEST(SmoothEmissionsTest, LeavesTransitionsBitwiseUntouched) {
  util::Rng rng(7);
  util::Matrix a(3, 3);
  a.At(0, 1) = 1.0;
  a.At(1, 0) = 0.5;
  a.At(1, 2) = 0.5;
  a.At(2, 2) = 1.0;
  util::Matrix b(3, 2);
  b.At(0, 0) = 1.0;
  b.At(1, 1) = 1.0;
  b.At(2, 0) = 0.5;
  b.At(2, 1) = 0.5;
  HmmModel model(std::move(a), std::move(b), {0.25, 0.25, 0.5});
  const util::Matrix a_before = model.a();
  model.SmoothEmissions(1e-6);
  for (size_t s = 0; s < 3; ++s) {
    for (size_t t = 0; t < 3; ++t) {
      EXPECT_BIT_EQ(model.a().At(s, t), a_before.At(s, t));
    }
    for (size_t o = 0; o < 2; ++o) EXPECT_GT(model.b().At(s, o), 0.0);
  }
  EXPECT_TRUE(model.Validate().ok());
}

class SparseKernelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SparseKernelTest, ForwardIsBitIdentical) {
  util::Rng rng(GetParam());
  const size_t n = 2 + rng.UniformU64(14);
  const size_t m = 2 + rng.UniformU64(9);
  const HmmModel model = RandomSparseModel(n, m, rng);
  const SparseHmm sparse(model);
  EXPECT_EQ(sparse.num_states(), n);
  EXPECT_EQ(sparse.num_symbols(), m);

  // One window through the batched scoring engine against the dense
  // scalar forward pass.
  for (int trial = 0; trial < 8; ++trial) {
    const ObservationSeq seq = RandomSeq(1 + rng.UniformU64(30), m, rng);
    ForwardWorkspace dense_ws;
    auto dense_score = PerSymbolLogLikelihood(model, seq, &dense_ws);
    ASSERT_TRUE(dense_score.ok());
    EXPECT_BIT_EQ(BatchScore(sparse, seq), *dense_score);
  }
}

TEST_P(SparseKernelTest, BackwardIsBitIdentical) {
  util::Rng rng(GetParam() + 500);
  const size_t n = 2 + rng.UniformU64(10);
  const size_t m = 2 + rng.UniformU64(6);
  const HmmModel model = RandomSparseModel(n, m, rng);
  const SparseHmm sparse(model);

  // The batched E-step's forward and backward blocks, read back from its
  // workspace, against the dense ForwardInto/BackwardInto. Four windows
  // fill whole SIMD blocks on every arch (1, 2 and 4 lanes), so the
  // blocks hold one lane per window: cell (t, s) of window w sits at
  // (t * n + s) * 4 + w.
  constexpr size_t kWindows = 4;
  const BatchEStep estep;
  for (int trial = 0; trial < 8; ++trial) {
    const size_t len = 2 + rng.UniformU64(20);
    std::vector<ObservationSeq> seqs;
    for (size_t w = 0; w < kWindows; ++w) {
      seqs.push_back(RandomSeq(len, m, rng));
    }
    BatchTrainWorkspace batch_ws;
    EStepAccumulators acc;
    acc.Reset(n, m);
    estep.AccumulateBlock(model, sparse, /*csr_xi=*/false, seqs, &batch_ws,
                          &acc);
    for (size_t w = 0; w < kWindows; ++w) {
      ForwardWorkspace fw_ws;
      auto loglik = ForwardInto(model, seqs[w], &fw_ws);
      ASSERT_TRUE(loglik.ok());
      EXPECT_BIT_EQ(batch_ws.loglik[w], *loglik);
      BackwardWorkspace bw_ws;
      ASSERT_TRUE(BackwardInto(model, seqs[w], fw_ws.scale, &bw_ws).ok());
      for (size_t t = 0; t < len; ++t) {
        EXPECT_BIT_EQ(batch_ws.scale[t * kWindows + w], fw_ws.scale[t]);
        for (size_t s = 0; s < n; ++s) {
          const size_t cell = (t * n + s) * kWindows + w;
          EXPECT_BIT_EQ(batch_ws.alpha[cell], fw_ws.alpha.At(t, s));
          EXPECT_BIT_EQ(batch_ws.beta[cell], bw_ws.beta.At(t, s));
        }
      }
    }
  }
}

TEST_P(SparseKernelTest, ViterbiPathsAreIdentical) {
  util::Rng rng(GetParam() + 1000);
  const size_t n = 2 + rng.UniformU64(10);
  const size_t m = 2 + rng.UniformU64(6);
  const HmmModel model = RandomSparseModel(n, m, rng);
  const SparseHmm sparse(model);

  for (int trial = 0; trial < 8; ++trial) {
    const ObservationSeq seq = RandomSeq(1 + rng.UniformU64(25), m, rng);
    auto dense_path = Viterbi(model, seq);
    auto sparse_path = Viterbi(sparse, seq);
    ASSERT_TRUE(dense_path.ok());
    ASSERT_TRUE(sparse_path.ok());
    EXPECT_EQ(*dense_path, *sparse_path);
  }
}

TEST_P(SparseKernelTest, BaumWelchTrainsBitIdenticalModels) {
  util::Rng rng(GetParam() + 2000);
  const size_t n = 3 + rng.UniformU64(5);
  const size_t m = 3 + rng.UniformU64(4);
  const HmmModel seed_model = RandomSparseModel(n, m, rng);
  std::vector<ObservationSeq> sequences;
  for (int i = 0; i < 12; ++i) {
    sequences.push_back(RandomSeq(5 + rng.UniformU64(12), m, rng));
  }

  HmmModel reference_model = seed_model;
  HmmModel batch_model = seed_model;
  TrainOptions options;
  options.max_iterations = 6;
  options.num_threads = 1;
  ASSERT_TRUE(
      ReferenceBaumWelchTrain(&reference_model, sequences, options).ok());
  options.num_threads = 4;  // engine AND thread count must not matter
  ASSERT_TRUE(BaumWelchTrain(&batch_model, sequences, options).ok());

  for (size_t s = 0; s < n; ++s) {
    for (size_t t = 0; t < n; ++t) {
      EXPECT_BIT_EQ(reference_model.a().At(s, t), batch_model.a().At(s, t));
    }
    for (size_t o = 0; o < m; ++o) {
      EXPECT_BIT_EQ(reference_model.b().At(s, o), batch_model.b().At(s, o));
    }
    EXPECT_BIT_EQ(reference_model.pi()[s], batch_model.pi()[s]);
  }
  // Structural smoothing preserves A's zero support through EM.
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = 0; t < n; ++t) {
      if (seed_model.a().At(s, t) == 0.0) {
        EXPECT_EQ(batch_model.a().At(s, t), 0.0);
      }
    }
  }
}

TEST_P(SparseKernelTest, FullyDenseModelDegradesGracefully) {
  util::Rng rng(GetParam() + 3000);
  HmmModel model = HmmModel::Random(4, 3, rng);
  model.Smooth(1e-6);  // density 1
  const SparseHmm sparse(model);
  EXPECT_EQ(sparse.transition_density(), 1.0);
  const ObservationSeq seq = RandomSeq(12, 3, rng);
  auto dense_score = PerSymbolLogLikelihood(model, seq);
  ASSERT_TRUE(dense_score.ok());
  EXPECT_BIT_EQ(BatchScore(sparse, seq), *dense_score);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SparseKernelTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// The Viterbi fallback corner: exact-zero emissions (legal — Viterbi does
// not require smoothed B) drive the delta spread past 1e18, so a skipped
// zero transition could win or tie the dense argmax. The sparse kernel
// must detect that and rescan the column in dense order.
TEST(SparseViterbiFallbackTest, ZeroEmissionsMatchDenseExactly) {
  // Cyclic permutation A (maximally sparse) and hard zero emissions.
  util::Matrix a(3, 3);
  a.At(0, 1) = 1.0;
  a.At(1, 2) = 1.0;
  a.At(2, 0) = 1.0;
  util::Matrix b(3, 2);
  b.At(0, 0) = 1.0;  // state 0 can only emit symbol 0
  b.At(1, 1) = 1.0;  // state 1 can only emit symbol 1
  b.At(2, 0) = 0.5;
  b.At(2, 1) = 0.5;
  const HmmModel model(std::move(a), std::move(b),
                       {1.0 / 3, 1.0 / 3, 1.0 / 3});
  const SparseHmm sparse(model);

  util::Rng rng(99);
  for (int trial = 0; trial < 64; ++trial) {
    ObservationSeq seq;
    const size_t len = 2 + rng.UniformU64(12);
    for (size_t t = 0; t < len; ++t) {
      seq.push_back(static_cast<int>(rng.UniformU64(2)));
    }
    auto dense_path = Viterbi(model, seq);
    auto sparse_path = Viterbi(sparse, seq);
    ASSERT_TRUE(dense_path.ok());
    ASSERT_TRUE(sparse_path.ok());
    EXPECT_EQ(*dense_path, *sparse_path) << "trial " << trial;
  }
}

TEST(SparseViterbiFallbackTest, AllZeroColumnMatchesDense) {
  // No transition ever enters state 0 — its CSC row is empty, so every
  // step takes the fallback scan for that column.
  util::Matrix a(3, 3);
  a.At(0, 1) = 1.0;
  a.At(1, 2) = 1.0;
  a.At(2, 1) = 0.5;
  a.At(2, 2) = 0.5;
  util::Matrix b(3, 2);
  b.At(0, 0) = 0.5;
  b.At(0, 1) = 0.5;
  b.At(1, 0) = 1.0;
  b.At(2, 1) = 1.0;
  const HmmModel model(std::move(a), std::move(b), {0.5, 0.25, 0.25});
  const SparseHmm sparse(model);

  util::Rng rng(123);
  for (int trial = 0; trial < 32; ++trial) {
    ObservationSeq seq;
    const size_t len = 1 + rng.UniformU64(10);
    for (size_t t = 0; t < len; ++t) {
      seq.push_back(static_cast<int>(rng.UniformU64(2)));
    }
    auto dense_path = Viterbi(model, seq);
    auto sparse_path = Viterbi(sparse, seq);
    ASSERT_TRUE(dense_path.ok());
    ASSERT_TRUE(sparse_path.ok());
    EXPECT_EQ(*dense_path, *sparse_path) << "trial " << trial;
  }
}

}  // namespace
}  // namespace adprom::hmm
