// Property tests for the batched SIMD Baum-Welch E-step engine: on the
// same corpus, BaumWelchTrain through BatchEStep must train models
// *bit-identical* to the dense scalar reference (ReferenceBaumWelchTrain)
// — not merely close — for every thread count, smoothing floor, xi
// kernel, and SIMD dispatch, and the engine's expected counts must not
// depend on its batch width. Bitwise equality is the contract that lets
// the Profile Constructor train through the batched engine without any
// behavioural change (and lets forced-scalar CI prove the fallback).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "hmm/baum_welch.h"
#include "hmm/batch_baum_welch.h"
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

/// A structurally sparse model, the shape ProfileConstructor produces from
/// a pCTM: ~70% of A exact zeros, B and π smoothed dense-positive.
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

/// A mixed-length corpus: mostly window-sized runs of one length (the
/// detection shape, where the batch kernels earn their keep), with
/// scattered odd lengths — including length-1 — so the run bucketing, the
/// scalar remainder lanes, and the t_len==1 edge all get exercised.
std::vector<ObservationSeq> MixedCorpus(size_t count, size_t m,
                                        util::Rng& rng) {
  std::vector<ObservationSeq> seqs;
  seqs.reserve(count);
  while (seqs.size() < count) {
    size_t len = 15;
    const double kind = rng.UniformDouble();
    if (kind < 0.15) {
      len = 1 + rng.UniformU64(14);  // odd-length stragglers
    } else if (kind < 0.3) {
      len = 15 + rng.UniformU64(10);
    }
    const size_t run = 1 + rng.UniformU64(12);
    for (size_t i = 0; i < run && seqs.size() < count; ++i) {
      ObservationSeq seq(len);
      for (int& v : seq) v = static_cast<int>(rng.UniformU64(m));
      seqs.push_back(std::move(seq));
    }
  }
  return seqs;
}

void ExpectModelsBitIdentical(const HmmModel& a, const HmmModel& b) {
  const size_t n = a.num_states();
  const size_t m = a.num_symbols();
  ASSERT_EQ(n, b.num_states());
  ASSERT_EQ(m, b.num_symbols());
  for (size_t s = 0; s < n; ++s) {
    for (size_t t = 0; t < n; ++t) {
      EXPECT_BIT_EQ(a.a().At(s, t), b.a().At(s, t));
    }
    for (size_t o = 0; o < m; ++o) {
      EXPECT_BIT_EQ(a.b().At(s, o), b.b().At(s, o));
    }
    EXPECT_BIT_EQ(a.pi()[s], b.pi()[s]);
  }
}

void ExpectAccumulatorsBitIdentical(const EStepAccumulators& a,
                                    const EStepAccumulators& b) {
  const size_t n = a.a_den.size();
  const size_t m = a.b_num.cols();
  ASSERT_EQ(n, b.a_den.size());
  ASSERT_EQ(m, b.b_num.cols());
  for (size_t s = 0; s < n; ++s) {
    for (size_t q = 0; q < n; ++q) {
      EXPECT_BIT_EQ(a.a_num.At(s, q), b.a_num.At(s, q));
    }
    for (size_t o = 0; o < m; ++o) {
      EXPECT_BIT_EQ(a.b_num.At(s, o), b.b_num.At(s, o));
    }
    EXPECT_BIT_EQ(a.a_den[s], b.a_den[s]);
    EXPECT_BIT_EQ(a.b_den[s], b.b_den[s]);
    EXPECT_BIT_EQ(a.pi_acc[s], b.pi_acc[s]);
  }
  EXPECT_BIT_EQ(a.total_ll, b.total_ll);
  EXPECT_EQ(a.used, b.used);
}

/// One E-step over the whole corpus through `estep`, with runs of
/// consecutive equal-length sequences capped at the engine width — the
/// way BaumWelchTrain feeds a shard.
EStepAccumulators RunEStep(const BatchEStep& estep, const HmmModel& model,
                           const std::vector<ObservationSeq>& sequences,
                           bool csr_xi) {
  const SparseHmm sparse(model);
  BatchTrainWorkspace ws;
  EStepAccumulators acc;
  acc.Reset(model.num_states(), model.num_symbols());
  for (size_t i = 0; i < sequences.size();) {
    size_t run = 1;
    while (i + run < sequences.size() && run < estep.width() &&
           sequences[i + run].size() == sequences[i].size()) {
      ++run;
    }
    estep.AccumulateBlock(model, sparse, csr_xi,
                          std::span<const ObservationSeq>(&sequences[i], run),
                          &ws, &acc);
    i += run;
  }
  return acc;
}

class BatchTrainTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchTrainTest, BitIdenticalAcrossWidthsThreadsAndSmoothing) {
  util::Rng rng(GetParam());
  const size_t n = 3 + rng.UniformU64(6);
  const size_t m = 3 + rng.UniformU64(4);
  const HmmModel seed_model = RandomSparseModel(n, m, rng);
  const std::vector<ObservationSeq> sequences = MixedCorpus(40, m, rng);

  // Widths: the engine's expected counts for one E-step must not depend
  // on the batch width or the kernel table; width 1 on the scalar kernels
  // is the anchor.
  const EStepAccumulators anchor =
      RunEStep(BatchEStep(1, /*no_simd=*/true), seed_model, sequences,
               /*csr_xi=*/false);
  for (const size_t width : {1u, 3u, 16u, 17u}) {
    for (const bool no_simd : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "width=" << width << " no_simd=" << no_simd);
      ExpectAccumulatorsBitIdentical(
          anchor, RunEStep(BatchEStep(width, no_simd), seed_model, sequences,
                           /*csr_xi=*/false));
    }
  }

  // Threads, SIMD dispatch and smoothing floor: whole training runs
  // against the dense reference.
  for (const double smoothing : {1e-9, 1e-3}) {
    TrainOptions reference_options;
    reference_options.max_iterations = 5;
    reference_options.tolerance = 0.0;
    reference_options.smoothing = smoothing;
    reference_options.num_threads = 1;
    HmmModel reference = seed_model;
    auto reference_stats =
        ReferenceBaumWelchTrain(&reference, sequences, reference_options);
    ASSERT_TRUE(reference_stats.ok());
    EXPECT_EQ(reference_stats->simd_level, "scalar");

    for (const int threads : {0, 1, 4}) {
      for (const bool no_simd : {false, true}) {
        TrainOptions options = reference_options;
        options.no_simd = no_simd;
        options.num_threads = threads;
        HmmModel model = seed_model;
        auto stats = BaumWelchTrain(&model, sequences, options);
        ASSERT_TRUE(stats.ok());
        SCOPED_TRACE(::testing::Message()
                     << "threads=" << threads << " no_simd=" << no_simd
                     << " smoothing=" << smoothing);
        ExpectModelsBitIdentical(reference, model);
        if (no_simd) {
          EXPECT_EQ(stats->simd_level, "scalar");
        }
        ASSERT_EQ(stats->log_likelihood_curve.size(),
                  reference_stats->log_likelihood_curve.size());
        for (size_t i = 0; i < stats->log_likelihood_curve.size(); ++i) {
          EXPECT_BIT_EQ(stats->log_likelihood_curve[i],
                        reference_stats->log_likelihood_curve[i]);
        }
      }
    }
  }
}

/// A model with `per_row` transitions out of each state, so its
/// transition density is about per_row / n.
HmmModel BandedModel(size_t n, size_t m, size_t per_row, util::Rng& rng) {
  util::Matrix a(n, n);
  util::Matrix b(n, m);
  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  for (size_t s = 0; s < n; ++s) {
    for (size_t k = 0; k < per_row; ++k) {
      a.At(s, (s + k) % n) = 0.05 + rng.UniformDouble();
    }
    for (size_t o = 0; o < m; ++o) b.At(s, o) = 0.1 + rng.UniformDouble();
  }
  a.NormalizeRows();
  b.NormalizeRows();
  HmmModel model(std::move(a), std::move(b), std::move(pi));
  model.SmoothEmissions(1e-6);
  EXPECT_TRUE(model.Validate().ok());
  return model;
}

TEST_P(BatchTrainTest, BothXiKernelsMatchTheReference) {
  util::Rng rng(GetParam() + 4000);
  const size_t m = 3 + rng.UniformU64(4);

  // The CSR and the dense xi rows give the same expected counts.
  const HmmModel random_model =
      RandomSparseModel(3 + rng.UniformU64(6), m, rng);
  const std::vector<ObservationSeq> corpus = MixedCorpus(24, m, rng);
  const BatchEStep estep;
  ExpectAccumulatorsBitIdentical(
      RunEStep(estep, random_model, corpus, /*csr_xi=*/true),
      RunEStep(estep, random_model, corpus, /*csr_xi=*/false));

  // BaumWelchTrain picks the xi rows by transition density: a 24-state
  // model with two transitions per row (density ~0.08) trains through the
  // CSR rows, one with twelve per row (~0.5) through the dense rows. Both
  // must match the reference.
  for (const size_t per_row : {2u, 12u}) {
    const HmmModel seed_model = BandedModel(24, m, per_row, rng);
    TrainOptions options;
    options.max_iterations = 4;
    options.tolerance = 0.0;
    options.num_threads = 1;
    HmmModel reference = seed_model;
    ASSERT_TRUE(ReferenceBaumWelchTrain(&reference, corpus, options).ok());
    HmmModel model = seed_model;
    ASSERT_TRUE(BaumWelchTrain(&model, corpus, options).ok());
    SCOPED_TRACE(::testing::Message()
                 << "density="
                 << SparseHmm(seed_model).transition_density());
    ExpectModelsBitIdentical(reference, model);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchTrainTest,
                         ::testing::Values(11, 12, 13, 14));

/// The stats plumbing the CLI reports: curve capacity reserved up front
/// (no reallocation mid-loop) and the executed dispatch recorded.
TEST(BatchTrainStatsTest, ReportsKernelAndReservesCurve) {
  util::Rng rng(77);
  const HmmModel seed_model = RandomSparseModel(6, 4, rng);
  const std::vector<ObservationSeq> sequences = MixedCorpus(12, 4, rng);

  TrainOptions options;
  options.max_iterations = 3;
  options.tolerance = 0.0;
  HmmModel model = seed_model;
  auto stats = BaumWelchTrain(&model, sequences, options);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->simd_level, BatchEStep().kernel_name());
  EXPECT_EQ(stats->log_likelihood_curve.size(), 3u);

  HmmModel dense_model = seed_model;
  auto dense_stats = ReferenceBaumWelchTrain(&dense_model, sequences, options);
  ASSERT_TRUE(dense_stats.ok());
  EXPECT_EQ(dense_stats->simd_level, "scalar");
  EXPECT_EQ(dense_stats->log_likelihood_curve.size(), 3u);
  ExpectModelsBitIdentical(dense_model, model);
}

}  // namespace
}  // namespace adprom::hmm
