#include "core/profile_constructor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <span>

#include "hmm/batch_forward.h"
#include "hmm/inference.h"
#include "hmm/sparse.h"
#include "ml/kmeans.h"
#include "ml/pca.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace adprom::core {

namespace {

double SecondsSince(const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// A row whose mass stays below this after normalization received no
/// static probability at all (NormalizeRows leaves all-zero rows at zero,
/// every other row at exactly 1); such rows fall back to the uniform
/// distribution. Sites in statically dead code (infeasible branches
/// pruned by the absint refiner) are the main producers of zero rows.
constexpr double kRowMassEpsilon = 1e-12;

/// Observable of a pCTM site under the profile's labeling mode.
std::string SiteObservable(const analysis::Site& site, bool use_dd_labels) {
  return use_dd_labels ? site.observable : site.callee;
}

/// Builds the pCTV matrix: row per site, columns = incoming transition
/// probabilities (ε + every site) followed by outgoing ones (ε' + every
/// site); dimension 2(n+1), as in the paper's CTV definition. When the
/// dimension exceeds `input_cap`, the (very sparse) vectors are
/// feature-hashed down to `input_cap` dimensions so the PCA eigensolve
/// stays tractable for >900-site programs.
util::Matrix BuildCtvMatrix(const analysis::Ctm& pctm, size_t input_cap) {
  const size_t n = pctm.num_sites();
  const size_t dims = 2 * (n + 1);
  const bool hash = input_cap > 0 && dims > input_cap;
  const size_t out_dims = hash ? input_cap : dims;
  auto fold = [&](size_t j) {
    return hash ? (j * 2654435761ULL) % out_dims : j;
  };
  util::Matrix ctv(n, out_dims);
  for (size_t i = 0; i < n; ++i) {
    ctv.At(i, fold(0)) += pctm.entry_to(i);
    for (size_t j = 0; j < n; ++j)
      ctv.At(i, fold(1 + j)) += pctm.between(j, i);
    ctv.At(i, fold(n + 1)) += pctm.to_exit(i);
    for (size_t j = 0; j < n; ++j)
      ctv.At(i, fold(n + 2 + j)) += pctm.between(i, j);
  }
  return ctv;
}

/// Scores `windows` through `scorer` into `out` (same size), one
/// ScoreBatch call per run of consecutive equal-length windows. Each score
/// is bit-identical to hmm::PerSymbolLogLikelihood on that window. The
/// CSDS early-stopping score and the threshold scan both go through here.
util::Status ScoreWindowRuns(
    const hmm::BatchScorer& scorer,
    std::span<const hmm::ObservationSeq* const> windows,
    hmm::BatchWorkspace* ws, std::span<double> out) {
  for (size_t begin = 0; begin < windows.size();) {
    size_t end = begin + 1;
    while (end < windows.size() &&
           windows[end]->size() == windows[begin]->size()) {
      ++end;
    }
    ws->spans.clear();
    for (size_t i = begin; i < end; ++i) ws->spans.emplace_back(*windows[i]);
    ADPROM_RETURN_IF_ERROR(scorer.ScoreBatch(ws->spans,
                                             /*triage_threshold=*/0.0, ws,
                                             out.subspan(begin, end - begin)));
    begin = end;
  }
  return util::Status::Ok();
}

}  // namespace

ProfileConstructor::ProfileConstructor(ProfileOptions options)
    : options_(std::move(options)) {}

util::Result<ApplicationProfile> ProfileConstructor::Construct(
    const AnalysisResult& analysis, const std::vector<runtime::Trace>& traces,
    ConstructionTimings* timings) const {
  if (traces.empty()) {
    return util::Status::InvalidArgument("no training traces");
  }
  ApplicationProfile profile;
  profile.options = options_;
  const analysis::Ctm& pctm = analysis.program_ctm;
  profile.num_sites = pctm.num_sites();
  if (profile.num_sites == 0) {
    return util::Status::FailedPrecondition(
        "program makes no library calls; nothing to profile");
  }

  // Context pairs: every statically feasible (caller, callee), plus any
  // pair observed during training (dynamic over static union, so training
  // can only widen what is legitimate).
  profile.context_pairs = analysis.ContextPairs();
  for (const runtime::Trace& trace : traces) {
    for (const runtime::CallEvent& event : trace) {
      profile.context_pairs.insert({event.caller, event.callee});
    }
  }

  // Alphabet: static observables first (deterministic order), then any
  // extra observables that only occur dynamically.
  for (size_t i = 0; i < profile.num_sites; ++i) {
    profile.alphabet.Intern(
        SiteObservable(pctm.site(i), options_.use_dd_labels));
    if (options_.use_dd_labels && pctm.site(i).labeled) {
      profile.labeled_sources[pctm.site(i).observable] =
          pctm.site(i).source_tables;
    }
  }
  for (const runtime::Trace& trace : traces) {
    for (const runtime::CallEvent& event : trace) {
      profile.alphabet.Intern(profile.ObservableOf(event));
    }
  }

  // --- Reduction: CTV -> PCA -> k-means (only past the threshold) -------
  auto t0 = std::chrono::steady_clock::now();
  util::Rng rng(options_.seed);
  const size_t n = profile.num_sites;
  std::vector<size_t> cluster_of(n);
  size_t num_states = n;
  if (n > options_.cluster_threshold) {
    const util::Matrix ctv = BuildCtvMatrix(pctm, options_.pca_input_cap);
    ml::PcaOptions pca_options;
    pca_options.target_variance = options_.pca_variance;
    pca_options.max_components = options_.pca_max_components;
    ADPROM_ASSIGN_OR_RETURN(ml::PcaModel pca, ml::FitPca(ctv, pca_options));
    const util::Matrix reduced = pca.ProjectAll(ctv);
    num_states = std::max<size_t>(
        2, static_cast<size_t>(
               std::ceil(options_.cluster_fraction * static_cast<double>(n))));
    ADPROM_ASSIGN_OR_RETURN(ml::KMeansResult clusters,
                            ml::KMeansCluster(reduced, num_states, rng));
    cluster_of = clusters.assignment;
  } else {
    for (size_t i = 0; i < n; ++i) cluster_of[i] = i;
  }
  profile.num_states = num_states;
  if (timings != nullptr) timings->reduction_seconds = SecondsSince(t0);

  // --- HMM initialization ------------------------------------------------
  t0 = std::chrono::steady_clock::now();
  const size_t m = profile.alphabet.size();
  if (options_.init == ProfileOptions::Init::kRandom) {
    profile.model = hmm::HmmModel::Random(num_states, m, rng);
  } else {
    util::Matrix a(num_states, num_states);
    util::Matrix b(num_states, m);
    std::vector<double> pi(num_states, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const size_t si = cluster_of[i];
      pi[si] += pctm.entry_to(i);
      // Emission mass: weight each member site by its total inflow (how
      // often the program reaches it), so a cluster's emission vector is
      // the usage-weighted average of its members' observables.
      const double weight = pctm.Inflow(i) + 1e-9;
      const int obs = profile.alphabet.Lookup(
          SiteObservable(pctm.site(i), options_.use_dd_labels));
      b.At(si, static_cast<size_t>(obs)) += weight;
      for (size_t j = 0; j < n; ++j) {
        const double p = pctm.between(i, j);
        if (p > 0.0) a.At(si, cluster_of[j]) += p;
      }
      // Last-call mass loops back to the initial distribution: traces are
      // windows cut from anywhere, and one run follows another.
      const double exit_mass = pctm.to_exit(i);
      if (exit_mass > 0.0) {
        for (size_t j = 0; j < n; ++j) {
          const double entry = pctm.entry_to(j);
          if (entry > 0.0) a.At(si, cluster_of[j]) += exit_mass * entry;
        }
      }
    }
    a.NormalizeRows();
    b.NormalizeRows();
    // Rows with no static mass fall back to uniform.
    for (size_t s = 0; s < num_states; ++s) {
      if (a.RowSum(s) < kRowMassEpsilon) {
        for (size_t t = 0; t < num_states; ++t)
          a.At(s, t) = 1.0 / static_cast<double>(num_states);
      }
      if (b.RowSum(s) < kRowMassEpsilon) {
        for (size_t o = 0; o < m; ++o)
          b.At(s, o) = 1.0 / static_cast<double>(m);
      }
    }
    double pi_total = 0.0;
    for (double v : pi) pi_total += v;
    for (size_t s = 0; s < num_states; ++s) {
      // Windows start mid-execution, so blend the static entry
      // distribution with uniform mass.
      const double entry_part = pi_total > 0.0 ? pi[s] / pi_total : 0.0;
      pi[s] = 0.5 * entry_part + 0.5 / static_cast<double>(num_states);
    }
    profile.model = hmm::HmmModel(std::move(a), std::move(b), std::move(pi));
  }
  // Structural smoothing: floor B and π but keep A's exact zeros — the
  // statically-infeasible transitions stay impossible, and their zero
  // pattern is what the CSR kernels (and the sparse profile format)
  // exploit. Every window still scores finitely: A's rows are stochastic
  // (uniform fallback above) and B is dense-positive after the floor, so
  // an observation a state "cannot" emit just costs ~log ε.
  profile.model.SmoothEmissions(options_.smoothing);
  ADPROM_RETURN_IF_ERROR(profile.model.Validate());
  if (timings != nullptr) timings->init_seconds = SecondsSince(t0);

  // --- Windows and CSDS split -------------------------------------------
  // The converge sub-dataset is held out at *trace* granularity (the
  // paper: "we kept about 1/5 of the normal data aside"): consecutive
  // windows of one trace overlap in 14 of 15 calls, so a window-level
  // split would leak the held-out data into training.
  std::vector<hmm::ObservationSeq> train_windows;
  std::vector<hmm::ObservationSeq> csds_windows;
  const size_t csds_every =
      options_.csds_fraction > 0.0
          ? std::max<size_t>(2, static_cast<size_t>(
                                    std::llround(1.0 / options_.csds_fraction)))
          : 0;
  size_t trace_index = 0;
  for (const runtime::Trace& trace : traces) {
    const bool hold_out =
        csds_every > 0 && traces.size() >= csds_every &&
        (trace_index++ % csds_every) == csds_every - 1;
    for (const auto& window :
         SlidingWindows(trace, options_.window_length)) {
      hmm::ObservationSeq seq = profile.Encode(window);
      if (hold_out) {
        csds_windows.push_back(std::move(seq));
      } else {
        train_windows.push_back(std::move(seq));
      }
    }
  }
  if (train_windows.empty()) {
    return util::Status::InvalidArgument(
        "training traces produced no windows");
  }
  // Keep the full window sets for the final threshold computation (the
  // threshold must sit below *every* normal window so training traffic is
  // never flagged), but bound the per-iteration work with deterministic
  // uniform subsamples.
  auto subsampled = [](const std::vector<hmm::ObservationSeq>& windows,
                       size_t cap) {
    std::vector<hmm::ObservationSeq> out;
    if (cap == 0 || windows.size() <= cap) {
      out = windows;
      return out;
    }
    const size_t stride = (windows.size() + cap - 1) / cap;
    out.reserve(cap);
    for (size_t i = 0; i < windows.size(); i += stride) {
      out.push_back(windows[i]);
    }
    return out;
  };
  std::vector<hmm::ObservationSeq> bw_windows =
      subsampled(train_windows, options_.max_training_windows);
  // The CSDS is scored after every Baum-Welch iteration; cap it in
  // proportion so early stopping stays cheap on huge trace corpora.
  const std::vector<hmm::ObservationSeq> csds_scored = subsampled(
      csds_windows, options_.max_training_windows == 0
                        ? 0
                        : std::max<size_t>(32,
                                           options_.max_training_windows / 4));

  // --- Baum-Welch with CSDS early stopping -------------------------------
  // One worker pool serves training (sharded E-step) and the final
  // threshold scan. The CSDS score stays serial — it is a float sum whose
  // order must not depend on the thread count — but reuses one batch
  // workspace so the per-iteration scoring allocates nothing.
  t0 = std::chrono::steady_clock::now();
  const size_t num_threads =
      util::ResolveThreadCount(options_.train.num_threads);
  std::unique_ptr<util::ThreadPool> pool;
  if (num_threads > 1) {
    pool = std::make_unique<util::ThreadPool>(num_threads);
  }
  hmm::BatchOptions batch_options;
  batch_options.no_simd = options_.no_simd;
  std::vector<const hmm::ObservationSeq*> csds_ptrs;
  csds_ptrs.reserve(csds_scored.size());
  for (const hmm::ObservationSeq& seq : csds_scored) csds_ptrs.push_back(&seq);
  std::vector<double> csds_scores(csds_ptrs.size());
  hmm::BatchWorkspace csds_ws;
  // The first scoring error; it stops training and ends construction.
  util::Status scoring_status;
  // Batched per-window scores, then a serial sum in window order, so the
  // CSDS mean (and the early-stopping decision) does not depend on how
  // the windows were batched.
  auto csds_score = [&](const hmm::HmmModel& model) -> util::Result<double> {
    // One CSR build per Baum-Welch iteration, amortized over the whole
    // held-out set.
    const hmm::SparseHmm sparse_model(model);
    const hmm::BatchScorer scorer(&sparse_model, batch_options);
    ADPROM_RETURN_IF_ERROR(
        ScoreWindowRuns(scorer, csds_ptrs, &csds_ws, csds_scores));
    double total = 0.0;
    for (const double score : csds_scores) total += score;
    return total / static_cast<double>(csds_scores.size());
  };

  hmm::TrainOptions train_options = options_.train;
  train_options.no_simd = options_.no_simd;
  double best_csds = -std::numeric_limits<double>::infinity();
  int bad_rounds = 0;
  if (!csds_windows.empty()) {
    // Stop only when the held-out score *degrades* persistently: EM keeps
    // improving the training likelihood, and a flat CSDS score means the
    // model is still sharpening without overfitting. (A
    // stop-on-no-improvement rule quits after a handful of iterations with
    // a blurred model that scores repetition attacks as plausible.)
    constexpr double kDegradeTolerance = 0.02;
    train_options.keep_going = [&](int, const hmm::HmmModel& model) {
      auto scored = csds_score(model);
      if (!scored.ok()) {
        scoring_status = scored.status();
        return false;
      }
      const double score = *scored;
      if (score > best_csds) best_csds = score;
      if (score < best_csds - kDegradeTolerance) {
        ++bad_rounds;
      } else {
        bad_rounds = 0;
      }
      return bad_rounds < options_.csds_patience;
    };
  }
  ADPROM_ASSIGN_OR_RETURN(
      profile.train_stats,
      hmm::BaumWelchTrain(&profile.model, bw_windows, train_options,
                          pool.get()));
  ADPROM_RETURN_IF_ERROR(scoring_status);
  if (timings != nullptr) timings->training_seconds = SecondsSince(t0);

  // --- Threshold below every normal window --------------------------------
  // Both the held-out CSDS and the full training set enter the scored
  // pool: the guarantee is that nothing observed during training is ever
  // flagged. The scan fans window blocks across the workers — min is
  // order-independent, so the result does not depend on the thread count.
  std::vector<const hmm::ObservationSeq*> scored;
  scored.reserve(train_windows.size() + csds_windows.size());
  for (const auto* window_set : {&train_windows, &csds_windows}) {
    for (const hmm::ObservationSeq& seq : *window_set) scored.push_back(&seq);
  }
  const size_t num_blocks =
      pool == nullptr
          ? 1
          : std::min(scored.size(), 4 * pool->num_workers());
  std::vector<double> block_min(
      num_blocks, std::numeric_limits<double>::max());
  // One CSR view of the trained model, shared read-only by every block.
  const hmm::SparseHmm sparse_model(profile.model);
  const hmm::BatchScorer threshold_scorer(&sparse_model, batch_options);
  std::vector<util::Status> block_status(num_blocks);
  util::ParallelFor(pool.get(), num_blocks, [&](size_t blk) {
    const size_t begin = blk * scored.size() / num_blocks;
    const size_t end = (blk + 1) * scored.size() / num_blocks;
    hmm::BatchWorkspace ws;
    threshold_scorer.Reserve(&ws);
    std::vector<double> scores(end - begin);
    block_status[blk] = ScoreWindowRuns(
        threshold_scorer, std::span(scored).subspan(begin, end - begin), &ws,
        scores);
    for (const double score : scores) {
      block_min[blk] = std::min(block_min[blk], score);
    }
  });
  // A failed block's scores are incomplete: its error ends construction
  // before any minimum becomes the threshold.
  for (const util::Status& status : block_status) {
    ADPROM_RETURN_IF_ERROR(status);
  }
  double min_score = std::numeric_limits<double>::max();
  for (double v : block_min) min_score = std::min(min_score, v);
  profile.threshold = min_score - options_.threshold_margin;
  return std::move(profile);
}

}  // namespace adprom::core
