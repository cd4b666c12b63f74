#ifndef ADPROM_CORE_PROFILE_H_
#define ADPROM_CORE_PROFILE_H_

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hmm/baum_welch.h"
#include "hmm/hmm_model.h"
#include "runtime/call_event.h"
#include "util/status.h"

namespace adprom::core {

/// Interned observation symbols. Id 0 is always "<unk>", the catch-all for
/// symbols never seen during analysis/training (their tiny smoothed
/// emission probability is what makes novel calls score anomalously).
class Alphabet {
 public:
  Alphabet();

  /// Returns the id of `symbol`, interning it if new.
  int Intern(const std::string& symbol);

  /// Returns the id of `symbol`, or the <unk> id when absent.
  int Lookup(std::string_view symbol) const;

  bool Contains(std::string_view symbol) const;
  int unk_id() const { return 0; }
  size_t size() const { return symbols_.size(); }
  const std::string& symbol(int id) const {
    return symbols_[static_cast<size_t>(id)];
  }
  const std::vector<std::string>& symbols() const { return symbols_; }

 private:
  std::vector<std::string> symbols_;
  /// Transparent, so Lookup(string_view) builds no key string.
  std::map<std::string, int, std::less<>> index_;
};

/// Tuning knobs for profile construction. The defaults follow the paper's
/// evaluation setup (window length 15, clustering only past 900 states with
/// K = 0.3·n, 1/5 converge sub-dataset).
struct ProfileOptions {
  /// n — the length of the call sequences the Detection Engine scores.
  size_t window_length = 15;
  /// true = AD-PROM (data-flow labels, `print_Q...` observables and source
  /// connection); false = the CMarkov baseline (plain call names).
  bool use_dd_labels = true;
  /// Record normalized query signatures in DB-call observables
  /// (`db_query#SELECT ... WHERE id = ?`). Off by default — it is the
  /// paper's §VII mitigation for attackers who swap in a different query
  /// of similar selectivity, not part of the baseline system.
  bool use_query_signatures = false;
  /// Ablation: label the DDG with the original flow-insensitive taint
  /// pass instead of the flow-sensitive IFDS engine (which is the default
  /// and labels a subset of the same output sites).
  bool flow_insensitive_taint = false;
  /// Ablation: prune statically infeasible CFG edges and reweight counted
  /// loops with the abstract-interpretation engine before the forecast
  /// (`--no-absint` turns it off and reproduces the unrefined pCTM bit
  /// for bit).
  bool absint_refinement = true;
  /// kStatic = initialize the HMM from the pCTM (AD-PROM / CMarkov);
  /// kRandom = random initialization (the Rand-HMM baseline).
  enum class Init { kStatic, kRandom };
  Init init = Init::kStatic;
  /// Apply PCA + k-means state reduction when the program has more call
  /// sites than this (paper: "more than 900").
  size_t cluster_threshold = 900;
  /// K as a fraction of the site count when clustering (paper: 0.3).
  double cluster_fraction = 0.3;
  double pca_variance = 0.95;
  size_t pca_max_components = 64;
  /// CTVs have dimension 2(n+1); past this cap they are feature-hashed
  /// (sparse, so collisions are rare) before PCA, keeping the eigensolve
  /// tractable for >900-site programs.
  size_t pca_input_cap = 256;
  /// Baum-Welch settings; keep_going is overridden by the CSDS logic.
  hmm::TrainOptions train;
  /// Fraction of normal windows held out as the converge sub-dataset.
  double csds_fraction = 0.2;
  /// Stop training once the CSDS score fails to improve this many times.
  int csds_patience = 2;
  /// Cap on Baum-Welch training windows (0 = use all). When the cap is
  /// hit, windows are subsampled uniformly (deterministically), bounding
  /// training cost on very large trace corpora such as the bash-like app.
  size_t max_training_windows = 0;
  /// Post-init/training probability smoothing. Applied structurally
  /// (HmmModel::SmoothEmissions): B and π get the floor, A keeps the
  /// pCTM's exact zeros so the batch engines' CSR compilation (SparseHmm)
  /// has real sparsity to exploit.
  double smoothing = 1e-6;
  /// Runtime-only: pin the batched kernels to the scalar flavour even where
  /// the CPU offers AVX2/NEON (`--no-simd`). Bit-identical either way;
  /// exists for ablation and CI fallback coverage.
  bool no_simd = false;
  /// Runtime-only: enable the quantized triage tier (`--triage`) — windows
  /// whose cheap int16 lower bound already clears the threshold skip the
  /// exact forward pass. Verdicts are unchanged by construction.
  bool triage = false;
  /// Default threshold = min CSDS window score − margin (per-symbol log
  /// space; 0.5 ≈ a factor e^{7.5} on a 15-call window, small enough that
  /// a single out-of-alphabet call — emission ~1e-9 — crosses it).
  double threshold_margin = 0.5;
  uint64_t seed = 42;
};

/// The trained behaviour profile of one application program: the HMM, the
/// observation alphabet, the (caller, callee) context set, the detection
/// threshold, and the provenance map for labeled output sites.
struct ApplicationProfile {
  ProfileOptions options;
  Alphabet alphabet;
  hmm::HmmModel model;
  /// (caller function, library callee) pairs that are legitimate.
  std::set<std::pair<std::string, std::string>> context_pairs;
  /// Per-symbol log-likelihood below which a window is anomalous.
  double threshold = -1e9;
  /// Labeled observable -> statically resolved source tables.
  std::map<std::string, std::vector<std::string>> labeled_sources;
  size_t num_sites = 0;
  size_t num_states = 0;
  hmm::TrainStats train_stats;

  /// The symbol the profile observes for an event (honours use_dd_labels).
  std::string ObservableOf(const runtime::CallEvent& event) const;

  /// ObservableOf without the allocation: a view of `event.callee` when
  /// that is the observable, else of the symbol composed into `buffer`
  /// (grow-only, so a reused buffer allocates nothing once warm).
  std::string_view ObservableInto(const runtime::CallEvent& event,
                                  std::string* buffer) const;

  /// Encodes events into HMM symbol ids (unknown -> <unk>).
  hmm::ObservationSeq Encode(std::span<const runtime::CallEvent> events) const;

  /// Line-based text serialization (the profile artifact a deployment
  /// stores per application; paper reports ~31 kB profiles). Writes the
  /// "adprom-profile v2" format, whose transition matrix is stored as a
  /// sparse `a-sparse` section (one `<nnz> <col> <val> ...` row per
  /// state) — structurally-smoothed profiles keep A's zeros, so this is
  /// both smaller on disk and an exact record of the sparsity pattern.
  std::string Serialize() const;
  /// Accepts both the current v2 format and the original dense
  /// "adprom-profile v1" format (old stored profiles keep loading).
  static util::Result<ApplicationProfile> Deserialize(
      const std::string& text);
};

/// Cuts a trace into overlapping windows of `n` events (stride 1). Traces
/// shorter than `n` yield one window with the whole trace.
std::vector<std::span<const runtime::CallEvent>> SlidingWindows(
    const runtime::Trace& trace, size_t n);

}  // namespace adprom::core

#endif  // ADPROM_CORE_PROFILE_H_
