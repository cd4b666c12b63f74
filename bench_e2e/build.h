#ifndef ADPROM_BENCH_E2E_BUILD_H_
#define ADPROM_BENCH_E2E_BUILD_H_

#include <memory>
#include <string>
#include <vector>

#include "analysis/summary_cache.h"
#include "core/analyzer.h"
#include "db/schema.h"
#include "prog/program.h"
#include "runtime/call_event.h"

namespace adprom::e2e {

/// One tenant of a serve workload: its trained profile artifact plus the
/// recorded traces its sessions are cut from.
struct Tenant {
  std::string name;          // corpus app name, also the wire tenant id
  std::string profile_text;  // ApplicationProfile::Serialize()
  std::vector<runtime::Trace> traces;  // the recorded training traces
  /// App_b only: the trace of the paper's Attack 5, a tautology SQL
  /// injection through find_client (empty for every other app).
  runtime::Trace attack_trace;
};

/// Builds one tenant: AdProm::Train + Serialize with the paper's Table VII
/// options, on one thread.
///
/// One thread, because with more AdProm::Train keeps its analysis pool
/// alive beside the training pool: 3 threads each would put 7 threads in
/// the process on a 4-core machine. The profile is the same for any
/// thread count.
Tenant BuildTenant(const std::string& app_name);

/// Stage times of one build taken apart: the calls AdProm::Train makes,
/// made one by one with Train's options, plus what the library already
/// reports about its own steps. Summed over the apps of a workload.
struct BuildStages {
  double parse_ms = 0.0;
  double analyze_s = 0.0;
  double cfg_s = 0.0;
  double absint_s = 0.0;
  double taint_s = 0.0;
  double forecast_s = 0.0;
  double aggregation_s = 0.0;
  double collect_s = 0.0;
  double trace_events = 0.0;
  double construct_s = 0.0;
  double reduction_s = 0.0;
  double init_s = 0.0;
  double baum_welch_s = 0.0;
  double serialize_ms = 0.0;
  double profile_bytes = 0.0;
  double states = 0.0;
  double a_nonzeros = 0.0;
  double a_cells = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// The same build as BuildTenant, stage by stage; adds into `stages`.
Tenant StagedBuild(const std::string& app_name, BuildStages* stages);

/// Warm re-analysis of the samples/drift revisions rev1..rev5.
class DriftCorpus {
 public:
  static constexpr size_t kRevisions = 5;  // rev1..rev5

  /// Reads and parses rev0..rev5 and both schema catalogs from
  /// `<root>/samples/drift`, and primes the analysis cache with rev0.
  /// Aborts when the files are missing or malformed.
  explicit DriftCorpus(const std::string& root);

  struct Run {
    double total_ms = 0.0;               // sum of the five Analyze calls
    double revision_ms[kRevisions] = {};  // rev1..rev5
    size_t hits = 0;                      // summary + aggregation cache
    size_t misses = 0;
  };

  /// Times Analyzer::Analyze on rev1 through rev5, each against the cache
  /// primed with rev0. The cache keeps one summary per function, so after
  /// each revision an untimed warm re-analysis of rev0 puts back the
  /// summaries the revision replaced.
  Run Measure() const;

  static const char* RevisionKind(size_t i);

 private:
  void AnalyzeBase() const;

  db::SchemaCatalog base_catalog_;
  db::SchemaCatalog v2_catalog_;
  std::vector<prog::Program> programs_;  // rev0..rev5
  std::unique_ptr<analysis::AnalysisCache> cache_ =
      std::make_unique<analysis::AnalysisCache>();
};

}  // namespace adprom::e2e

#endif  // ADPROM_BENCH_E2E_BUILD_H_
