// Golden inputs and digests of the flow-sensitive DDG labeling, shared by
// the golden test and the IFDS property tests. The inputs are every corpus
// app, every `samples/**/*.mini` program and generator seeds 100-119; a
// digest is the FNV-64 of the labeling rendered program by program.

#ifndef ADPROM_TESTS_ANALYSIS_LABELING_GOLDEN_H_
#define ADPROM_TESTS_ANALYSIS_LABELING_GOLDEN_H_

#include <gtest/gtest.h>

#include <cinttypes>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/dataflow/ifds.h"
#include "analysis/hashing.h"
#include "apps/corpus.h"
#include "prog/generator.h"
#include "prog/program.h"
#include "util/strings.h"

#ifndef ADPROM_SOURCE_DIR
#define ADPROM_SOURCE_DIR "."
#endif

namespace adprom::analysis::dataflow::golden {

/// `labeled_sinks` of every input under `TaintConfig::Default()`.
inline constexpr char kDefaultLabeling[] = "494d53157e122745 (5837 bytes)";
/// `labeled_sinks`, `concat_sites` and `sink_concat_builds` of every
/// input under lint's injection config (scan -> db_query, its sanitizers).
inline constexpr char kInjectionLabeling[] = "0a37599a91fd926b (26160 bytes)";

struct NamedProgram {
  std::string name;
  prog::Program program;
};

inline std::vector<NamedProgram> Inputs() {
  std::vector<NamedProgram> out;
  for (const apps::CorpusApp& app : apps::MakeFullCorpus()) {
    auto program = prog::ParseProgram(app.source);
    EXPECT_TRUE(program.ok()) << app.name;
    out.push_back({app.name, std::move(*program)});
  }
  const std::filesystem::path root =
      std::filesystem::path(ADPROM_SOURCE_DIR) / "samples";
  std::set<std::string> samples;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(root)) {
    if (entry.path().extension() == ".mini") {
      samples.insert(entry.path().lexically_relative(root).string());
    }
  }
  for (const std::string& rel : samples) {
    std::ifstream in(root / rel, std::ios::binary);
    EXPECT_TRUE(in.good()) << rel;
    std::ostringstream source;
    source << in.rdbuf();
    auto program = prog::ParseProgram(source.str());
    EXPECT_TRUE(program.ok()) << rel;
    out.push_back({rel, std::move(*program)});
  }
  for (uint64_t seed = 100; seed < 120; ++seed) {
    util::Rng rng(seed);
    prog::GeneratorOptions options;
    options.with_db_calls = true;
    options.num_functions = 3;
    options.max_depth = 2;
    options.max_block_statements = 4;
    auto program = prog::GenerateRandomProgram(options, rng);
    EXPECT_TRUE(program.ok()) << seed;
    out.push_back({"seed" + std::to_string(seed), std::move(*program)});
  }
  return out;
}

inline void RenderEdges(const char* tag,
                        const std::map<int, std::set<int>>& edges,
                        std::string* out) {
  for (const auto& [site, sources] : edges) {
    *out += tag + std::to_string(site) + ":";
    for (int s : sources) *out += std::to_string(s) + ",";
    *out += "\n";
  }
}

/// Runs the IFDS engine with `options` over every input and digests the
/// labeling (plus the concat builds when `options.track_concat_builds`).
/// Fails the calling test if the engine reports any pruned fact.
inline std::string LabelingDigest(const IfdsOptions& options) {
  std::string text;
  for (const NamedProgram& input : Inputs()) {
    auto result = RunIfdsTaint(input.program, options);
    EXPECT_TRUE(result.ok()) << input.name;
    if (!result.ok()) continue;
    EXPECT_TRUE(result->pruned_sinks.empty()) << input.name;
    text += "program " + input.name + "\n";
    RenderEdges("L", result->taint.labeled_sinks, &text);
    if (!options.track_concat_builds) continue;
    for (const ConcatBuildSite& site : result->concat_sites) {
      text += "A" + site.function + "." + site.variable + "@" +
              std::to_string(site.line) + "\n";
    }
    RenderEdges("B", result->sink_concat_builds, &text);
  }
  const uint64_t digest = Hasher().Bytes(text.data(), text.size()).digest();
  return util::StrFormat("%016" PRIx64 " (%zu bytes)", digest, text.size());
}

}  // namespace adprom::analysis::dataflow::golden

#endif  // ADPROM_TESTS_ANALYSIS_LABELING_GOLDEN_H_
