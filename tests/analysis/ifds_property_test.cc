// Corpus-wide properties of the IFDS taint engine:
//   * soundness — the feasibility-filtered facts are a subset of the
//     unfiltered ones (labeled ⊎ pruned always reconstructs them), and
//     the unfiltered labeling equals the golden recorded from the
//     flow-sensitive pass it replaced;
//   * realizability — every witness step list walks real CFG edges of
//     its function (structural join nodes may be skipped);
//   * determinism — results are bit-identical for any thread-pool size.

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "analysis/dataflow/flow_graph.h"
#include "analysis/dataflow/ifds.h"
#include "apps/corpus.h"
#include "prog/program.h"
#include "tests/analysis/labeling_golden.h"
#include "util/thread_pool.h"

namespace adprom::analysis::dataflow {
namespace {

std::vector<prog::Program> CorpusPrograms() {
  std::vector<prog::Program> out;
  for (const apps::CorpusApp& app : apps::MakeFullCorpus()) {
    auto program = prog::ParseProgram(app.source);
    EXPECT_TRUE(program.ok()) << app.name << ": "
                              << program.status().ToString();
    out.push_back(std::move(*program));
  }
  return out;
}

/// Flattens a result into a comparable fingerprint (witness rendering
/// included, so path choice differences show up too).
std::string Fingerprint(const IfdsResult& r) {
  std::string out;
  for (const auto& [sink, sources] : r.taint.labeled_sinks) {
    out += "L" + std::to_string(sink) + ":";
    for (int s : sources) out += std::to_string(s) + ",";
  }
  for (const auto& [sink, sources] : r.pruned_sinks) {
    out += "P" + std::to_string(sink) + ":";
    for (int s : sources) out += std::to_string(s) + ",";
  }
  for (const auto& [site, cols] : r.source_columns) {
    out += "C" + std::to_string(site) + ":";
    for (const std::string& c : cols) out += c + ",";
  }
  for (const auto& [fn, vars] : r.taint.tainted_vars) {
    out += "V" + fn + ":";
    for (const auto& [var, tokens] : vars) {
      out += var + "{";
      for (int t : tokens) out += std::to_string(t) + ",";
      out += "}";
    }
  }
  for (const LeakWitness& w : r.witnesses) out += FormatWitness(w);
  out += "S" + std::to_string(r.stats.demanded_solves) + "/" +
         std::to_string(r.stats.sink_facts) + "/" +
         std::to_string(r.stats.pruned_facts) + "/" +
         std::to_string(r.stats.summary_edges);
  return out;
}

TEST(IfdsPropertyTest, FactsAreSubsetOfFlowSensitiveTaint) {
  IfdsOptions unfiltered_options;
  unfiltered_options.feasibility_filter = false;
  for (const prog::Program& program : CorpusPrograms()) {
    auto unfiltered = RunIfdsTaint(program, unfiltered_options);
    ASSERT_TRUE(unfiltered.ok());
    auto ifds = RunIfdsTaint(program, {});
    ASSERT_TRUE(ifds.ok());
    const auto& all = unfiltered->taint.labeled_sinks;
    // Filtered facts ⊆ unfiltered facts…
    for (const auto& [sink, sources] : ifds->taint.labeled_sinks) {
      auto it = all.find(sink);
      ASSERT_NE(it, all.end()) << "sink " << sink;
      for (int s : sources) {
        EXPECT_TRUE(it->second.count(s) > 0) << sink << "<-" << s;
      }
    }
    // …and labeled ⊎ pruned reconstructs them exactly.
    std::map<int, std::set<int>> unioned = ifds->taint.labeled_sinks;
    for (const auto& [sink, sources] : ifds->pruned_sinks) {
      for (int s : sources) {
        EXPECT_TRUE(unioned[sink].insert(s).second) << sink << "<-" << s;
      }
    }
    EXPECT_EQ(unioned, all);
  }
}

TEST(IfdsPropertyTest, FilterOffEqualsFlowSensitiveTaint) {
  // Witnesses and columns stay on: neither tier may change the labeling.
  IfdsOptions options;
  options.feasibility_filter = false;
  EXPECT_EQ(golden::LabelingDigest(options), golden::kDefaultLabeling);
}

TEST(IfdsPropertyTest, WitnessesWalkRealCfgEdges) {
  for (const prog::Program& program : CorpusPrograms()) {
    auto ifds = RunIfdsTaint(program, {});
    ASSERT_TRUE(ifds.ok());
    std::map<std::string, FlowGraph> graphs;
    for (const prog::FunctionDef& fn : program.functions()) {
      graphs.emplace(fn.name, FlowGraph::Build(fn));
    }
    for (const LeakWitness& w : ifds->witnesses) {
      ASSERT_FALSE(w.steps.empty());
      for (size_t i = 0; i + 1 < w.steps.size(); ++i) {
        const WitnessStep& a = w.steps[i];
        const WitnessStep& b = w.steps[i + 1];
        if (a.function != b.function) continue;  // call-site splice
        const FlowGraph& graph = graphs.at(a.function);
        ASSERT_GE(a.node_id, 0);
        ASSERT_LT(static_cast<size_t>(a.node_id), graph.size());
        // b must be reachable from a through structural (join) nodes
        // only — the rendered path skips those.
        std::deque<int> queue(graph.node(a.node_id).succs.begin(),
                              graph.node(a.node_id).succs.end());
        std::set<int> seen;
        bool connected = false;
        while (!queue.empty()) {
          const int n = queue.front();
          queue.pop_front();
          if (n == b.node_id) {
            connected = true;
            break;
          }
          if (!seen.insert(n).second) continue;
          if (graph.node(n).op != FlowOp::kJoin) continue;
          for (int m : graph.node(n).succs) queue.push_back(m);
        }
        EXPECT_TRUE(connected)
            << a.function << ": node " << a.node_id << " !-> " << b.node_id
            << "\n" << FormatWitness(w);
      }
    }
  }
}

TEST(IfdsPropertyTest, ResultsAreBitIdenticalForAnyPoolSize) {
  const std::vector<prog::Program> corpus = CorpusPrograms();
  std::vector<std::string> serial;
  serial.reserve(corpus.size());
  for (const prog::Program& program : corpus) {
    auto ifds = RunIfdsTaint(program, {});
    ASSERT_TRUE(ifds.ok());
    serial.push_back(Fingerprint(*ifds));
  }
  for (size_t workers : {1u, 2u, 4u}) {
    util::ThreadPool pool(workers);
    IfdsOptions options;
    options.pool = &pool;
    for (size_t i = 0; i < corpus.size(); ++i) {
      auto ifds = RunIfdsTaint(corpus[i], options);
      ASSERT_TRUE(ifds.ok());
      EXPECT_EQ(Fingerprint(*ifds), serial[i])
          << "program " << i << " with " << workers << " workers";
    }
  }
}

}  // namespace
}  // namespace adprom::analysis::dataflow
