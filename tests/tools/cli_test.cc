// End-to-end tests of the adprom CLI library against the shipped sample
// application: analyze, train, trace, score, monitor — including the
// injection run a user is invited to try in the sample's header comment.

#include "tools/cli_lib.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/profile.h"
#include "hmm/hmm_model.h"
#include "util/matrix.h"

namespace adprom::cli {
namespace {

// The sample paths are relative to the repository root; tests locate them
// through the compile-time source dir.
#ifndef ADPROM_SOURCE_DIR
#define ADPROM_SOURCE_DIR "."
#endif

std::string Sample(const std::string& name) {
  return std::string(ADPROM_SOURCE_DIR) + "/samples/inventory/" + name;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

struct CliRun {
  util::Status status;
  std::string output;
};

CliRun RunTool(std::vector<std::string> args) {
  std::ostringstream out;
  const util::Status status = RunCli(args, out);
  return {status, out.str()};
}

TEST(CliTest, UsageErrors) {
  EXPECT_FALSE(RunTool({}).status.ok());
  EXPECT_FALSE(RunTool({"frobnicate"}).status.ok());
  EXPECT_FALSE(RunTool({"analyze"}).status.ok());
  EXPECT_FALSE(RunTool({"train", "x.mini"}).status.ok());
  EXPECT_FALSE(RunTool({"score", "--profile", "p"}).status.ok());
  EXPECT_FALSE(RunTool({"analyze", "/no/such/file.mini"}).status.ok());

  // A misspelled flag, a number with trailing junk, and a word where a
  // number belongs each fail with an error naming the flag, instead of
  // training with a default.
  const std::vector<std::string> train = {
      "train",   Sample("app.mini"),  "--db",  Sample("seed.sql"),
      "--cases", Sample("cases.txt"), "--out", TempPath("usage.profile")};
  const std::vector<std::pair<std::vector<std::string>, std::string>>
      bad_flags = {{{"--thread", "4"}, "unknown flag: --thread"},
                   {{"--window", "15abc"}, "--window must be a number"},
                   {{"--seed", "banana"}, "--seed must be a number"},
                   {{"--threads", "2x"}, "--threads must be a number"},
                   {{"--all=1"}, "flag takes no value: --all"}};
  for (const auto& [extra, message] : bad_flags) {
    std::vector<std::string> args = train;
    args.insert(args.end(), extra.begin(), extra.end());
    const CliRun run = RunTool(args);
    EXPECT_FALSE(run.status.ok()) << extra[0];
    EXPECT_EQ(run.status.code(), util::StatusCode::kInvalidArgument)
        << extra[0];
    EXPECT_NE(run.status.ToString().find(message), std::string::npos)
        << run.status.ToString();
  }
}

TEST(CliTest, AnalyzeSample) {
  const CliRun run = RunTool({"analyze", Sample("app.mini")});
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_NE(run.output.find("functions: 4"), std::string::npos);
  EXPECT_NE(run.output.find("labeled TD outputs:"), std::string::npos);
  EXPECT_NE(run.output.find("pCTM invariants: hold"), std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find("items"), std::string::npos);  // provenance
}

TEST(CliTest, AnalyzeReportsAbsintRefinement) {
  // The absint demo sample has one dead branch (constant debug flag) and
  // one counted loop; the zero-iteration skip edge of the loop is pruned
  // alongside the dead arm.
  const std::string demo =
      std::string(ADPROM_SOURCE_DIR) + "/samples/absint/demo.mini";
  const CliRun on = RunTool({"analyze", demo});
  ASSERT_TRUE(on.status.ok()) << on.status.ToString();
  EXPECT_NE(on.output.find("absint: pruned 2 infeasible edges, bounded 1 "
                           "loops"),
            std::string::npos)
      << on.output;

  const CliRun off = RunTool({"analyze", demo, "--no-absint"});
  ASSERT_TRUE(off.status.ok()) << off.status.ToString();
  EXPECT_NE(off.output.find("absint: disabled (--no-absint)"),
            std::string::npos)
      << off.output;
}

TEST(CliTest, DumpCfgWritesAnnotatedDotFiles) {
  const std::string demo =
      std::string(ADPROM_SOURCE_DIR) + "/samples/absint/demo.mini";
  const std::string dir = TempPath("cfg_dump");
  const CliRun run = RunTool({"analyze", demo, "--dump-cfg=" + dir});
  ASSERT_TRUE(run.status.ok()) << run.status.ToString();
  EXPECT_NE(run.output.find("CFGs dumped to"), std::string::npos);

  std::ifstream main_dot(dir + "/main.dot");
  ASSERT_TRUE(main_dot.good()) << dir + "/main.dot";
  std::stringstream main_text;
  main_text << main_dot.rdbuf();
  // The dead-branch edge is rendered infeasible; the counted loop's back
  // edge carries its trip count.
  EXPECT_NE(main_text.str().find("infeasible"), std::string::npos)
      << main_text.str();
  EXPECT_NE(main_text.str().find("trips=3"), std::string::npos)
      << main_text.str();

  std::ifstream poll_dot(dir + "/poll.dot");
  EXPECT_TRUE(poll_dot.good()) << dir + "/poll.dot";
}

TEST(CliTest, FullPipelineTrainTraceScoreMonitor) {
  const std::string profile_path = TempPath("inventory.profile");
  const std::string trace_path = TempPath("benign.trace");

  // Train.
  CliRun train = RunTool({"train", Sample("app.mini"), "--db",
                      Sample("seed.sql"), "--cases", Sample("cases.txt"),
                      "--out", profile_path});
  ASSERT_TRUE(train.status.ok()) << train.status.ToString();
  EXPECT_NE(train.output.find("profile written"), std::string::npos);

  // Trace a benign run.
  CliRun trace = RunTool({"trace", Sample("app.mini"), "--db",
                      Sample("seed.sql"), "--input", "find,3", "--out",
                      trace_path});
  ASSERT_TRUE(trace.status.ok()) << trace.status.ToString();
  EXPECT_NE(trace.output.find("collected"), std::string::npos);

  // Score the stored trace: quiet.
  CliRun score = RunTool({"score", "--profile", profile_path, "--trace",
                      trace_path});
  ASSERT_TRUE(score.status.ok()) << score.status.ToString();
  EXPECT_NE(score.output.find("alarms: 0"), std::string::npos)
      << score.output;

  // Live monitoring of a benign session: quiet.
  CliRun benign = RunTool({"monitor", Sample("app.mini"), "--db",
                       Sample("seed.sql"), "--profile", profile_path,
                       "--input", "list"});
  ASSERT_TRUE(benign.status.ok()) << benign.status.ToString();
  EXPECT_NE(benign.output.find("alarms: 0"), std::string::npos);

  // The injection session from the sample's header comment: alarms, with
  // the items table named as the source.
  CliRun attack = RunTool({"monitor", Sample("app.mini"), "--db",
                       Sample("seed.sql"), "--profile", profile_path,
                       "--input", "find,1' OR '1'='1"});
  ASSERT_TRUE(attack.status.ok()) << attack.status.ToString();
  EXPECT_EQ(attack.output.find("alarms: 0"), std::string::npos)
      << attack.output;
  EXPECT_NE(attack.output.find("DataLeak"), std::string::npos)
      << attack.output;
  EXPECT_NE(attack.output.find("items"), std::string::npos);

  std::remove(profile_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(CliTest, MonitorSurvivesDeeplyNestedSqlInjection) {
  const std::string profile_path = TempPath("nested_sql.profile");
  ASSERT_TRUE(RunTool({"train", Sample("app.mini"), "--db",
                       Sample("seed.sql"), "--cases", Sample("cases.txt"),
                       "--out", profile_path})
                  .status.ok());
  // Tautology payloads reach the SQL parser through find_item's
  // concatenated query: one wrapped in 30,000 parentheses (60 KB), one
  // chained from 100,000 OR terms (1 MB). Each run must end with a Status
  // or a verdict, never a signal.
  std::string nested = "1' OR " + std::string(30000, '(') + "1 = 1";
  nested += std::string(30000, ')') + " OR 'a' = 'a";
  std::string chain = "1' OR 1 = 1";
  for (int i = 0; i < 100000; ++i) chain += " OR 1 = 1";
  chain += " OR 'a' = 'a";
  for (const std::string& payload : {nested, chain}) {
    const CliRun run =
        RunTool({"monitor", Sample("app.mini"), "--db", Sample("seed.sql"),
                 "--profile", profile_path, "--input", "find," + payload});
    EXPECT_TRUE(run.status.ok() || !run.status.message().empty());
  }
  std::remove(profile_path.c_str());
}

TEST(CliTest, TrainFlagsApply) {
  const std::string profile_path = TempPath("flags.profile");
  CliRun train = RunTool({"train", Sample("app.mini"), "--db",
                      Sample("seed.sql"), "--cases", Sample("cases.txt"),
                      "--out", profile_path, "--window", "10",
                      "--signatures", "--seed", "7"});
  ASSERT_TRUE(train.status.ok()) << train.status.ToString();
  auto text = ReadFileToString(profile_path);
  ASSERT_TRUE(text.ok());
  EXPECT_NE(text->find("window_length 10"), std::string::npos);
  EXPECT_NE(text->find("use_query_signatures 1"), std::string::npos);
  std::remove(profile_path.c_str());

  EXPECT_FALSE(RunTool({"train", Sample("app.mini"), "--db", Sample("seed.sql"),
                    "--cases", Sample("cases.txt"), "--out", profile_path,
                    "--window", "1"})
                   .status.ok());
}

TEST(CliTest, SeedValidationFailsEarly) {
  const std::string bad_seed = TempPath("bad.sql");
  ASSERT_TRUE(WriteStringToFile(bad_seed, "CREATE GARBAGE\n").ok());
  CliRun run = RunTool({"trace", Sample("app.mini"), "--db", bad_seed,
                    "--input", "list", "--out", TempPath("x.trace")});
  EXPECT_FALSE(run.status.ok());
  std::remove(bad_seed.c_str());
}

TEST(CliTest, AnalyzeReportsTaintLabeler) {
  CliRun fs = RunTool({"analyze", Sample("app.mini")});
  ASSERT_TRUE(fs.status.ok()) << fs.status.ToString();
  EXPECT_NE(fs.output.find("flow-sensitive"), std::string::npos);

  CliRun fi = RunTool({"analyze", Sample("app.mini"), "--flow-insensitive"});
  ASSERT_TRUE(fi.status.ok()) << fi.status.ToString();
  EXPECT_NE(fi.output.find("flow-insensitive"), std::string::npos);
}


/// A hand-built window-3 profile over {print, scan}: lets the serve tests
/// run without a training phase.
std::string WriteTinyProfile(const std::string& name) {
  core::ApplicationProfile profile;
  profile.options.window_length = 3;
  profile.options.use_dd_labels = false;
  profile.alphabet.Intern("print");
  profile.alphabet.Intern("scan");
  profile.model = hmm::HmmModel(
      util::Matrix::FromRows({{0.75, 0.25}, {0.5, 0.5}}),
      util::Matrix::FromRows({{0.25, 0.5, 0.25}, {0.5, 0.25, 0.25}}),
      {0.5, 0.5});
  profile.threshold = -100.0;
  profile.context_pairs.insert({"main", "print"});
  profile.context_pairs.insert({"main", "scan"});
  const std::string path = TempPath(name);
  EXPECT_TRUE(WriteStringToFile(path, profile.Serialize()).ok());
  return path;
}

/// The first number right after `key` in `text`.
size_t NumberAfter(const std::string& text, const std::string& key) {
  const size_t pos = text.find(key);
  EXPECT_NE(pos, std::string::npos) << key << " not in: " << text;
  if (pos == std::string::npos) return 0;
  return std::strtoul(text.c_str() + pos + key.size(), nullptr, 10);
}

/// The line of `text` containing `needle` (empty if absent).
std::string LineContaining(const std::string& text,
                           const std::string& needle) {
  size_t pos = text.find(needle);
  if (pos == std::string::npos) return "";
  const size_t begin = text.rfind('\n', pos) + 1;
  const size_t end = text.find('\n', pos);
  return text.substr(begin, end - begin);
}

TEST(CliServeTest, TraceReplayMatchesScoreVerdictCounts) {
  const std::string profile_path = TempPath("serve.profile");
  const std::string benign_path = TempPath("serve_benign.trace");
  const std::string attack_path = TempPath("serve_attack.trace");

  ASSERT_TRUE(RunTool({"train", Sample("app.mini"), "--db",
                       Sample("seed.sql"), "--cases", Sample("cases.txt"),
                       "--out", profile_path})
                  .status.ok());
  ASSERT_TRUE(RunTool({"trace", Sample("app.mini"), "--db",
                       Sample("seed.sql"), "--input", "find,3", "--out",
                       benign_path})
                  .status.ok());
  ASSERT_TRUE(RunTool({"trace", Sample("app.mini"), "--db",
                       Sample("seed.sql"), "--input", "find,1' OR '1'='1",
                       "--out", attack_path})
                  .status.ok());

  const CliRun benign_score =
      RunTool({"score", "--profile", profile_path, "--trace", benign_path});
  const CliRun attack_score =
      RunTool({"score", "--profile", profile_path, "--trace", attack_path});
  ASSERT_TRUE(benign_score.status.ok());
  ASSERT_TRUE(attack_score.status.ok());

  const CliRun serve = RunTool({"serve", "--profile", profile_path,
                                "--trace", benign_path + "," + attack_path,
                                "--threads", "2"});
  ASSERT_TRUE(serve.status.ok()) << serve.status.ToString();

  // Per-session close summaries must agree with batch `score` on the same
  // files: same window and alarm counts, nothing dropped.
  const std::string benign_line =
      LineContaining(serve.output, benign_path + " closed:");
  ASSERT_FALSE(benign_line.empty()) << serve.output;
  EXPECT_EQ(NumberAfter(benign_line, "windows "),
            NumberAfter(benign_score.output, "windows: "));
  EXPECT_EQ(NumberAfter(benign_line, "alarms "),
            NumberAfter(benign_score.output, "alarms: "));

  const std::string attack_line =
      LineContaining(serve.output, attack_path + " closed:");
  ASSERT_FALSE(attack_line.empty()) << serve.output;
  EXPECT_EQ(NumberAfter(attack_line, "windows "),
            NumberAfter(attack_score.output, "windows: "));
  // `score` stops counting alarms once it suppresses printing at 10, so
  // its count is a floor, not a total.
  EXPECT_GE(NumberAfter(attack_line, "alarms "),
            NumberAfter(attack_score.output, "alarms: "));
  EXPECT_GT(NumberAfter(attack_line, "alarms "), 0u);

  // The injection alarms stream out as they fire, with provenance.
  EXPECT_NE(serve.output.find("DataLeak"), std::string::npos)
      << serve.output;
  EXPECT_NE(serve.output.find("items"), std::string::npos);
  EXPECT_NE(serve.output.find("dropped 0"), std::string::npos);
  EXPECT_NE(serve.output.find("served "), std::string::npos);

  std::remove(profile_path.c_str());
  std::remove(benign_path.c_str());
  std::remove(attack_path.c_str());
}

TEST(CliServeTest, FramedFeedMultiplexesSessions) {
  const std::string profile_path = WriteTinyProfile("tiny.profile");
  const std::string feed_path = TempPath("events.feed");

  // Two interleaved sessions; "a" is ended early by the !end directive,
  // "b" is closed by EOF. Comments and blank lines are ignored.
  std::string feed = "# streaming feed\n\n";
  for (int i = 0; i < 5; ++i) {
    const std::string event = (i % 2 == 0 ? "print" : "scan") +
                              std::string("\tmain\t") + std::to_string(i) +
                              "\t1\t0\t\t";
    feed += "a\t" + event + "\n";
    feed += "b\t" + event + "\n";
  }
  feed += "!end\ta\n";
  feed += "b\tprint\tmain\t9\t1\t0\t\t\n";
  ASSERT_TRUE(WriteStringToFile(feed_path, feed).ok());

  const CliRun serve = RunTool({"serve", "--profile", profile_path,
                                "--events", feed_path, "--format", "text",
                                "--all"});
  ASSERT_TRUE(serve.status.ok()) << serve.status.ToString();
  // --all prints every verdict; window 3 over 5/6 events = 3/4 windows.
  EXPECT_NE(serve.output.find("a window 0: Normal"), std::string::npos)
      << serve.output;
  EXPECT_NE(serve.output.find("b window 3: Normal"), std::string::npos)
      << serve.output;
  EXPECT_EQ(NumberAfter(LineContaining(serve.output, "a closed:"),
                        "windows "),
            3u);
  EXPECT_EQ(NumberAfter(LineContaining(serve.output, "b closed:"),
                        "windows "),
            4u);
  EXPECT_NE(serve.output.find("served 11 events, dropped 0"),
            std::string::npos)
      << serve.output;

  std::remove(profile_path.c_str());
  std::remove(feed_path.c_str());
}

TEST(CliServeTest, UsageAndFlagValidation) {
  EXPECT_FALSE(RunTool({"serve"}).status.ok());
  EXPECT_FALSE(RunTool({"serve", "--profile", "/no/such.profile"})
                   .status.ok());

  const std::string profile_path = WriteTinyProfile("tiny2.profile");
  EXPECT_FALSE(RunTool({"serve", "--profile", profile_path, "--policy",
                        "bogus"})
                   .status.ok());
  EXPECT_FALSE(RunTool({"serve", "--profile", profile_path, "--queue",
                        "0"})
                   .status.ok());
  EXPECT_FALSE(RunTool({"serve", "--profile", profile_path, "--threads",
                        "x"})
                   .status.ok());
  EXPECT_FALSE(RunTool({"serve", "--profile", profile_path, "--events",
                        "/no/such.feed"})
                   .status.ok());

  // Fleet-mode flag validation: profile sources are mutually exclusive,
  // shard counts and formats are checked, trace replay is single-tenant.
  EXPECT_FALSE(RunTool({"serve", "--profile", profile_path,
                        "--profiles-dir", "/tmp"})
                   .status.ok());
  EXPECT_FALSE(RunTool({"serve", "--profile", profile_path, "--shards",
                        "0"})
                   .status.ok());
  EXPECT_FALSE(RunTool({"serve", "--profile", profile_path, "--format",
                        "xml"})
                   .status.ok());
  EXPECT_FALSE(RunTool({"serve", "--profiles-dir", "/no/such/dir"})
                   .status.ok());

  // A malformed text feed line names its position.
  const std::string feed_path = TempPath("bad.feed");
  ASSERT_TRUE(WriteStringToFile(feed_path, "no-tab-here\n").ok());
  const CliRun bad = RunTool({"serve", "--profile", profile_path,
                              "--events", feed_path, "--format", "text"});
  EXPECT_FALSE(bad.status.ok());
  EXPECT_NE(bad.status.ToString().find("line 1"), std::string::npos);

  // The same feed under the default binary format fails closed at frame 0
  // (text is not a valid ADPF stream).
  const CliRun not_binary = RunTool({"serve", "--profile", profile_path,
                                     "--events", feed_path});
  EXPECT_FALSE(not_binary.status.ok());
  EXPECT_NE(not_binary.status.ToString().find("bad magic"),
            std::string::npos)
      << not_binary.status.ToString();

  std::remove(profile_path.c_str());
  std::remove(feed_path.c_str());
}

TEST(CliServeTest, BinaryFeedMatchesTextFeedBitForBit) {
  const std::string profile_path = WriteTinyProfile("wire.profile");
  const std::string feed_path = TempPath("wire.feed");
  const std::string bin_path = TempPath("wire.bin");

  // Sessions are fed sequentially and closed explicitly so the verdict
  // stream has one deterministic order for the byte-exact comparison.
  std::string feed;
  for (const char* session : {"a", "b"}) {
    for (int i = 0; i < 7; ++i) {
      feed += std::string(session) + "\t" +
              (i % 2 == 0 ? "print" : "scan") + "\tmain\t" +
              std::to_string(i) + "\t1\t0\t\t\n";
    }
    feed += std::string("!end\t") + session + "\n";
  }
  ASSERT_TRUE(WriteStringToFile(feed_path, feed).ok());

  const CliRun frame =
      RunTool({"frame", "--events", feed_path, "--out", bin_path});
  ASSERT_TRUE(frame.status.ok()) << frame.status.ToString();
  EXPECT_NE(frame.output.find("framed 14 events, 2 end markers"),
            std::string::npos)
      << frame.output;

  const CliRun text = RunTool({"serve", "--profile", profile_path,
                               "--events", feed_path, "--format", "text",
                               "--all"});
  const CliRun binary = RunTool({"serve", "--profile", profile_path,
                                 "--events", bin_path, "--format",
                                 "binary", "--all"});
  ASSERT_TRUE(text.status.ok()) << text.status.ToString();
  ASSERT_TRUE(binary.status.ok()) << binary.status.ToString();
  // The wire format must not change a single verdict, summary, or count.
  EXPECT_EQ(text.output, binary.output);

  std::remove(profile_path.c_str());
  std::remove(feed_path.c_str());
  std::remove(bin_path.c_str());
}

TEST(CliServeTest, MultiTenantServeQualifiesSessionsAndPrintsMetrics) {
  // Two tenants from a profiles directory, one session each, sharded 4
  // ways; sink ids are tenant-qualified and --metrics reports both
  // tenants at generation 1.
  const std::string dir = ::testing::TempDir() + "/serve_profiles";
  std::filesystem::create_directories(dir);
  const std::string t1 = WriteTinyProfile("t1.profile");
  std::filesystem::copy_file(
      t1, dir + "/billing.profile",
      std::filesystem::copy_options::overwrite_existing);
  std::filesystem::copy_file(
      t1, dir + "/crm.profile",
      std::filesystem::copy_options::overwrite_existing);

  std::string feed;
  for (int i = 0; i < 4; ++i) {
    const std::string event = (i % 2 == 0 ? "print" : "scan") +
                              std::string("\tmain\t") + std::to_string(i) +
                              "\t1\t0\t\t";
    feed += "billing\ts1\t" + event + "\n";
    feed += "crm\ts1\t" + event + "\n";
  }
  feed += "!end\tbilling\ts1\n";
  const std::string feed_path = TempPath("tenants.feed");
  ASSERT_TRUE(WriteStringToFile(feed_path, feed).ok());

  const CliRun serve = RunTool({"serve", "--profiles-dir", dir, "--events",
                                feed_path, "--format", "text", "--shards",
                                "4", "--metrics", "--all"});
  ASSERT_TRUE(serve.status.ok()) << serve.status.ToString();
  EXPECT_NE(serve.output.find("billing/s1 window 0:"), std::string::npos)
      << serve.output;
  EXPECT_NE(serve.output.find("crm/s1 window 0:"), std::string::npos);
  EXPECT_NE(serve.output.find("billing/s1 closed:"), std::string::npos);
  EXPECT_NE(serve.output.find("served 8 events, dropped 0"),
            std::string::npos)
      << serve.output;
  EXPECT_NE(serve.output.find("metrics: fleet: 8 events"),
            std::string::npos)
      << serve.output;
  EXPECT_NE(serve.output.find("metrics: shard 3:"), std::string::npos)
      << serve.output;
  EXPECT_NE(serve.output.find("metrics: tenant billing: generation 1"),
            std::string::npos)
      << serve.output;
  EXPECT_NE(serve.output.find("metrics: tenant crm: generation 1"),
            std::string::npos)
      << serve.output;

  // An event for a tenant with no profile fails closed.
  ASSERT_TRUE(WriteStringToFile(
                  feed_path, "ghost\ts1\tprint\tmain\t0\t1\t0\t\t\n")
                  .ok());
  const CliRun ghost = RunTool({"serve", "--profiles-dir", dir, "--events",
                                feed_path, "--format", "text"});
  EXPECT_FALSE(ghost.status.ok());
  EXPECT_NE(ghost.status.ToString().find("ghost"), std::string::npos);

  std::remove(t1.c_str());
  std::remove(feed_path.c_str());
  std::filesystem::remove_all(dir);
}

TEST(CliFrameTest, UsageAndValidationErrors) {
  EXPECT_FALSE(RunTool({"frame"}).status.ok());
  EXPECT_FALSE(RunTool({"frame", "--events", "/no/such.feed", "--out",
                        TempPath("x.bin")})
                   .status.ok());
  const std::string feed_path = TempPath("badframe.feed");
  ASSERT_TRUE(WriteStringToFile(feed_path, "s\tnot-an-event\n").ok());
  const CliRun bad = RunTool(
      {"frame", "--events", feed_path, "--out", TempPath("x.bin")});
  EXPECT_FALSE(bad.status.ok());
  EXPECT_NE(bad.status.ToString().find("line 1"), std::string::npos);
  std::remove(feed_path.c_str());
}

TEST(CliInfoTest, PrintsProfileSummary) {
  const std::string profile_path = WriteTinyProfile("info.profile");
  const CliRun info = RunTool({"info", profile_path});
  ASSERT_TRUE(info.status.ok()) << info.status.ToString();
  EXPECT_NE(info.output.find("window length: 3"), std::string::npos)
      << info.output;
  EXPECT_NE(info.output.find("labels: call-names"), std::string::npos);
  EXPECT_NE(info.output.find("states: 2"), std::string::npos);
  EXPECT_NE(info.output.find("serialized size: "), std::string::npos);
  EXPECT_NE(info.output.find("context pairs: 2"), std::string::npos);
  // The tiny profile's matrices are fully dense.
  EXPECT_NE(
      info.output.find("transition matrix: 2x2, nnz 4 (100.0% dense)"),
      std::string::npos)
      << info.output;
  EXPECT_NE(
      info.output.find("emission matrix: 2x3, nnz 6 (100.0% dense)"),
      std::string::npos)
      << info.output;
  EXPECT_NE(
      info.output.find(
          "quantized triage tables: "),
      std::string::npos)
      << info.output;
  EXPECT_NE(info.output.find("scale 2^10 = 1024"), std::string::npos)
      << info.output;
  EXPECT_NE(info.output.find("simd dispatch: "), std::string::npos)
      << info.output;
  std::remove(profile_path.c_str());
}

TEST(CliInfoTest, ReportsTransitionSparsity) {
  // A profile with structural zeros in A: info must count only the stored
  // nonzeros.
  core::ApplicationProfile profile;
  profile.options.window_length = 3;
  profile.alphabet.Intern("print");
  profile.alphabet.Intern("scan");
  profile.model = hmm::HmmModel(
      util::Matrix::FromRows({{0.0, 1.0}, {0.5, 0.5}}),
      util::Matrix::FromRows({{0.25, 0.5, 0.25}, {0.5, 0.25, 0.25}}),
      {0.5, 0.5});
  profile.threshold = -10.0;
  const std::string profile_path = TempPath("sparse_info.profile");
  ASSERT_TRUE(WriteStringToFile(profile_path, profile.Serialize()).ok());

  const CliRun info = RunTool({"info", profile_path});
  ASSERT_TRUE(info.status.ok()) << info.status.ToString();
  EXPECT_NE(
      info.output.find("transition matrix: 2x2, nnz 3 (75.0% dense)"),
      std::string::npos)
      << info.output;
  std::remove(profile_path.c_str());
}

TEST(CliInfoTest, UsageErrors) {
  EXPECT_FALSE(RunTool({"info"}).status.ok());
  EXPECT_FALSE(RunTool({"info", "/no/such.profile"}).status.ok());
  EXPECT_FALSE(RunTool({"info", "a.profile", "b.profile"}).status.ok());
}

TEST(CliTest, DenseKernelsFlagReproducesDefaultTraining) {
  const std::string first_path = TempPath("kernels_first.profile");
  const std::string second_path = TempPath("kernels_second.profile");
  const std::vector<std::string> train = {
      "train",   Sample("app.mini"),  "--db", Sample("seed.sql"),
      "--cases", Sample("cases.txt"), "--out"};

  // The kernel switch is gone: the flag is rejected by name instead of
  // silently swallowing the argument after it.
  std::vector<std::string> with_flag = train;
  with_flag.insert(with_flag.end(), {first_path, "--dense-kernels"});
  const CliRun rejected = RunTool(with_flag);
  EXPECT_FALSE(rejected.status.ok());
  EXPECT_NE(rejected.status.ToString().find("unknown flag: --dense-kernels"),
            std::string::npos)
      << rejected.status.ToString();
  const CliRun score_rejected =
      RunTool({"score", "--profile", first_path, "--trace", "run.trace",
               "--dense-kernels"});
  EXPECT_FALSE(score_rejected.status.ok());

  // Training is deterministic: two default runs write the same bytes.
  for (const std::string& path : {first_path, second_path}) {
    std::vector<std::string> args = train;
    args.push_back(path);
    const CliRun run = RunTool(args);
    ASSERT_TRUE(run.status.ok()) << run.status.ToString();
    EXPECT_NE(run.output.find("training kernel: batch (simd "),
              std::string::npos)
        << run.output;
  }
  auto first_text = ReadFileToString(first_path);
  auto second_text = ReadFileToString(second_path);
  ASSERT_TRUE(first_text.ok());
  ASSERT_TRUE(second_text.ok());
  EXPECT_EQ(*first_text, *second_text);

  std::remove(first_path.c_str());
  std::remove(second_path.c_str());
}

int RunMain(std::vector<std::string> args, std::string* out_text,
            std::string* err_text) {
  std::ostringstream out, err;
  const int code = RunCliMain(args, out, err);
  if (out_text != nullptr) *out_text = out.str();
  if (err_text != nullptr) *err_text = err.str();
  return code;
}

TEST(CliLintTest, CleanSampleExitsZero) {
  std::string out;
  const int code = RunMain({"lint", Sample("app.mini")}, &out, nullptr);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("0 findings across"), std::string::npos) << out;
}

TEST(CliLintTest, InjectionFindingExitsOneWithFileLine) {
  const std::string app = TempPath("vuln.mini");
  ASSERT_TRUE(WriteStringToFile(app, R"(fn main() {
  var needle = scan();
  var q = "SELECT * FROM t WHERE name = '";
  q = q + needle;
  q = q + "'";
  var r = db_query(q);
  print(r);
}
)")
                  .ok());
  std::string out;
  const int code = RunMain({"lint", app}, &out, nullptr);
  EXPECT_EQ(code, 1) << out;
  EXPECT_NE(out.find(app + ":6:"), std::string::npos) << out;
  EXPECT_NE(out.find("[sql-injection]"), std::string::npos) << out;
  std::remove(app.c_str());
}

TEST(CliLintTest, ErrorsExitTwoOnStderr) {
  std::string out, err;
  EXPECT_EQ(RunMain({"lint", "/no/such/file.mini"}, &out, &err), 2);
  EXPECT_FALSE(err.empty());
  EXPECT_EQ(RunMain({"lint"}, &out, &err), 2);

  // A syntactically invalid program is an error, not a finding.
  const std::string bad = TempPath("bad.mini");
  ASSERT_TRUE(WriteStringToFile(bad, "fn main( {}\n").ok());
  EXPECT_EQ(RunMain({"lint", bad}, &out, &err), 2);
  std::remove(bad.c_str());
}

std::string WitnessSample(const std::string& name) {
  return std::string(ADPROM_SOURCE_DIR) + "/samples/witness/" + name;
}

TEST(CliLintTest, WitnessDemoPrunesFindingsAndExplains) {
  // The demo's would-be exfil findings are provably infeasible: exit 0,
  // and --witnesses renders the pruned paths with the refuted branch.
  std::string out;
  const int code = RunMain(
      {"lint", WitnessSample("leak.mini"), "--db", WitnessSample("seed.sql"),
       "--monitored-sinks=print,print_err", "--witnesses"},
      &out, nullptr);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("0 findings across"), std::string::npos) << out;
  EXPECT_NE(out.find("[infeasible]"), std::string::npos) << out;
  EXPECT_NE(out.find("pruned: line 24 refutes (mode > 0)"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("columns: patients.name patients.ssn"),
            std::string::npos)
      << out;
}

TEST(CliLintTest, JsonFormatHasStableFieldOrder) {
  std::string out;
  const int code = RunMain(
      {"lint", WitnessSample("leak.mini"), "--db", WitnessSample("seed.sql"),
       "--monitored-sinks=print,print_err", "--witnesses", "--format=json"},
      &out, nullptr);
  EXPECT_EQ(code, 0) << out;
  const size_t file_pos = out.find("\"file\"");
  const size_t findings_pos = out.find("\"findings\"");
  const size_t witnesses_pos = out.find("\"witnesses\"");
  const size_t checked_pos = out.find("\"functions_checked\"");
  ASSERT_NE(file_pos, std::string::npos) << out;
  ASSERT_NE(findings_pos, std::string::npos) << out;
  ASSERT_NE(witnesses_pos, std::string::npos) << out;
  ASSERT_NE(checked_pos, std::string::npos) << out;
  EXPECT_LT(file_pos, findings_pos);
  EXPECT_LT(findings_pos, witnesses_pos);
  EXPECT_LT(witnesses_pos, checked_pos);
  EXPECT_NE(out.find("\"pruned_condition\": \"(mode > 0)\""),
            std::string::npos)
      << out;
}

TEST(CliLintTest, DumpWitnessWritesDotFiles) {
  const std::string dir = TempPath("witness_dots");
  std::string out;
  const int code = RunMain(
      {"lint", WitnessSample("leak.mini"),
       "--monitored-sinks=print,print_err", "--dump-witness=" + dir},
      &out, nullptr);
  EXPECT_EQ(code, 0) << out;
  EXPECT_NE(out.find("witnesses dumped to"), std::string::npos) << out;
  std::ifstream dot(dir + "/witness-0.dot");
  ASSERT_TRUE(dot.good());
  std::ostringstream buf;
  buf << dot.rdbuf();
  EXPECT_EQ(buf.str().rfind("digraph witness {", 0), 0u) << buf.str();
  EXPECT_NE(buf.str().find("REFUTED"), std::string::npos) << buf.str();
}

TEST(CliAnalyzeTest, ColumnTaintShowsColumnsAndAblationHidesThem) {
  const CliRun with_columns =
      RunTool({"analyze", Sample("app.mini"), "--db", Sample("seed.sql")});
  ASSERT_TRUE(with_columns.status.ok()) << with_columns.status.ToString();
  // SELECT * expands through the seed's CREATE TABLE schema.
  EXPECT_NE(with_columns.output.find(
                "[columns: items.id items.name items.price]"),
            std::string::npos)
      << with_columns.output;

  const CliRun ablated = RunTool({"analyze", Sample("app.mini"), "--db",
                                  Sample("seed.sql"), "--no-column-taint"});
  ASSERT_TRUE(ablated.status.ok()) << ablated.status.ToString();
  EXPECT_EQ(ablated.output.find("[columns:"), std::string::npos)
      << ablated.output;
  // Everything else is identical — columns are strictly additive.
  EXPECT_NE(ablated.output.find("labeled TD outputs: 2"), std::string::npos)
      << ablated.output;
}

TEST(CliLintTest, NonLintCommandsKeepBinaryExitCodes) {
  std::string out, err;
  EXPECT_EQ(RunMain({"analyze", Sample("app.mini")}, &out, &err), 0);
  EXPECT_EQ(RunMain({"analyze", "/no/such/file.mini"}, &out, &err), 1);
  EXPECT_FALSE(err.empty());
}

TEST(ParseSqlSeedTest, SkipsCommentsAndBlanks) {
  const auto statements =
      ParseSqlSeed("# comment\n\nCREATE TABLE t (a INT)\n  \nINSERT INTO t"
                   " VALUES (1)\n");
  ASSERT_EQ(statements.size(), 2u);
  EXPECT_EQ(statements[0], "CREATE TABLE t (a INT)");
}

}  // namespace
}  // namespace adprom::cli
