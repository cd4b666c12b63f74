// Golden digests of constructed profiles: the corpus apps the end-to-end
// benchmark serves, trained with its setup (the paper's Table VII options
// on one thread), must serialize to exactly the bytes the benchmark
// enforces. The construction differentials compare the batch engines with
// the dense reference; this pins the whole pipeline's output — analysis,
// reduction, initialization, Baum-Welch, CSDS early stopping and the
// threshold scan — so a change anywhere in it fails here first.

#include <gtest/gtest.h>

#include <cinttypes>
#include <ostream>
#include <string>

#include "analysis/hashing.h"
#include "apps/corpus.h"
#include "core/adprom.h"
#include "util/strings.h"

namespace adprom::core {
namespace {

struct DigestCase {
  const char* app;
  const char* fnv64;
};

// Names the case by app, so the listed test name is stable across builds.
void PrintTo(const DigestCase& c, std::ostream* os) { *os << c.app; }

apps::CorpusApp MakeApp(const std::string& name) {
  if (name == "App1") return apps::MakeGrepLike();
  if (name == "App2") return apps::MakeGzipLike();
  if (name == "App3") return apps::MakeSedLike();
  if (name == "App4") return apps::MakeBashLike();
  return apps::MakeBankingApp();  // App_b
}

class ProfileDigestTest : public ::testing::TestWithParam<DigestCase> {};

TEST_P(ProfileDigestTest, MatchesEndToEndBenchDigest) {
  const apps::CorpusApp app = MakeApp(GetParam().app);
  auto program = prog::ParseProgram(app.source);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  ProfileOptions options;
  options.max_training_windows = 400;
  options.train.max_iterations = 12;
  options.train.num_threads = 1;
  auto system =
      AdProm::Train(*program, app.db_factory, app.test_cases, options);
  ASSERT_TRUE(system.ok()) << system.status().ToString();
  const std::string text = system->profile().Serialize();
  const uint64_t digest =
      analysis::Hasher().Bytes(text.data(), text.size()).digest();
  EXPECT_EQ(util::StrFormat("%016" PRIx64, digest), GetParam().fnv64)
      << GetParam().app << ": " << text.size() << " bytes";
}

INSTANTIATE_TEST_SUITE_P(
    TableSeven, ProfileDigestTest,
    ::testing::Values(DigestCase{"App1", "4556419dae19abe6"},
                      DigestCase{"App2", "d80bc24c7d9c863c"},
                      DigestCase{"App3", "77ffc442b94a2673"},
                      DigestCase{"App4", "72c846959c93914e"},
                      DigestCase{"App_b", "65db91d417a1f461"}),
    [](const ::testing::TestParamInfo<DigestCase>& info) {
      return std::string(info.param.app);
    });

}  // namespace
}  // namespace adprom::core
