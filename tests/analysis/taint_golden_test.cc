// Golden digests of the DDG labeling (labeling_golden.h): the IFDS engine
// as the Analyzer runs it, and as lint's injection check runs it (concat
// tracking plus sanitizers). The digests were recorded from the
// flow-sensitive pass the IFDS engine replaced, so any change to which
// output sites are labeled with which sources — or which append sites
// feed which queries — fails here.

#include <gtest/gtest.h>

#include "analysis/dataflow/ifds.h"
#include "analysis/taint.h"
#include "tests/analysis/labeling_golden.h"

namespace adprom::analysis::dataflow {
namespace {

TEST(TaintLabelingGoldenTest, DefaultConfigMatchesGolden) {
  IfdsOptions options;
  options.column_taint = false;
  options.feasibility_filter = false;
  options.witnesses = false;
  EXPECT_EQ(golden::LabelingDigest(options), golden::kDefaultLabeling);
}

TEST(TaintLabelingGoldenTest, InjectionConfigMatchesGolden) {
  IfdsOptions options;
  options.config.source_calls = {"scan"};
  options.config.sink_calls = {"db_query"};
  options.sanitizer_calls = {"to_int", "to_real", "len", "is_null"};
  options.column_taint = false;
  options.feasibility_filter = false;
  options.witnesses = false;
  options.track_concat_builds = true;
  EXPECT_EQ(golden::LabelingDigest(options), golden::kInjectionLabeling);
}

}  // namespace
}  // namespace adprom::analysis::dataflow
