// Asserts the streaming service's steady-state zero-allocation contract:
// once a drainer's ScoringScratch and a session's sliding buffers are
// warm, each per-batch scoring call (StreamingMonitor::ScoreBatch) over
// Normal windows performs no heap allocation at all — no verdict vector,
// no observable string, no (caller, callee) key copy. Names are longer
// than the 15-character small-string buffer, so any string built per
// event or per window would allocate. The check replaces the global
// operator new in this test binary with a counting hook — kept in its own
// binary so the override cannot perturb any other suite.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>
#include <span>
#include <string>
#include <vector>

#include "core/detection_engine.h"
#include "core/profile.h"
#include "hmm/hmm_model.h"
#include "service/streaming_monitor.h"
#include "util/matrix.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// Out of line, so the compiler never sees a new-allocated pointer reach
// free() directly (-Wmismatched-new-delete).
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace adprom::service {
namespace {

/// RAII arm/disarm for the counting hook.
class CountAllocations {
 public:
  CountAllocations() {
    g_allocations.store(0);
    g_counting.store(true);
  }
  ~CountAllocations() { g_counting.store(false); }
  size_t count() const { return g_allocations.load(); }
};

constexpr char kCaller[] = "handle_customer_request";    // 23 chars
constexpr char kQuery[] = "database_query_execute";      // 22 chars
constexpr char kOutput[] = "render_template_to_stream";  // 25 chars
constexpr int kOutputBlock = 7;

/// A data-flow-labelled profile whose events all carry long names: the
/// query call, the plain output call, and the output call's TD-labelled
/// observable. The threshold sits far below any in-alphabet window.
core::ApplicationProfile LongNameProfile() {
  core::ApplicationProfile profile;
  profile.options.window_length = 15;
  profile.options.use_dd_labels = true;
  profile.alphabet.Intern(kQuery);
  profile.alphabet.Intern(kOutput);
  profile.alphabet.Intern(std::string(kOutput) + "_Q" + kCaller + "_" +
                          std::to_string(kOutputBlock));
  profile.model = hmm::HmmModel(
      util::Matrix::FromRows({{0.6, 0.4}, {0.3, 0.7}}),
      util::Matrix::FromRows({{0.1, 0.5, 0.2, 0.2}, {0.1, 0.2, 0.4, 0.3}}),
      {0.5, 0.5});
  profile.threshold = -100.0;
  profile.context_pairs.insert({kCaller, kQuery});
  profile.context_pairs.insert({kCaller, kOutput});
  return profile;
}

/// Event i of the session: query, output, TD-labelled output, repeating.
runtime::CallEvent Ev(int i) {
  runtime::CallEvent event;
  event.caller = kCaller;
  event.callee = i % 3 == 0 ? kQuery : kOutput;
  event.block_id = kOutputBlock;
  event.td_output = i % 3 == 2;
  return event;
}

TEST(ScoringAllocTest, ScoreBatchIsAllocationFreeOnceWarm) {
  const core::ApplicationProfile profile = LongNameProfile();
  const core::DetectionEngine engine(&profile);
  const size_t n = profile.options.window_length;
  for (const size_t batch : {size_t{1}, size_t{5}, size_t{64}}) {
    // Warm-up covers three windows' worth of events and at least three
    // batches, so the sliding buffers have compacted and every scratch
    // buffer has reached its steady size.
    const size_t warm_batches = std::max<size_t>(3, (3 * n + batch) / batch);
    const size_t num_batches = warm_batches + 30;
    // Every batch is built up front: constructing the events allocates,
    // scoring them must not.
    std::vector<std::vector<runtime::CallEvent>> batches(num_batches);
    int next = 0;
    for (std::vector<runtime::CallEvent>& events : batches) {
      for (size_t i = 0; i < batch; ++i) events.push_back(Ev(next++));
    }

    StreamingMonitor monitor(&profile, &engine);
    ScoringScratch scratch;
    size_t verdicts = 0;
    size_t alarms = 0;
    for (size_t b = 0; b < warm_batches; ++b) {
      verdicts += monitor.ScoreBatch(batches[b], &scratch).size();
    }
    {
      const CountAllocations counter;
      for (size_t b = warm_batches; b < num_batches; ++b) {
        for (const core::Detection& verdict :
             monitor.ScoreBatch(batches[b], &scratch)) {
          ++verdicts;
          if (verdict.IsAlarm()) ++alarms;
        }
      }
      EXPECT_EQ(counter.count(), 0u) << "batch size " << batch;
    }
    EXPECT_EQ(verdicts, num_batches * batch - n + 1) << "batch size " << batch;
    EXPECT_EQ(alarms, 0u) << "batch size " << batch;
  }
}

}  // namespace
}  // namespace adprom::service
