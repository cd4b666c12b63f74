#include "trace.h"

#include <cinttypes>
#include <cstdio>

namespace adprom::e2e {

const char* SpanNameText(SpanName name) {
  switch (name) {
    case SpanName::kFeed:
      return "FrameDecoder::Feed";
    case SpanName::kNext:
      return "FrameDecoder::Next";
    case SpanName::kSubmit:
      return "FleetNode::Submit";
    case SpanName::kCloseSession:
      return "FleetNode::CloseSession";
    case SpanName::kReload:
      return "ProfileRegistry::Reload";
    case SpanName::kOnDetection:
      return "AlertSink::OnDetection";
    case SpanName::kOnSessionClosed:
      return "AlertSink::OnSessionClosed";
  }
  return "?";
}

std::vector<SpanRecorder::Row> SpanRecorder::Rows() const {
  std::vector<Row> rows(kSpanNames);
  for (const Span& span : spans_) {
    Row& row = rows[static_cast<size_t>(span.name)];
    ++row.count;
    row.total_ns += span.dur_ns;
    row.self_ns += span.dur_ns;
    if (span.parent != kNoParent) {
      rows[static_cast<size_t>(spans_[span.parent].name)].self_ns -=
          span.dur_ns;
    }
  }
  return rows;
}

bool SpanRecorder::WriteChromeJson(const std::string& path,
                                   const std::string& workload) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fprintf(out, "{\"traceEvents\": [\n");
  std::fprintf(out,
               "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, "
               "\"tid\": 1, \"args\": {\"name\": \"ingest (%s)\"}}",
               workload.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                 "{\"span\": %zu, \"parent\": %" PRId64
                 ", \"session\": %" PRId64 "}}",
                 SpanNameText(span.name),
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.dur_ns) / 1e3, i,
                 span.parent == kNoParent ? int64_t{-1}
                                          : static_cast<int64_t>(span.parent),
                 span.session == kNoParent
                     ? int64_t{-1}
                     : static_cast<int64_t>(span.session));
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace adprom::e2e
