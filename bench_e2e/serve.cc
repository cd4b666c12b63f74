#include "serve.h"

#include <algorithm>
#include <charconv>
#include <limits>
#include <thread>

#include "util/logging.h"

namespace adprom::e2e {

namespace {

constexpr size_t kNoFrame = std::numeric_limits<size_t>::max();

/// Stream session index of a sink id "<tenant>/s<index>", or kNoFrame.
size_t SessionOf(const std::string& session_id) {
  const size_t slash = session_id.rfind('/');
  if (slash == std::string::npos || slash + 2 > session_id.size() ||
      session_id[slash + 1] != 's') {
    return kNoFrame;
  }
  size_t s = 0;
  const char* first = session_id.data() + slash + 2;
  const char* last = session_id.data() + session_id.size();
  const auto [ptr, ec] = std::from_chars(first, last, s);
  return ec == std::errc() && ptr == last ? s : kNoFrame;
}

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

}  // namespace

VerdictSink::VerdictSink(const Stream* stream, size_t max_positions)
    : lap_base(stream->sessions(), 0),
      expected_generation(stream->sessions(), 0),
      arrival_ns(max_positions, 0),
      digest(max_positions, 0),
      stream_(stream) {}

void VerdictSink::Reset(size_t positions) {
  ADPROM_CHECK_LE(positions, arrival_ns.size());
  positions_ = positions;
  std::fill_n(arrival_ns.begin(), positions, 0);
  std::fill_n(digest.begin(), positions, 0);
  received.store(0);
  errors.store(0);
  closed_wrong_generation = 0;
  closed_with_drops = 0;
}

void VerdictSink::OnDetection(const std::string& session_id,
                              const core::Detection& detection) {
  const int64_t now = NowNs();
  ScopedSpan span(spans, SpanName::kOnDetection);
  if (!checking) return;
  const size_t s = SessionOf(session_id);
  if (s >= stream_->sessions()) {
    errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const size_t f = stream_->VerdictFrame(s, detection.window_start);
  const uint64_t p = lap_base[s] + f;
  if (f == kNoFrame || p >= positions_) {
    errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  arrival_ns[p] = now;
  digest[p] = VerdictDigest(detection);
  received.fetch_add(1, std::memory_order_relaxed);
}

void VerdictSink::OnSessionClosed(const std::string& session_id,
                                  const service::SessionStats& stats) {
  ScopedSpan span(spans, SpanName::kOnSessionClosed);
  const size_t s = SessionOf(session_id);
  if (s >= stream_->sessions()) {
    errors.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (stats.profile_generation != expected_generation[s]) {
    ++closed_wrong_generation;
  }
  if (stats.dropped_events != 0) ++closed_with_drops;
}

service::FleetOptions ServeFleetOptions() {
  service::FleetOptions options;
  options.num_shards = 1;
  options.session.queue_capacity = 1024;
  options.session.overflow =
      service::SessionManagerOptions::OverflowPolicy::kBlock;
  return options;
}

Phase::Phase(ServeContext* ctx, util::ThreadPool* pool, size_t max_events,
             SpanRecorder* spans)
    : ctx_(ctx),
      stream_(*ctx->stream),
      spans_(spans),
      lag_ns_(ctx->lag_ns),
      submit_ns_(ctx->submit_ns) {
  node_ = std::make_unique<service::FleetNode>(ctx->registry, ctx->sink,
                                               pool, ServeFleetOptions());
  ctx->sink->Reset(PositionOfOrdinal(stream_, max_events) + 1);
  ctx->sink->spans = spans;
  open_.assign(stream_.sessions(), 0);
  next_reload_ns_ = NowNs() + ctx->reload_period_ns;
}

Phase::~Phase() {
  // Sessions still open here (a phase abandoned on error) close unchecked.
  ctx_->sink->checking = false;
  node_.reset();
  ctx_->sink->checking = true;
  ctx_->sink->spans = nullptr;
}

uint64_t Phase::OrdinalAt(uint64_t p) const {
  const uint64_t frames = stream_.frames();
  return (p / frames) * stream_.events + stream_.frame_ordinal[p % frames];
}

uint64_t PositionOfOrdinal(const Stream& stream, uint64_t ordinal) {
  const uint64_t lap = ordinal / stream.events;
  const uint32_t rest = static_cast<uint32_t>(ordinal % stream.events);
  const auto it = std::lower_bound(stream.frame_ordinal.begin(),
                                   stream.frame_ordinal.end(), rest);
  return lap * stream.frames() +
         static_cast<uint64_t>(it - stream.frame_ordinal.begin());
}

int64_t Phase::Due(uint64_t p) const {
  const double events_in = static_cast<double>(OrdinalAt(p) - open_ordinal0_);
  return open_t0_ + static_cast<int64_t>(events_in * ns_per_event_);
}

uint64_t Phase::ByteEnd(uint64_t p) const {
  const uint64_t frames = stream_.frames();
  return (p / frames) * stream_.bytes.size() + stream_.frame_end[p % frames];
}

bool Phase::ReadOnce(uint64_t target) {
  const uint64_t lap_bytes = stream_.bytes.size();
  const uint64_t offset = fed_bytes_ % lap_bytes;
  const uint64_t len = std::min<uint64_t>(
      {kReadBytes, target - fed_bytes_, lap_bytes - offset});
  {
    ScopedSpan span(spans_, SpanName::kFeed);
    decoder_.Feed(std::string_view(stream_.bytes.data() + offset, len));
  }
  fed_bytes_ += len;
  while (true) {
    util::Result<std::optional<runtime::Frame>> next = [&] {
      ScopedSpan span(spans_, SpanName::kNext);
      return decoder_.Next();
    }();
    if (!next.ok()) {
      ctx_->tally->Fail(1, "decoder: " + next.status().ToString());
      return false;
    }
    if (!next->has_value()) return true;
    HandleFrame(&**next);
  }
}

void Phase::HandleFrame(runtime::Frame* frame) {
  const uint64_t p = pos_++;
  const size_t f = p % stream_.frames();
  const uint32_t s = stream_.frame_session[f];
  if (frame->type == runtime::FrameType::kEndSession) {
    util::Status status;
    {
      ScopedSpan span(spans_, SpanName::kCloseSession, s);
      status = node_->CloseSession(frame->tenant, frame->session);
    }
    if (!status.ok()) ctx_->tally->Fail(1, status.ToString());
    open_[s] = 0;
    return;
  }
  if (f == stream_.session_frames[stream_.session_begin[s]]) {
    ctx_->sink->lap_base[s] = p - f;
    ctx_->sink->expected_generation[s] =
        ctx_->generation[stream_.session_tenant[s]];
    open_[s] = 1;
  }
  int64_t start = 0;
  if (measuring_) {
    start = NowNs();
    lag_ns_.push_back(start - Due(p));
  }
  util::Status status;
  {
    ScopedSpan span(spans_, SpanName::kSubmit, s);
    status = node_->Submit(frame->tenant, frame->session,
                           std::move(frame->event));
  }
  if (measuring_) submit_ns_.push_back(NowNs() - start);
  if (!status.ok()) ctx_->tally->Fail(1, status.ToString());
  ++events_submitted_;
}

void Phase::MaybeReload(int64_t now) {
  if (now < next_reload_ns_) return;
  next_reload_ns_ = now + ctx_->reload_period_ns;
  const size_t t = static_cast<size_t>(ctx_->reload_tenant);
  util::Status status;
  {
    ScopedSpan span(spans_, SpanName::kReload);
    status = ctx_->registry->Reload(stream_.tenant_names[t],
                                    ctx_->profile_texts[t]);
  }
  if (status.ok()) {
    ++ctx_->generation[t];
  } else {
    ctx_->tally->Fail(1, "reload: " + status.ToString());
  }
}

double Phase::RunClosed(uint64_t events) {
  const uint64_t end = PositionOfOrdinal(stream_, OrdinalAt(pos_) + events);
  const uint64_t target = end == 0 ? 0 : ByteEnd(end - 1);
  const bool reloading = ctx_->reload_tenant >= 0;
  const int64_t start = NowNs();
  while (fed_bytes_ < target) {
    if (!ReadOnce(target)) break;
    if (reloading) MaybeReload(NowNs());
  }
  node_->Drain();
  return SecondsSince(start);
}

Phase::OpenResult Phase::RunOpen(uint64_t events, double rate, bool measure,
                                 int64_t max_lag_ns) {
  const uint64_t begin = pos_;
  open_ordinal0_ = OrdinalAt(begin);
  const uint64_t end = PositionOfOrdinal(stream_, open_ordinal0_ + events);
  ns_per_event_ = 1e9 / rate;
  open_t0_ = NowNs();
  measuring_ = measure;
  if (measure) {
    lag_ns_.clear();
    submit_ns_.clear();
    lag_ns_.reserve(events);
    submit_ns_.reserve(events);
  }
  OpenResult result;
  result.schedule_end_ns =
      open_t0_ + static_cast<int64_t>(static_cast<double>(events) *
                                      ns_per_event_);
  const bool reloading = ctx_->reload_tenant >= 0;
  uint64_t available = begin;  // first position not yet due
  while (pos_ < end) {
    const int64_t now = NowNs();
    if (reloading) MaybeReload(now);
    while (available < end && Due(available) <= now) ++available;
    if (pos_ < available) {
      if (now - Due(pos_) > max_lag_ns) {
        result.aborted = true;
        break;
      }
      if (!ReadOnce(ByteEnd(available - 1))) break;
      continue;
    }
    const int64_t wait = Due(available) - now;
    if (wait > 200000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(wait - 100000));
    } else {
      CpuRelax();
    }
  }
  measuring_ = false;
  if (measure) {
    measured_begin_ = begin;
    measured_end_ = pos_;
  }
  node_->Drain();
  result.drained_ns = NowNs();
  return result;
}

uint64_t Phase::CloseOpenSessions() {
  ctx_->sink->checking = false;
  uint64_t closed = 0;
  for (size_t s = 0; s < open_.size(); ++s) {
    if (!open_[s]) continue;
    util::Status status;
    {
      ScopedSpan span(spans_, SpanName::kCloseSession,
                      static_cast<uint32_t>(s));
      status = node_->CloseSession(
          stream_.tenant_names[stream_.session_tenant[s]],
          "s" + std::to_string(s));
    }
    if (!status.ok()) ctx_->tally->Fail(1, status.ToString());
    open_[s] = 0;
    ++closed;
  }
  ctx_->sink->checking = true;
  return closed;
}

uint64_t Phase::Verify() {
  const VerdictSink& sink = *ctx_->sink;
  uint64_t checked = 0;
  uint64_t stamped = 0;
  uint64_t missing = 0;
  uint64_t wrong = 0;
  uint64_t unexpected = 0;
  for (uint64_t p = 0; p < sink.positions(); ++p) {
    const bool arrived = sink.arrival_ns[p] != 0;
    stamped += arrived ? 1 : 0;
    const uint64_t expected =
        p < pos_ ? stream_.ref_digest[p % stream_.frames()] : 0;
    if (expected == 0) {
      unexpected += arrived ? 1 : 0;
    } else if (!arrived) {
      ++missing;
    } else if (sink.digest[p] != expected) {
      ++wrong;
    } else {
      ++checked;
    }
  }
  Tally& tally = *ctx_->tally;
  tally.Fail(missing, std::to_string(missing) + " verdicts missing");
  tally.Fail(wrong, std::to_string(wrong) + " verdicts differ from "
                        "DetectionEngine::MonitorTrace");
  tally.Fail(unexpected, std::to_string(unexpected) + " unexpected verdicts");
  const uint64_t received = sink.received.load();
  tally.Fail(received > stamped ? received - stamped : 0,
             "duplicate verdicts");
  tally.Fail(sink.errors.load(), "verdicts the sink could not place");
  tally.Fail(sink.closed_wrong_generation,
             "sessions closed on another profile generation than they "
             "opened with");
  tally.Fail(sink.closed_with_drops, "sessions closed with dropped events");
  tally.Fail(node_->total_dropped(), "events dropped");
  return checked;
}

std::vector<int64_t> Phase::Latencies() const {
  const VerdictSink& sink = *ctx_->sink;
  std::vector<int64_t> out;
  for (uint64_t p = measured_begin_; p < measured_end_; ++p) {
    if (stream_.ref_digest[p % stream_.frames()] == 0) continue;
    if (sink.arrival_ns[p] == 0) continue;
    out.push_back(sink.arrival_ns[p] - Due(p));
  }
  return out;
}

Phase::FlagCounts Phase::MeasuredFlags() const {
  FlagCounts counts;
  for (uint64_t p = measured_begin_; p < measured_end_; ++p) {
    const size_t f = p % stream_.frames();
    if (stream_.ref_digest[f] == 0) continue;
    ++counts.verdicts;
    const auto flag = static_cast<core::DetectionFlag>(stream_.ref_flag[f]);
    if (flag != core::DetectionFlag::kNormal) ++counts.alarms;
    if (flag == core::DetectionFlag::kDataLeak) ++counts.data_leaks;
  }
  return counts;
}

}  // namespace adprom::e2e
