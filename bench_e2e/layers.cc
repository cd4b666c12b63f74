#include "layers.h"

#include <algorithm>
#include <span>

#include "core/detection_engine.h"
#include "hmm/batch_forward.h"
#include "service/streaming_monitor.h"

namespace adprom::e2e {

namespace {

/// One replayed session: its events (owned copies) and their symbols.
struct Replayed {
  std::shared_ptr<const service::ProfileHandle> handle;
  runtime::Trace events;
  hmm::ObservationSeq symbols;
};

}  // namespace

LayerCosts ReplayLayers(ServeContext* ctx, size_t events, size_t windows) {
  const Stream& stream = *ctx->stream;
  const size_t n = stream.window_length;
  LayerCosts costs;

  // Frame decode in 4 KiB reads over the stream's first `events` events.
  {
    const size_t last_frame = static_cast<size_t>(
        std::lower_bound(stream.frame_ordinal.begin(),
                         stream.frame_ordinal.end(),
                         static_cast<uint32_t>(
                             std::min(events, stream.events))) -
        stream.frame_ordinal.begin());
    const size_t bytes =
        last_frame == 0 ? 0 : stream.frame_end[last_frame - 1];
    runtime::FrameDecoder decoder;
    size_t frames = 0;
    const int64_t start = NowNs();
    for (size_t offset = 0; offset < bytes; offset += 4096) {
      decoder.Feed(std::string_view(stream.bytes.data() + offset,
                                    std::min<size_t>(4096, bytes - offset)));
      while (true) {
        auto frame = decoder.Next();
        if (!frame.ok() || !frame->has_value()) break;
        ++frames;
      }
    }
    costs.decode4k_ns = NsPer(NowNs() - start, frames);
    if (frames != last_frame) {
      ctx->tally->Fail(1, "4 KiB decode replay lost frames");
    }
  }

  // The first sessions of the stream, in order, up to `events` events.
  std::vector<Replayed> sessions;
  size_t total = 0;
  for (size_t s = 0; s < stream.sessions() && total < events; ++s) {
    Replayed r;
    r.handle =
        ctx->registry->Get(stream.tenant_names[stream.session_tenant[s]]);
    for (const runtime::CallEvent* event : stream.session_events[s]) {
      r.events.push_back(*event);
    }
    total += r.events.size();
    sessions.push_back(std::move(r));
  }

  int64_t ns = 0;
  for (Replayed& r : sessions) {
    const int64_t start = NowNs();
    r.symbols = r.handle->profile().Encode(r.events);
    ns += NowNs() - start;
  }
  costs.encode_ns = NsPer(ns, total);

  ns = 0;
  for (const Replayed& r : sessions) {
    service::StreamingMonitor monitor(&r.handle->profile(),
                                      &r.handle->engine());
    runtime::Trace copy = r.events;  // OnEvents consumes its input
    const int64_t start = NowNs();
    for (size_t i = 0; i < copy.size(); i += 64) {
      const size_t len = std::min<size_t>(64, copy.size() - i);
      monitor.OnEvents(std::span<runtime::CallEvent>(copy.data() + i, len));
    }
    ns += NowNs() - start;
  }
  costs.monitor_ns = NsPer(ns, total);

  // Window scoring and verdict assembly, per session so each window is
  // scored by its own tenant's engine.
  int64_t w1_ns = 0;
  int64_t w16_ns = 0;
  int64_t verdict_ns = 0;
  size_t scored = 0;
  for (const Replayed& r : sessions) {
    if (scored >= windows || r.symbols.size() < n) continue;
    const core::DetectionEngine& engine = r.handle->engine();
    hmm::BatchWorkspace ws;
    engine.ReserveWorkspace(&ws);
    const size_t count = std::min(r.symbols.size() - n + 1, windows - scored);
    std::vector<hmm::SymbolSpan> seqs;
    for (size_t w = 0; w < count; ++w) {
      seqs.emplace_back(r.symbols.data() + w, n);
    }
    std::vector<double> scores(count);
    int64_t start = NowNs();
    for (size_t w = 0; w < count; ++w) {
      engine.ScoreWindows(std::span(&seqs[w], 1), &ws,
                          std::span(&scores[w], 1));
    }
    w1_ns += NowNs() - start;
    start = NowNs();
    for (size_t w = 0; w < count; w += 16) {
      const size_t len = std::min<size_t>(16, count - w);
      engine.ScoreWindows(std::span(seqs.data() + w, len), &ws,
                          std::span(scores.data() + w, len));
    }
    w16_ns += NowNs() - start;
    start = NowNs();
    for (size_t w = 0; w < count; ++w) {
      const core::Detection verdict = engine.AssembleVerdict(
          std::span(r.events.data() + w, n), seqs[w], w, scores[w]);
      (void)verdict;
    }
    verdict_ns += NowNs() - start;
    scored += count;
  }
  costs.score_w1_ns = NsPer(w1_ns, scored);
  costs.score_w16_ns = NsPer(w16_ns, scored);
  costs.verdict_ns = NsPer(verdict_ns, scored);

  // Reload: every tenant's serialized profile, swapped in again.
  std::vector<double> reloads;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t start = NowNs();
    for (size_t t = 0; t < stream.tenant_names.size(); ++t) {
      const util::Status status =
          ctx->registry->Reload(stream.tenant_names[t], ctx->profile_texts[t]);
      if (status.ok()) {
        ++ctx->generation[t];
      } else {
        ctx->tally->Fail(1, "reload: " + status.ToString());
      }
    }
    reloads.push_back(SecondsSince(start) * 1e3);
  }
  costs.reload_ms = Median(reloads);
  return costs;
}

}  // namespace adprom::e2e
