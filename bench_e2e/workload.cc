#include "workload.h"

#include <cstring>
#include <limits>
#include <memory>

#include "attack/synthetic.h"
#include "common.h"
#include "core/detection_engine.h"
#include "runtime/frame_codec.h"
#include "util/logging.h"
#include "util/rng.h"

namespace adprom::e2e {

size_t Stream::VerdictFrame(size_t s, size_t window_start) const {
  const size_t len = session_events_count(s);
  const size_t base = session_begin[s];
  if (len >= window_length) {
    const size_t last = window_start + window_length - 1;
    return last < len ? session_frames[base + last]
                      : std::numeric_limits<size_t>::max();
  }
  // A session shorter than one window gets its single whole-session
  // verdict when it closes.
  return window_start == 0 ? session_frames[base + len]
                           : std::numeric_limits<size_t>::max();
}

uint64_t VerdictDigest(const core::Detection& detection) {
  Fnv64 hash;
  hash.AddPod(static_cast<uint8_t>(detection.flag));
  uint64_t score_bits = 0;
  std::memcpy(&score_bits, &detection.score, sizeof(score_bits));
  hash.AddPod(score_bits);
  hash.AddPod(static_cast<uint64_t>(detection.window_start));
  for (const std::string& table : detection.source_tables) {
    hash.Add(table);
    hash.Add("\x1f");
  }
  return hash.value() | 1;
}

namespace {

/// One session in this many carries an attack: 2%.
constexpr uint32_t kAttackEvery = 50;

/// Every n-window of `traces`, owned (the synthetic generator's input).
std::vector<runtime::Trace> Windows(const std::vector<runtime::Trace>& traces,
                                    size_t n) {
  std::vector<runtime::Trace> windows;
  for (const runtime::Trace& trace : traces) {
    for (const auto& window : core::SlidingWindows(trace, n)) {
      windows.emplace_back(window.begin(), window.end());
    }
  }
  return windows;
}

}  // namespace

Stream GenerateStream(const std::vector<Tenant>& tenants,
                      const TrafficShape& shape, size_t window_length,
                      uint64_t seed) {
  util::Rng rng(seed);
  Stream stream;
  stream.window_length = window_length;
  for (const Tenant& tenant : tenants) {
    ADPROM_CHECK_MSG(!tenant.traces.empty(), tenant.name + " has no traces");
    stream.tenant_names.push_back(tenant.name);
  }

  // Attack material per tenant. Pointers into it end up in
  // session_events, so it is owned by a heap block that outlives the
  // stream's moves.
  auto material =
      std::make_shared<std::vector<std::vector<runtime::Trace>>>();
  for (const Tenant& tenant : tenants) {
    if (!tenant.attack_trace.empty()) {
      material->push_back({tenant.attack_trace});
    } else {
      attack::SyntheticAnomalyGenerator generator(
          Windows(tenant.traces, window_length), rng.NextU64());
      material->push_back(generator.MakeBatch2(32));
    }
  }
  stream.attack_material = material;

  std::vector<std::string> keys;
  std::vector<std::vector<uint32_t>> frames_of;  // per session, temporary
  // Lane l always carries tenant l mod T, and every kAttackEvery-th
  // session an attack, so every seed has the same tenant mix and attack
  // count. A lap holds about one long session per lane; drawing tenants at
  // random made the saturate phase's peak memory differ by up to 24%
  // between seeds (tenants: 6.1 to 7.5 MiB).
  auto new_session = [&](size_t lane, bool staggered) -> uint32_t {
    const uint32_t s = static_cast<uint32_t>(stream.session_tenant.size());
    const size_t t = lane % tenants.size();
    size_t len = shape.min_session_events;
    if (shape.max_session_events != shape.min_session_events) {
      len = static_cast<size_t>(
          rng.UniformInt(static_cast<int64_t>(shape.min_session_events),
                         static_cast<int64_t>(shape.max_session_events)));
      // The first session of each lane starts part-way through, so the
      // lanes do not all end (and reopen) in lockstep.
      if (staggered) {
        len = static_cast<size_t>(rng.UniformInt(
            static_cast<int64_t>(window_length), static_cast<int64_t>(len)));
      }
    }
    std::vector<const runtime::CallEvent*> events;
    events.reserve(len);
    const std::vector<runtime::Trace>& traces = tenants[t].traces;
    while (events.size() < len) {
      for (const runtime::CallEvent& event :
           traces[rng.UniformU64(traces.size())]) {
        if (events.size() == len) break;
        events.push_back(&event);
      }
    }
    if (s % kAttackEvery == kAttackEvery - 1) {
      const std::vector<runtime::Trace>& pool = (*material)[t];
      const runtime::Trace& m = pool[rng.UniformU64(pool.size())];
      if (m.size() >= len) {
        const size_t offset = rng.UniformU64(m.size() - len + 1);
        for (size_t i = 0; i < len; ++i) events[i] = &m[offset + i];
      } else {
        const size_t at = rng.UniformU64(len - m.size() + 1);
        for (size_t i = 0; i < m.size(); ++i) events[at + i] = &m[i];
      }
    }
    stream.session_tenant.push_back(static_cast<uint32_t>(t));
    stream.session_events.push_back(std::move(events));
    keys.push_back("s" + std::to_string(s));
    frames_of.emplace_back();
    return s;
  };

  auto add_frame = [&](uint32_t s) {
    frames_of[s].push_back(static_cast<uint32_t>(stream.frame_end.size()));
    stream.frame_end.push_back(stream.bytes.size());
    stream.frame_session.push_back(s);
    stream.frame_ordinal.push_back(static_cast<uint32_t>(stream.events));
  };
  auto emit_end = [&](uint32_t s) {
    runtime::EncodeEndFrame(stream.tenant_names[stream.session_tenant[s]],
                            keys[s], &stream.bytes);
    add_frame(s);
  };

  constexpr int64_t kNone = -1;
  std::vector<int64_t> lane_session(shape.lanes, kNone);
  std::vector<size_t> lane_pos(shape.lanes, 0);
  std::vector<bool> lane_started(shape.lanes, false);
  while (stream.events < shape.stream_events) {
    const size_t lane = rng.UniformU64(shape.lanes);
    if (lane_session[lane] == kNone) {
      lane_session[lane] = new_session(lane, !lane_started[lane]);
      lane_started[lane] = true;
    }
    const uint32_t s = static_cast<uint32_t>(lane_session[lane]);
    const runtime::CallEvent& event =
        *stream.session_events[s][lane_pos[lane]];
    runtime::EncodeEventFrame(stream.tenant_names[stream.session_tenant[s]],
                              keys[s], event, &stream.bytes);
    add_frame(s);
    ++stream.events;
    if (++lane_pos[lane] == stream.session_events[s].size()) {
      emit_end(s);
      lane_session[lane] = kNone;
      lane_pos[lane] = 0;
    }
  }
  // The lap ends every session it opened: sessions cut by the lap end
  // keep the events they got.
  for (size_t lane = 0; lane < shape.lanes; ++lane) {
    if (lane_session[lane] == kNone) continue;
    const uint32_t s = static_cast<uint32_t>(lane_session[lane]);
    stream.session_events[s].resize(lane_pos[lane]);
    emit_end(s);
  }

  stream.session_begin.push_back(0);
  for (const std::vector<uint32_t>& frames : frames_of) {
    stream.session_frames.insert(stream.session_frames.end(), frames.begin(),
                                 frames.end());
    stream.session_begin.push_back(
        static_cast<uint32_t>(stream.session_frames.size()));
  }
  return stream;
}

void ComputeReference(const std::vector<core::ApplicationProfile>& profiles,
                      util::ThreadPool* pool, Stream* stream) {
  std::vector<std::unique_ptr<core::DetectionEngine>> engines;
  for (const core::ApplicationProfile& profile : profiles) {
    engines.push_back(std::make_unique<core::DetectionEngine>(&profile));
  }
  stream->ref_digest.assign(stream->frames(), 0);
  stream->ref_flag.assign(stream->frames(), 0);
  util::ParallelFor(pool, stream->sessions(), [&](size_t s) {
    runtime::Trace trace;
    trace.reserve(stream->session_events[s].size());
    for (const runtime::CallEvent* event : stream->session_events[s]) {
      trace.push_back(*event);
    }
    const core::DetectionEngine& engine =
        *engines[stream->session_tenant[s]];
    for (const core::Detection& verdict : engine.MonitorTrace(trace)) {
      const size_t f = stream->VerdictFrame(s, verdict.window_start);
      ADPROM_CHECK(f < stream->frames());
      stream->ref_digest[f] = VerdictDigest(verdict);
      stream->ref_flag[f] = static_cast<uint8_t>(verdict.flag);
    }
  });
}

}  // namespace adprom::e2e
