// Fuzz battery for the binary wire protocol: round trips through hostile
// payload bytes, truncation at every byte offset, corrupted headers
// (magic/version/type/length), strict td flags, trailing payload bytes,
// and random byte soup. Every malformed stream must fail closed with a
// clean diagnostic — never a crash, never an event attributed to the
// wrong tenant or session. Runs under ASan/TSan in the sanitizer CI jobs.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "runtime/frame_codec.h"
#include "util/rng.h"

namespace adprom::runtime {
namespace {

CallEvent MakeEvent(int i) {
  CallEvent event;
  event.callee = "print";
  event.caller = "fn_" + std::to_string(i);
  event.block_id = i;
  event.call_site_id = 10 + i;
  event.td_output = (i % 2) == 1;
  event.query_signature = "SELECT * FROM t WHERE id = ?";
  event.source_tables = {"items", "users"};
  return event;
}

void ExpectSameEvent(const CallEvent& expected, const CallEvent& actual) {
  EXPECT_EQ(expected.callee, actual.callee);
  EXPECT_EQ(expected.caller, actual.caller);
  EXPECT_EQ(expected.block_id, actual.block_id);
  EXPECT_EQ(expected.call_site_id, actual.call_site_id);
  EXPECT_EQ(expected.td_output, actual.td_output);
  EXPECT_EQ(expected.query_signature, actual.query_signature);
  EXPECT_EQ(expected.source_tables, actual.source_tables);
}

/// What decoding a stream in fixed-size reads produced.
struct ChunkedDecode {
  std::vector<Frame> frames;
  uint64_t frames_decoded = 0;
  uint64_t bytes_consumed = 0;
  std::string error;   // the poisoning diagnostic; empty if none
  std::string finish;  // Finish()'s status
};

/// Feeds `wire` in reads of `chunk` bytes (the last one shorter), draining
/// every complete frame after each read, then calls Finish.
ChunkedDecode DecodeInChunks(const std::string& wire, size_t chunk) {
  ChunkedDecode out;
  FrameDecoder decoder;
  for (size_t offset = 0; offset < wire.size() && out.error.empty();
       offset += chunk) {
    decoder.Feed(std::string_view(wire).substr(offset, chunk));
    while (true) {
      auto next = decoder.Next();
      if (!next.ok()) {
        out.error = next.status().ToString();
        break;
      }
      if (!next->has_value()) break;
      out.frames.push_back(std::move(**next));
    }
  }
  out.frames_decoded = decoder.frames_decoded();
  out.bytes_consumed = decoder.bytes_consumed();
  out.finish = decoder.Finish().ToString();
  return out;
}

/// The read sizes every chunked test runs: byte by byte, an odd size that
/// splits headers and payloads everywhere, the two read sizes the serve
/// benchmark uses, and the whole stream at once.
std::vector<size_t> ChunkSizes(const std::string& wire) {
  return {1, 7, 4096, 65536, wire.size()};
}

TEST(FrameCodecTest, RoundTripSurvivesHostileBytes) {
  CallEvent event = MakeEvent(3);
  event.callee = std::string("na\x00me\twith\nweird\x1f,chars", 23);
  event.caller = "100% legit";
  event.query_signature = std::string("\xff\xfe\x00\x01", 4);
  event.source_tables = {"a,b", "", std::string("\t\n%", 3)};

  // Enough frame pairs that every read size below ends reads mid-frame
  // and the decoder compacts many times.
  constexpr size_t kPairs = 1500;
  std::string wire;
  for (size_t i = 0; i < kPairs; ++i) {
    EncodeEventFrame("tenant-\xc3\xa9", "session\x1fkey", event, &wire);
    EncodeEndFrame("tenant-\xc3\xa9", "session\x1fkey", &wire);
  }
  ASSERT_GT(wire.size(), 2u * 65536);

  // The decoder must reassemble across arbitrary read boundaries: every
  // read size yields the same frames and the same byte count.
  for (const size_t chunk : ChunkSizes(wire)) {
    const ChunkedDecode decoded = DecodeInChunks(wire, chunk);
    EXPECT_EQ(decoded.error, "") << "chunk " << chunk;
    EXPECT_EQ(decoded.finish, "OK") << "chunk " << chunk;
    EXPECT_EQ(decoded.bytes_consumed, wire.size()) << "chunk " << chunk;
    EXPECT_EQ(decoded.frames_decoded, 2 * kPairs) << "chunk " << chunk;
    ASSERT_EQ(decoded.frames.size(), 2 * kPairs) << "chunk " << chunk;
    for (size_t i = 0; i < decoded.frames.size(); i += 2) {
      const Frame& first = decoded.frames[i];
      const Frame& second = decoded.frames[i + 1];
      EXPECT_EQ(first.type, FrameType::kEvent);
      EXPECT_EQ(first.tenant, "tenant-\xc3\xa9");
      EXPECT_EQ(first.session, "session\x1fkey");
      ExpectSameEvent(event, first.event);
      EXPECT_EQ(second.type, FrameType::kEndSession);
      EXPECT_EQ(second.tenant, "tenant-\xc3\xa9");
      EXPECT_EQ(second.session, "session\x1fkey");
    }
  }

  // A stream cut 5 bytes into one more frame: every read size decodes the
  // same complete frames and reports the same unconsumed tail.
  std::string cut = wire;
  EncodeEndFrame("t", "s", &cut);
  cut.resize(wire.size() + 5);
  const std::string tail = "stream ends mid-frame with 5 unconsumed bytes";
  for (const size_t chunk : ChunkSizes(cut)) {
    const ChunkedDecode decoded = DecodeInChunks(cut, chunk);
    EXPECT_EQ(decoded.error, "") << "chunk " << chunk;
    EXPECT_EQ(decoded.frames.size(), 2 * kPairs) << "chunk " << chunk;
    EXPECT_EQ(decoded.frames_decoded, 2 * kPairs) << "chunk " << chunk;
    EXPECT_EQ(decoded.bytes_consumed, wire.size()) << "chunk " << chunk;
    EXPECT_NE(decoded.finish.find(tail), std::string::npos)
        << "chunk " << chunk << ": " << decoded.finish;
  }
}

TEST(FrameCodecTest, EmptyIdentifiersAndEmptyEventRoundTrip) {
  std::string wire;
  EncodeEventFrame("", "", CallEvent(), &wire);
  FrameDecoder decoder;
  decoder.Feed(wire);
  auto next = decoder.Next();
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ASSERT_TRUE(next->has_value());
  EXPECT_TRUE((*next)->tenant.empty());
  EXPECT_TRUE((*next)->session.empty());
  ExpectSameEvent(CallEvent(), (*next)->event);
  EXPECT_TRUE(decoder.Finish().ok());
}

TEST(FrameCodecFuzzTest, TruncationAtEveryByteFailsClosed) {
  std::string wire;
  EncodeEventFrame("t1", "s1", MakeEvent(0), &wire);
  EncodeEndFrame("t1", "s1", &wire);
  const size_t first_frame_size = [] {
    std::string one;
    EncodeEventFrame("t1", "s1", MakeEvent(0), &one);
    return one.size();
  }();

  for (size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Feed(std::string_view(wire.data(), cut));
    size_t decoded = 0;
    while (true) {
      auto next = decoder.Next();
      ASSERT_TRUE(next.ok()) << "cut " << cut << ": a clean truncation is "
                             << "not an error until Finish, got "
                             << next.status().ToString();
      if (!next->has_value()) break;
      ++decoded;
    }
    // The only clean stop points are frame boundaries; everywhere else
    // Finish must flag the partial frame.
    if (cut == 0) {
      EXPECT_EQ(decoded, 0u);
      EXPECT_TRUE(decoder.Finish().ok());
    } else if (cut == first_frame_size) {
      EXPECT_EQ(decoded, 1u);
      EXPECT_TRUE(decoder.Finish().ok());
    } else {
      const util::Status finish = decoder.Finish();
      EXPECT_FALSE(finish.ok()) << "cut " << cut;
      EXPECT_NE(finish.ToString().find("mid-frame"), std::string::npos)
          << finish.ToString();
    }
  }
}

TEST(FrameCodecFuzzTest, CorruptHeadersPoisonWithDiagnostics) {
  std::string valid;
  EncodeEventFrame("t", "s", MakeEvent(1), &valid);

  struct Case {
    size_t offset;
    char byte;
    const char* needle;
  };
  const std::vector<Case> corpus = {
      {0, 'X', "bad magic"},           // magic byte 0
      {3, 'Q', "bad magic"},           // magic byte 3
      {4, '\x02', "version"},          // unsupported version
      {4, '\x00', "version"},          // version zero
      {5, '\x03', "unknown frame type"},
      {5, '\x00', "unknown frame type"},
      {9, '\x7f', "exceeds"},          // payload length ~2 GiB
  };
  for (const Case& c : corpus) {
    std::string wire = valid;
    wire[c.offset] = c.byte;
    FrameDecoder decoder;
    decoder.Feed(wire);
    auto next = decoder.Next();
    ASSERT_FALSE(next.ok()) << "offset " << c.offset;
    EXPECT_NE(next.status().ToString().find(c.needle), std::string::npos)
        << next.status().ToString();
    EXPECT_TRUE(decoder.poisoned());
  }
}

TEST(FrameCodecFuzzTest, MalformedPayloadsPoison) {
  // td flag must be strictly 0/1. The flag sits right after the two
  // length-prefixed ids and the two i32s.
  std::string wire;
  EncodeEventFrame("t", "s", MakeEvent(0), &wire);
  const size_t td_offset = 10 + (2 + 1) + (2 + 1) + 4 + 4;
  ASSERT_EQ(wire[td_offset], '\x00');
  wire[td_offset] = '\x02';
  FrameDecoder decoder;
  decoder.Feed(wire);
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().ToString().find("td_output"), std::string::npos)
      << next.status().ToString();
}

TEST(FrameCodecFuzzTest, TrailingPayloadBytesPoison) {
  // Grow the declared payload length by one and append a stray byte: the
  // frame body parses but does not consume the payload exactly.
  std::string wire;
  EncodeEndFrame("t", "s", &wire);
  const size_t payload_len = wire.size() - 10;
  wire[6] = static_cast<char>(payload_len + 1);
  wire.push_back('\x00');
  FrameDecoder decoder;
  decoder.Feed(wire);
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().ToString().find("trailing"), std::string::npos)
      << next.status().ToString();
}

TEST(FrameCodecFuzzTest, OversizedIdentifierRejectedBeforeUse) {
  std::string wire;
  EncodeEventFrame(std::string(FrameLimits::kMaxId + 1, 'a'), "s",
                   MakeEvent(0), &wire);
  FrameDecoder decoder;
  decoder.Feed(wire);
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().ToString().find("tenant id exceeds"),
            std::string::npos)
      << next.status().ToString();
}

TEST(FrameCodecFuzzTest, PoisonIsSticky) {
  std::string bad = "NOPE";
  bad.resize(10, '\x00');
  std::string good;
  EncodeEndFrame("t", "s", &good);

  FrameDecoder decoder;
  decoder.Feed(bad);
  auto first = decoder.Next();
  ASSERT_FALSE(first.ok());
  const std::string message = first.status().ToString();

  // A poisoned decoder never resyncs: further feeds are ignored and every
  // call repeats the original diagnostic (resyncing a length-prefixed
  // stream would risk attributing bytes to the wrong session).
  decoder.Feed(good);
  auto second = decoder.Next();
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().ToString(), message);
  EXPECT_EQ(decoder.Finish().ToString(), message);
  EXPECT_EQ(decoder.frames_decoded(), 0u);
}

TEST(FrameCodecFuzzTest, ErrorsNameFrameIndexAndByteOffset) {
  // Enough valid frames before the garbage that the error lands past the
  // first compaction of every read size below.
  constexpr size_t kValid = 3000;
  std::string wire;
  for (size_t i = 0; i < kValid; ++i) {
    EncodeEventFrame("t", "s" + std::to_string(i), MakeEvent(1), &wire);
  }
  const size_t valid_size = wire.size();
  ASSERT_GT(valid_size, 2u * 65536);
  wire += "GARBAGE_HEADER";

  // Every read size reaches the same verdict: the same frames before the
  // error, the same consumed-byte count, and a diagnostic naming the same
  // frame index and byte offset, which Finish repeats.
  std::string diagnostic = "frame " + std::to_string(kValid);
  diagnostic += " at byte offset " + std::to_string(valid_size) + ": bad magic";
  for (const size_t chunk : ChunkSizes(wire)) {
    const ChunkedDecode decoded = DecodeInChunks(wire, chunk);
    EXPECT_EQ(decoded.frames.size(), kValid) << "chunk " << chunk;
    EXPECT_EQ(decoded.frames_decoded, kValid) << "chunk " << chunk;
    EXPECT_EQ(decoded.bytes_consumed, valid_size) << "chunk " << chunk;
    EXPECT_NE(decoded.error.find(diagnostic), std::string::npos)
        << "chunk " << chunk << ": " << decoded.error;
    EXPECT_EQ(decoded.finish, decoded.error) << "chunk " << chunk;
  }
}

TEST(FrameCodecFuzzTest, RandomByteSoupNeverCrashes) {
  util::Rng rng(0xADF0);
  for (int round = 0; round < 200; ++round) {
    const size_t size = rng.UniformU64(512);
    std::string soup;
    soup.reserve(size);
    for (size_t i = 0; i < size; ++i) {
      soup.push_back(static_cast<char>(rng.UniformU64(256)));
    }
    FrameDecoder decoder;
    size_t fed = 0;
    while (fed < soup.size() && !decoder.poisoned()) {
      const size_t chunk =
          1 + rng.UniformU64(std::min<uint64_t>(64, soup.size() - fed));
      decoder.Feed(std::string_view(soup.data() + fed, chunk));
      fed += chunk;
      while (true) {
        auto next = decoder.Next();
        if (!next.ok() || !next->has_value()) break;
      }
    }
    (void)decoder.Finish();  // must not crash either way
  }
}

TEST(FrameCodecFuzzTest, SingleByteMutationsFailClosedOrStayConsistent) {
  std::string wire;
  for (int i = 0; i < 3; ++i) {
    EncodeEventFrame("tenant", "session-" + std::to_string(i), MakeEvent(i),
                     &wire);
  }
  EncodeEndFrame("tenant", "session-0", &wire);

  util::Rng rng(0xBEEF);
  for (size_t offset = 0; offset < wire.size(); ++offset) {
    std::string mutated = wire;
    const char flip =
        static_cast<char>(1 + rng.UniformU64(255));  // guaranteed change
    mutated[offset] = static_cast<char>(mutated[offset] ^ flip);
    FrameDecoder decoder;
    decoder.Feed(mutated);
    size_t decoded = 0;
    while (true) {
      auto next = decoder.Next();
      if (!next.ok() || !next->has_value()) break;
      // Whatever still parses must carry well-formed fields.
      EXPECT_TRUE((*next)->type == FrameType::kEvent ||
                  (*next)->type == FrameType::kEndSession);
      ++decoded;
    }
    EXPECT_LE(decoded, 4u) << "offset " << offset;
  }
}

}  // namespace
}  // namespace adprom::runtime
