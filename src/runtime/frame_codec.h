#ifndef ADPROM_RUNTIME_FRAME_CODEC_H_
#define ADPROM_RUNTIME_FRAME_CODEC_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "runtime/call_event.h"
#include "util/status.h"

namespace adprom::runtime {

/// The binary wire protocol of the fleet node's event feed.
///
/// Every frame starts with a 10-byte header:
///
///   offset  size  field
///   0       4     magic "ADPF" (0x41 0x44 0x50 0x46)
///   4       1     version (currently 1)
///   5       1     frame type (1 = event, 2 = end-of-session)
///   6       4     payload length, uint32 little-endian
///
/// followed by exactly `payload length` payload bytes. All integers are
/// little-endian; all strings are length-prefixed, never NUL-terminated.
///
/// Event payload (type 1):
///   u16 tenant_len,  tenant bytes
///   u16 session_len, session-key bytes
///   i32 block_id
///   i32 call_site_id
///   u8  td_output (0 or 1, strictly)
///   u32 callee_len,  callee bytes
///   u32 caller_len,  caller bytes
///   u32 query_signature_len, bytes
///   u16 num_source_tables, then per table: u32 len, bytes
///
/// End-of-session payload (type 2):
///   u16 tenant_len,  tenant bytes
///   u16 session_len, session-key bytes
///
/// The payload must be consumed exactly: trailing bytes are an error.
/// Decoding is fail-closed — any malformed frame poisons the decoder
/// (length-prefixed streams cannot resync reliably after corruption, and
/// guessing would risk misattributing events across sessions).

/// Frame type tags on the wire.
enum class FrameType : uint8_t {
  kEvent = 1,
  kEndSession = 2,
};

/// One decoded frame: the routing identifiers plus, for event frames, the
/// event itself.
struct Frame {
  FrameType type = FrameType::kEvent;
  std::string tenant;
  std::string session;
  CallEvent event;  // meaningful only when type == kEvent
};

/// Hard limits the decoder enforces before allocating anything, so a
/// corrupt or hostile length field cannot request gigabytes.
struct FrameLimits {
  static constexpr size_t kMaxPayload = 1 << 20;  // 1 MiB per frame
  static constexpr size_t kMaxId = 4096;          // tenant / session key
};

/// Appends the binary encoding of an event frame to `out`.
void EncodeEventFrame(const std::string& tenant, const std::string& session,
                      const CallEvent& event, std::string* out);

/// Appends the binary encoding of an end-of-session frame to `out`.
void EncodeEndFrame(const std::string& tenant, const std::string& session,
                    std::string* out);

/// Incremental, fail-closed decoder for a stream of frames. Feed bytes in
/// arbitrary chunks (network reads, file blocks); Next() yields one frame
/// at a time:
///
///   decoder.Feed(chunk);
///   while (true) {
///     auto frame = decoder.Next();
///     if (!frame.ok()) { /* poisoned: report frame.status() and stop */ }
///     if (!frame->has_value()) break;  // need more bytes
///     Handle(**frame);
///   }
///
/// After the first error the decoder is poisoned: every further Next()
/// and Finish() returns the same error, and Feed() is ignored. Errors
/// carry the byte offset and frame index for diagnosis.
class FrameDecoder {
 public:
  /// Appends raw bytes to the internal buffer. No-op once poisoned.
  void Feed(std::string_view bytes);

  /// Decodes the next complete frame: a Frame when one is buffered,
  /// nullopt when more bytes are needed, or the poisoning error.
  util::Result<std::optional<Frame>> Next();

  /// Declares end-of-stream: fails if a partial frame is buffered
  /// (truncation must not pass silently). Idempotent on success.
  util::Status Finish();

  /// Total bytes consumed (accepted frames only — the poisoned tail is
  /// not counted), e.g. for throughput accounting.
  uint64_t bytes_consumed() const { return bytes_consumed_; }
  /// Frames successfully decoded so far.
  uint64_t frames_decoded() const { return frames_decoded_; }
  bool poisoned() const { return !status_.ok(); }

 private:
  /// Marks the stream bad and returns the error (with offset context).
  util::Status Poison(const std::string& message);
  /// Parses one complete frame's payload.
  util::Result<Frame> ParsePayload(FrameType type,
                                   std::string_view payload);

  /// Fed bytes; buffer_[read_pos_..] is not decoded yet. Next() only
  /// advances the cursor, and Feed() drops the decoded prefix once per
  /// read instead of erasing every frame from the front.
  std::string buffer_;
  size_t read_pos_ = 0;
  uint64_t bytes_consumed_ = 0;
  uint64_t frames_decoded_ = 0;
  util::Status status_ = util::Status::Ok();
};

}  // namespace adprom::runtime

#endif  // ADPROM_RUNTIME_FRAME_CODEC_H_
