#include "runtime/frame_codec.h"

#include <cstring>
#include <utility>

namespace adprom::runtime {

namespace {

constexpr char kMagic[4] = {'A', 'D', 'P', 'F'};
constexpr uint8_t kVersion = 1;
constexpr size_t kHeaderSize = 10;

void PutU16(uint16_t value, std::string* out) {
  out->push_back(static_cast<char>(value & 0xff));
  out->push_back(static_cast<char>((value >> 8) & 0xff));
}

void PutU32(uint32_t value, std::string* out) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xff));
  }
}

void PutI32(int32_t value, std::string* out) {
  PutU32(static_cast<uint32_t>(value), out);
}

void PutString16(const std::string& text, std::string* out) {
  PutU16(static_cast<uint16_t>(text.size()), out);
  out->append(text);
}

void PutString32(const std::string& text, std::string* out) {
  PutU32(static_cast<uint32_t>(text.size()), out);
  out->append(text);
}

void PutHeader(FrameType type, size_t payload_len, std::string* out) {
  out->append(kMagic, sizeof(kMagic));
  out->push_back(static_cast<char>(kVersion));
  out->push_back(static_cast<char>(type));
  PutU32(static_cast<uint32_t>(payload_len), out);
}

/// Bounds-checked little-endian cursor over one frame payload.
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view payload) : payload_(payload) {}

  bool ReadU8(uint8_t* out) {
    if (pos_ + 1 > payload_.size()) return false;
    *out = static_cast<uint8_t>(payload_[pos_++]);
    return true;
  }

  bool ReadU16(uint16_t* out) {
    if (pos_ + 2 > payload_.size()) return false;
    *out = static_cast<uint16_t>(
        static_cast<uint8_t>(payload_[pos_]) |
        (static_cast<uint16_t>(static_cast<uint8_t>(payload_[pos_ + 1]))
         << 8));
    pos_ += 2;
    return true;
  }

  bool ReadU32(uint32_t* out) {
    if (pos_ + 4 > payload_.size()) return false;
    uint32_t value = 0;
    for (int i = 3; i >= 0; --i) {
      value = (value << 8) |
              static_cast<uint8_t>(payload_[pos_ + static_cast<size_t>(i)]);
    }
    pos_ += 4;
    *out = value;
    return true;
  }

  bool ReadI32(int32_t* out) {
    uint32_t raw = 0;
    if (!ReadU32(&raw)) return false;
    std::memcpy(out, &raw, sizeof(raw));
    return true;
  }

  bool ReadBytes(size_t len, std::string* out) {
    if (pos_ + len > payload_.size()) return false;
    out->assign(payload_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  size_t remaining() const { return payload_.size() - pos_; }
  size_t pos() const { return pos_; }

 private:
  std::string_view payload_;
  size_t pos_ = 0;
};

}  // namespace

void EncodeEventFrame(const std::string& tenant, const std::string& session,
                      const CallEvent& event, std::string* out) {
  std::string payload;
  PutString16(tenant, &payload);
  PutString16(session, &payload);
  PutI32(event.block_id, &payload);
  PutI32(event.call_site_id, &payload);
  payload.push_back(event.td_output ? '\x01' : '\x00');
  PutString32(event.callee, &payload);
  PutString32(event.caller, &payload);
  PutString32(event.query_signature, &payload);
  PutU16(static_cast<uint16_t>(event.source_tables.size()), &payload);
  for (const std::string& table : event.source_tables) {
    PutString32(table, &payload);
  }
  PutHeader(FrameType::kEvent, payload.size(), out);
  out->append(payload);
}

void EncodeEndFrame(const std::string& tenant, const std::string& session,
                    std::string* out) {
  std::string payload;
  PutString16(tenant, &payload);
  PutString16(session, &payload);
  PutHeader(FrameType::kEndSession, payload.size(), out);
  out->append(payload);
}

void FrameDecoder::Feed(std::string_view bytes) {
  if (poisoned()) return;
  // Compact once per read: drop the frames Next() already consumed, so
  // only a partial frame's bytes move, however many frames the read held.
  buffer_.erase(0, read_pos_);
  read_pos_ = 0;
  buffer_.append(bytes.data(), bytes.size());
}

util::Status FrameDecoder::Poison(const std::string& message) {
  status_ = util::Status::InvalidArgument(
      "frame " + std::to_string(frames_decoded_) + " at byte offset " +
      std::to_string(bytes_consumed_) + ": " + message);
  buffer_.clear();
  read_pos_ = 0;
  return status_;
}

util::Result<Frame> FrameDecoder::ParsePayload(FrameType type,
                                               std::string_view payload) {
  PayloadReader reader(payload);
  Frame frame;
  frame.type = type;
  uint16_t tenant_len = 0;
  uint16_t session_len = 0;
  if (!reader.ReadU16(&tenant_len)) return Poison("truncated tenant id");
  if (tenant_len > FrameLimits::kMaxId) {
    return Poison("tenant id exceeds " +
                  std::to_string(FrameLimits::kMaxId) + " bytes");
  }
  if (!reader.ReadBytes(tenant_len, &frame.tenant)) {
    return Poison("truncated tenant id");
  }
  if (!reader.ReadU16(&session_len)) return Poison("truncated session key");
  if (session_len > FrameLimits::kMaxId) {
    return Poison("session key exceeds " +
                  std::to_string(FrameLimits::kMaxId) + " bytes");
  }
  if (!reader.ReadBytes(session_len, &frame.session)) {
    return Poison("truncated session key");
  }
  if (type == FrameType::kEvent) {
    if (!reader.ReadI32(&frame.event.block_id) ||
        !reader.ReadI32(&frame.event.call_site_id)) {
      return Poison("truncated block/call-site ids");
    }
    uint8_t td = 0;
    if (!reader.ReadU8(&td)) return Poison("truncated td_output flag");
    if (td > 1) {
      return Poison("td_output flag must be 0 or 1, got " +
                    std::to_string(td));
    }
    frame.event.td_output = td == 1;
    uint32_t len = 0;
    if (!reader.ReadU32(&len) || !reader.ReadBytes(len, &frame.event.callee)) {
      return Poison("truncated callee");
    }
    if (!reader.ReadU32(&len) || !reader.ReadBytes(len, &frame.event.caller)) {
      return Poison("truncated caller");
    }
    if (!reader.ReadU32(&len) ||
        !reader.ReadBytes(len, &frame.event.query_signature)) {
      return Poison("truncated query signature");
    }
    uint16_t num_tables = 0;
    if (!reader.ReadU16(&num_tables)) {
      return Poison("truncated source-table count");
    }
    frame.event.source_tables.reserve(num_tables);
    for (uint16_t i = 0; i < num_tables; ++i) {
      std::string table;
      if (!reader.ReadU32(&len) || !reader.ReadBytes(len, &table)) {
        return Poison("truncated source table " + std::to_string(i));
      }
      frame.event.source_tables.push_back(std::move(table));
    }
  }
  if (reader.remaining() != 0) {
    return Poison(std::to_string(reader.remaining()) +
                  " trailing payload bytes after a complete frame body");
  }
  return frame;
}

util::Result<std::optional<Frame>> FrameDecoder::Next() {
  if (poisoned()) return status_;
  const std::string_view pending = std::string_view(buffer_).substr(read_pos_);
  if (pending.size() < kHeaderSize) return std::optional<Frame>();
  if (std::memcmp(pending.data(), kMagic, sizeof(kMagic)) != 0) {
    return Poison("bad magic (expected \"ADPF\")");
  }
  const uint8_t version = static_cast<uint8_t>(pending[4]);
  if (version != kVersion) {
    return Poison("unsupported protocol version " + std::to_string(version) +
                  " (this decoder speaks version " + std::to_string(kVersion) +
                  ")");
  }
  const uint8_t raw_type = static_cast<uint8_t>(pending[5]);
  if (raw_type != static_cast<uint8_t>(FrameType::kEvent) &&
      raw_type != static_cast<uint8_t>(FrameType::kEndSession)) {
    return Poison("unknown frame type " + std::to_string(raw_type));
  }
  uint32_t payload_len = 0;
  for (int i = 3; i >= 0; --i) {
    payload_len = (payload_len << 8) |
                  static_cast<uint8_t>(pending[6 + static_cast<size_t>(i)]);
  }
  if (payload_len > FrameLimits::kMaxPayload) {
    return Poison("payload length " + std::to_string(payload_len) +
                  " exceeds the " +
                  std::to_string(FrameLimits::kMaxPayload) + "-byte limit");
  }
  const size_t frame_size = kHeaderSize + payload_len;
  if (pending.size() < frame_size) return std::optional<Frame>();
  const std::string_view payload = pending.substr(kHeaderSize, payload_len);
  util::Result<Frame> frame =
      ParsePayload(static_cast<FrameType>(raw_type), payload);
  if (!frame.ok()) return frame.status();
  read_pos_ += frame_size;
  bytes_consumed_ += frame_size;
  ++frames_decoded_;
  return std::optional<Frame>(std::move(frame).value());
}

util::Status FrameDecoder::Finish() {
  if (poisoned()) return status_;
  if (read_pos_ < buffer_.size()) {
    return Poison("stream ends mid-frame with " +
                  std::to_string(buffer_.size() - read_pos_) +
                  " unconsumed bytes");
  }
  return util::Status::Ok();
}

}  // namespace adprom::runtime
