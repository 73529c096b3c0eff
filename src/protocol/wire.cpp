#include "protocol/wire.h"

#include <algorithm>
#include <array>

#include "common/error.h"
#include "common/metrics.h"

namespace vkey::protocol::wire {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

/// wire.reject.<reason>: one cached handle per reason, so a reject builds
/// no name.
metrics::Counter& reject_counter(WireError e) {
  VKEY_REQUIRE(e != WireError::kNone, "kNone is not a reject reason");
  switch (e) {
    case WireError::kTruncated:
      return metrics::counter<"wire.reject.truncated">();
    case WireError::kBadMagic: return metrics::counter<"wire.reject.magic">();
    case WireError::kBadVersion:
      return metrics::counter<"wire.reject.version">();
    case WireError::kOversizedPayload:
      return metrics::counter<"wire.reject.payload-len">();
    case WireError::kOversizedMac:
      return metrics::counter<"wire.reject.mac-len">();
    case WireError::kTrailingBytes:
      return metrics::counter<"wire.reject.trailing">();
    case WireError::kBadCrc: return metrics::counter<"wire.reject.crc">();
    case WireError::kNone:  // refused above
    case WireError::kBadType: break;
  }
  return metrics::counter<"wire.reject.type">();
}

/// Validate `bytes` as one v1 frame and, only when every gate passes,
/// write it into `out`. Counts nothing: decode_frame() does.
WireError parse_frame(std::span<const std::uint8_t> bytes, Message& out) {
  FrameReader r(bytes);

  // Structural gates, cheapest first. A buffer shorter than the fixed
  // header cannot even be classified further.
  std::uint16_t magic = 0;
  std::uint8_t version = 0;
  std::uint16_t payload_len = 0;
  std::uint8_t mac_len = 0;
  std::uint8_t type = 0;
  std::uint64_t session = 0;
  std::uint64_t nonce = 0;
  if (!r.read_u16(magic) || !r.read_u8(version) || !r.read_u16(payload_len) ||
      !r.read_u8(mac_len) || !r.read_u8(type) || !r.read_u64(session) ||
      !r.read_u64(nonce)) {
    return WireError::kTruncated;
  }
  if (magic != kMagic) return WireError::kBadMagic;
  if (version != kWireVersion) return WireError::kBadVersion;
  if (payload_len > kMaxPayloadBytes) return WireError::kOversizedPayload;
  if (mac_len > kMaxMacBytes) return WireError::kOversizedMac;

  const std::size_t want =
      static_cast<std::size_t>(payload_len) + mac_len + kCrcBytes;
  if (r.remaining() < want) return WireError::kTruncated;
  if (r.remaining() > want) return WireError::kTrailingBytes;

  const auto payload = r.read_bytes(payload_len);
  const auto mac = r.read_bytes(mac_len);
  std::uint32_t stored_crc = 0;
  const bool crc_ok = r.read_u32(stored_crc);
  VKEY_REQUIRE(payload.has_value() && mac.has_value() && crc_ok,
               "bounded reader out of sync with the length checks");
  if (crc32(bytes.first(bytes.size() - kCrcBytes)) != stored_crc) {
    return WireError::kBadCrc;
  }

  // Semantic gate last: the frame is structurally sound and CRC-clean, so a
  // bad type here is a protocol-level forgery, not line noise.
  if (type < 1 || type > kMaxMessageType) return WireError::kBadType;

  out.type = static_cast<MessageType>(type);
  out.session_id = session;
  out.nonce = nonce;
  out.payload.assign(*payload);
  out.mac.assign(*mac);
  return WireError::kNone;
}

}  // namespace

std::string to_string(WireError e) {
  switch (e) {
    case WireError::kNone: return "none";
    case WireError::kTruncated: return "truncated";
    case WireError::kBadMagic: return "magic";
    case WireError::kBadVersion: return "version";
    case WireError::kOversizedPayload: return "payload-len";
    case WireError::kOversizedMac: return "mac-len";
    case WireError::kTrailingBytes: return "trailing";
    case WireError::kBadCrc: return "crc";
    case WireError::kBadType: return "type";
  }
  return "?";
}

std::uint32_t crc32(std::span<const std::uint8_t> bytes) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = 0xFFFFFFFFu;
  for (const std::uint8_t b : bytes) {
    c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// ---------------------------------------------------------------- FrameReader

bool FrameReader::read_u8(std::uint8_t& v) {
  if (remaining() < 1) return false;
  v = bytes_[off_++];
  return true;
}

bool FrameReader::read_u16(std::uint16_t& v) {
  if (remaining() < 2) return false;
  v = static_cast<std::uint16_t>((bytes_[off_] << 8) | bytes_[off_ + 1]);
  off_ += 2;
  return true;
}

bool FrameReader::read_u32(std::uint32_t& v) {
  if (remaining() < 4) return false;
  v = 0;
  for (int i = 0; i < 4; ++i) v = (v << 8) | bytes_[off_++];
  return true;
}

bool FrameReader::read_u64(std::uint64_t& v) {
  if (remaining() < 8) return false;
  v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | bytes_[off_++];
  return true;
}

std::optional<std::span<const std::uint8_t>> FrameReader::read_bytes(
    std::size_t n) {
  if (remaining() < n) return std::nullopt;
  auto view = bytes_.subspan(off_, n);
  off_ += n;
  return view;
}

// ---------------------------------------------------------------- FrameWriter

std::span<std::uint8_t> FrameWriter::take(std::size_t n) {
  VKEY_REQUIRE(out_.size() - off_ >= n, "frame overruns its buffer");
  const auto room = out_.subspan(off_, n);
  off_ += n;
  return room;
}

void FrameWriter::put_u8(std::uint8_t v) { take(1)[0] = v; }

void FrameWriter::put_u16(std::uint16_t v) {
  const auto room = take(2);
  room[0] = static_cast<std::uint8_t>(v >> 8);
  room[1] = static_cast<std::uint8_t>(v);
}

void FrameWriter::put_u32(std::uint32_t v) {
  const auto room = take(4);
  for (std::size_t i = 0; i < 4; ++i) {
    room[i] = static_cast<std::uint8_t>(v >> (8 * (3 - i)));
  }
}

void FrameWriter::put_u64(std::uint64_t v) {
  const auto room = take(8);
  for (std::size_t i = 0; i < 8; ++i) {
    room[i] = static_cast<std::uint8_t>(v >> (8 * (7 - i)));
  }
}

void FrameWriter::put_bytes(std::span<const std::uint8_t> bytes) {
  std::copy(bytes.begin(), bytes.end(), take(bytes.size()).begin());
}

void FrameWriter::finish() && { put_u32(crc32(out_.first(off_))); }

// --------------------------------------------------------------- encode/decode

std::size_t frame_size(const Message& msg) {
  return kMinFrameBytes + msg.payload.size() + msg.mac.size();
}

FrameBytes encode_frame(const Message& msg) {
  VKEY_REQUIRE(msg.payload.size() <= kMaxPayloadBytes,
               "payload exceeds the wire bound");
  VKEY_REQUIRE(msg.mac.size() <= kMaxMacBytes, "MAC exceeds the wire bound");
  FrameBytes out(frame_size(msg));
  FrameWriter w(out);
  w.put_u16(kMagic);
  w.put_u8(kWireVersion);
  w.put_u16(static_cast<std::uint16_t>(msg.payload.size()));
  w.put_u8(static_cast<std::uint8_t>(msg.mac.size()));
  w.put_u8(static_cast<std::uint8_t>(msg.type));
  w.put_u64(msg.session_id);
  w.put_u64(msg.nonce);
  w.put_bytes(msg.payload);
  w.put_bytes(msg.mac);
  std::move(w).finish();
  metrics::counter<"wire.encoded">().add(1);
  return out;
}

std::optional<Message> decode_frame(std::span<const std::uint8_t> bytes,
                                    WireError* error) {
  Message msg;
  const WireError e = parse_frame(bytes, msg);
  if (error != nullptr) *error = e;
  if (e != WireError::kNone) {
    reject_counter(e).add(1);
    return std::nullopt;
  }
  metrics::counter<"wire.decoded">().add(1);
  return msg;
}

void register_wire_metrics() {
  auto& reg = metrics::Registry::global();
  reg.counter("wire.encoded");
  reg.counter("wire.decoded");
  for (const WireError e :
       {WireError::kTruncated, WireError::kBadMagic, WireError::kBadVersion,
        WireError::kOversizedPayload, WireError::kOversizedMac,
        WireError::kTrailingBytes, WireError::kBadCrc, WireError::kBadType}) {
    reject_counter(e);
  }
}

}  // namespace vkey::protocol::wire
