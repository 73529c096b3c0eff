// Versioned byte-level wire framing for the Vehicle-Key protocol.
//
// Everything above this layer trades in `Message` structs; everything the
// radio actually carries is a packed, versioned binary frame (v2):
//
//   size   field
//   1      version<<4 | type  kWireVersion in the high nibble, MessageType
//                             (1..kMaxMessageType) in the low one
//   1      mac_len            u8, <= kMaxMacBytes
//   1..10  session_id         canonical LEB128 u64
//   1..10  nonce              canonical LEB128 u64
//   n      payload            n implied: frame - header - mac_len - 4
//   m      mac                mac_len bytes
//   4      crc32              IEEE CRC-32 over everything before it, BE
//
// The header is 4 bytes at its smallest and kMaxHeaderBytes (22) at its
// largest. A LEB128 varint carries 7 bits per byte, least significant group
// first, the top bit set on every byte but the last; canonical means the
// shortest form, so every value has exactly one encoding and re-encoding an
// accepted frame reproduces it. No length field is sent for the payload:
// the frame's own length, which the radio delivers, fixes it. The CRC
// covers the whole frame including the header, so a flipped version or
// length byte is caught exactly like flipped payload — corruption cannot
// silently downgrade a frame. The MAC carried *inside* the frame is the
// protocol layer's cryptographic integrity (session.h / key_schedule.h); it
// covers mac_header() (message.h), which does not depend on this encoding.
// The CRC is the radio-grade integrity that lets the link discard line
// noise cheaply.
//
// Decoding is defensive and zero-copy: a bounded FrameReader walks the
// buffer, every length is validated against both policy bounds and the
// actual buffer before anything is copied, and every rejection is a typed
// WireError. decode_frame() also counts each rejection in the metrics
// registry ("wire.reject.<reason>"), so a bench or vkey_sim --metrics can
// report exactly why frames died on the wire. Version negotiation is
// deliberately absent: v2 speaks v2 and rejects everything else
// (kBadVersion; a v1 frame's first byte, 0x56, reads as version 5), which
// is what makes downgrade attacks a parse error instead of a protocol
// state.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "protocol/message.h"

namespace vkey::protocol::wire {

inline constexpr std::uint8_t kWireVersion = 2;
/// The header bytes ahead of the varints: version|type and mac_len.
inline constexpr std::size_t kFixedHeaderBytes = 2;
/// Longest canonical LEB128 form of a u64: ceil(64 / 7) bytes.
inline constexpr std::size_t kMaxVarintBytes = 10;
/// The widest header: session id and nonce at ten bytes each.
inline constexpr std::size_t kMaxHeaderBytes =
    kFixedHeaderBytes + 2 * kMaxVarintBytes;
inline constexpr std::size_t kCrcBytes = 4;
/// Smallest structurally valid frame: one-byte session id and nonce, empty
/// payload and MAC, CRC.
inline constexpr std::size_t kMinFrameBytes = kFixedHeaderBytes + 2 + kCrcBytes;

/// Why a frame was rejected. Ordering mirrors the validation pipeline:
/// structural checks first (truncation, version, MAC length, varint form,
/// implied payload length), then the CRC, then semantic checks (type) — so
/// a frame is diagnosed by the *first* gate it fails, deterministically.
enum class WireError : std::uint8_t {
  kNone,
  kTruncated,         ///< shorter than the smallest frame, or than its
                      ///< header + mac_len + CRC
  kBadVersion,        ///< unknown or downgraded protocol version
  kOversizedMac,      ///< mac_len exceeds kMaxMacBytes
  kBadVarint,         ///< session id or nonce is not a canonical LEB128 u64
                      ///< that ends before the MAC and CRC
  kOversizedPayload,  ///< implied payload exceeds kMaxPayloadBytes
  kBadCrc,            ///< CRC32 mismatch (line noise)
  kBadType,           ///< CRC-valid frame with an unknown MessageType
};

/// Short name for logs, metrics suffixes and the flight recorder
/// ("truncated", "version", "mac-len", "varint", "payload-len", "crc",
/// "type").
std::string to_string(WireError e);

/// IEEE 802.3 CRC-32 (reflected, poly 0xEDB88320), the same polynomial the
/// LoRa PHY uses for its payload CRC.
std::uint32_t crc32(std::span<const std::uint8_t> bytes);

/// Bounded big-endian reader over a borrowed buffer. Every read checks the
/// remaining length and fails by returning false / nullopt — the reader
/// never advances past the end and never touches bytes it was not given.
/// This is the only sanctioned way to parse wire bytes (vkey_lint's
/// bounded-reader rule forbids raw pointer parsing outside this file).
class FrameReader {
 public:
  explicit FrameReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  bool read_u8(std::uint8_t& v);
  bool read_u32(std::uint32_t& v);
  bool read_u64(std::uint64_t& v);
  /// Read one canonical LEB128 u64. Fails, consuming nothing, on a form
  /// that does not end inside the buffer, runs past kMaxVarintBytes, holds
  /// more than 64 bits (a tenth byte above 1) or is overlong (a last byte of
  /// zero after the first).
  bool read_varint(std::uint64_t& v);
  /// Borrow the next `n` bytes without copying; nullopt when fewer remain.
  std::optional<std::span<const std::uint8_t>> read_bytes(std::size_t n);

  std::size_t consumed() const noexcept { return off_; }
  std::size_t remaining() const noexcept { return bytes_.size() - off_; }

 private:
  std::span<const std::uint8_t> bytes_;
  std::size_t off_ = 0;
};

/// Big-endian frame builder over a caller's buffer, sized to the frame
/// beforehand (frame_size()); finish() stamps the CRC over everything
/// written. Writing past the buffer's end throws vkey::Error.
class FrameWriter {
 public:
  explicit FrameWriter(std::span<std::uint8_t> out) : out_(out) {}

  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  /// Write `v` as canonical LEB128: varint_size(v) bytes.
  void put_varint(std::uint64_t v);
  void put_bytes(std::span<const std::uint8_t> bytes);

  /// Write crc32(everything written so far).
  void finish() &&;

 private:
  /// The next `n` bytes of the buffer, checked to exist.
  std::span<std::uint8_t> take(std::size_t n);

  std::span<std::uint8_t> out_;
  std::size_t off_ = 0;
};

/// Bytes of the canonical LEB128 form of `v`: one per started 7-bit group,
/// at least one.
constexpr std::size_t varint_size(std::uint64_t v) {
  std::size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

/// Frame bytes kept inline: every frame whose payload a Message keeps
/// inline, with the largest header and MAC the wire allows.
inline constexpr std::size_t kInlineFrameBytes =
    kMaxHeaderBytes + kInlinePayloadBytes + kMaxMacBytes + kCrcBytes;
/// An encoded frame, held inline up to kInlineFrameBytes.
using FrameBytes = SmallBuffer<std::uint8_t, kInlineFrameBytes>;

/// Exact on-air size of `msg` framed: header (with its two varints) +
/// payload + mac + CRC. (Computed without encoding; used for airtime math
/// on the hot path.)
std::size_t frame_size(const Message& msg);

/// Pack a Message into a v2 frame and count it in "wire.encoded". Throws
/// vkey::Error when the message violates the wire bounds (a type outside
/// [1, kMaxMessageType], an oversized payload or MAC) — an honest sender
/// never does.
FrameBytes encode_frame(const Message& msg);

/// Parse a frame. On failure returns nullopt, stores the typed reason in
/// *error (when non-null) and bumps the matching "wire.reject.<reason>"
/// counter. Accepted frames bump "wire.decoded"; re-encoding an accepted
/// frame reproduces the input byte-for-byte.
std::optional<Message> decode_frame(std::span<const std::uint8_t> bytes,
                                    WireError* error = nullptr);

/// Eagerly register every wire.* instrument so metric snapshots carry the
/// full reject taxonomy (at zero) even for runs that never reject a frame —
/// snapshot *structure* must not depend on what faults happened to fire.
void register_wire_metrics();

}  // namespace vkey::protocol::wire
