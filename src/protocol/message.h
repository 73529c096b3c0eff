// Messages of the Vehicle-Key agreement protocol (Sec. IV-C): type, session
// id, nonce, payload and MAC. This header defines the logical message, the
// length bounds every parser enforces and the byte string a MAC covers (and
// the part-wise MAC over it); the one on-air encoding is the framed codec
// in protocol/wire.h. A syndrome's payload bytes are the reconciler's
// (core::SyndromeCode::syndrome and correct).
//
// Only reconciliation and confirmation need explicit messages (probing is
// radio-level and carried by the channel simulator). Every message carries a
// session id and a monotonically increasing nonce; syndrome and confirmation
// messages are authenticated with HMAC-SHA256 keyed by the (Bloom-mapped)
// key material, which is how the paper defeats man-in-the-middle
// modification (Sec. IV-C), while nonces + session ids defeat replay.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>

#include "common/small_buffer.h"
#include "crypto/secret_buffer.h"

namespace vkey::protocol {

enum class MessageType : std::uint8_t {
  kKeyGenRequest = 1,   ///< Alice -> Bob: start a session
  kKeyGenAccept = 2,    ///< Bob -> Alice: session accepted
  kSyndrome = 3,        ///< Bob -> Alice: y_Bob + MAC
  kKeyConfirm = 4,      ///< Alice -> Bob: hash commitment of the final key
  kKeyConfirmAck = 5,   ///< Bob -> Alice: confirmation verified
  kData = 6,            ///< AES-CTR protected payload
  kAck = 7,             ///< transport-level delivery acknowledgement (ARQ);
                        ///< nonce = the nonce of the frame being acked
};

/// Highest MessageType value a parser may accept; anything outside
/// [1, kMaxMessageType] is malformed.
inline constexpr std::uint8_t kMaxMessageType =
    static_cast<std::uint8_t>(MessageType::kAck);

/// Hard bounds the wire codec enforces on length fields *before* trusting
/// them. The largest honest agreement payload is the syndrome (one byte per
/// cell, 32 bytes); a data frame carries at most 196 (seal's limit); the
/// largest MAC is HMAC-SHA256 (32 bytes, bounded at 64 for agility).
/// Anything bigger is an attack or corruption, and must be rejected without
/// allocating.
inline constexpr std::size_t kMaxPayloadBytes = 8192;
inline constexpr std::size_t kMaxMacBytes = 64;

/// Payload bytes a Message keeps inline: every agreement payload (the
/// syndrome, the largest, is 32 bytes) and sealed data up to this size.
/// Only larger kData payloads take a heap block.
inline constexpr std::size_t kInlinePayloadBytes = 256;

/// Short wire name ("key-gen-request", "ack", ...) for logs and the
/// flight recorder.
std::string to_string(MessageType t);

/// One protocol message as the sessions see it; wire::encode_frame /
/// decode_frame carry it over the air. Payload and MAC live inside the
/// message (the MAC always, the payload up to kInlinePayloadBytes), so
/// building, copying or decoding an agreement frame allocates nothing.
struct Message {
  MessageType type = MessageType::kKeyGenRequest;
  std::uint64_t session_id = 0;
  std::uint64_t nonce = 0;
  SmallBuffer<std::uint8_t, kInlinePayloadBytes> payload;
  /// Empty when the type is unauthenticated; the wire bound keeps it
  /// inline.
  SmallBuffer<std::uint8_t, kMaxMacBytes> mac;

  bool operator==(const Message&) const = default;
};

/// The byte string a MAC covers is mac_header(msg) || payload: type |
/// be64 session | be64 nonce | be64 payload length | payload — everything
/// except the mac field itself. Deterministic, and independent of the wire
/// framing.
inline constexpr std::size_t kMacHeaderBytes = 25;
std::array<std::uint8_t, kMacHeaderBytes> mac_header(const Message& msg);

/// HMAC-SHA256 under `key` of mac_header(msg) || payload || `suffix`,
/// hashed part by part so the input is never assembled (the key schedule's
/// confirm tags append their role byte as `suffix`). The tag is public: it
/// rides the frame.
std::array<std::uint8_t, 32> frame_mac(
    std::span<const std::uint8_t> key, const Message& msg,
    std::span<const std::uint8_t> suffix = {});
/// frame_mac() under a managed secret key without exposing it at the call
/// site.
inline std::array<std::uint8_t, 32> frame_mac(
    const crypto::SecretBuffer& key, const Message& msg,
    std::span<const std::uint8_t> suffix = {}) {
  return frame_mac(key.expose(), msg, suffix);
}

}  // namespace vkey::protocol
