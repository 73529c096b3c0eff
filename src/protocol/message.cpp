#include "protocol/message.h"

#include "crypto/hmac.h"
#include "protocol/wire.h"

namespace vkey::protocol {

std::string to_string(MessageType t) {
  switch (t) {
    case MessageType::kKeyGenRequest: return "key-gen-request";
    case MessageType::kKeyGenAccept: return "key-gen-accept";
    case MessageType::kSyndrome: return "syndrome";
    case MessageType::kKeyConfirm: return "key-confirm";
    case MessageType::kKeyConfirmAck: return "key-confirm-ack";
    case MessageType::kData: return "data";
    case MessageType::kAck: return "ack";
  }
  return "?";
}

std::array<std::uint8_t, kMacHeaderBytes> mac_header(const Message& msg) {
  std::array<std::uint8_t, kMacHeaderBytes> out{};
  wire::FrameWriter w(out);
  w.put_u8(static_cast<std::uint8_t>(msg.type));
  w.put_u64(msg.session_id);
  w.put_u64(msg.nonce);
  w.put_u64(msg.payload.size());
  return out;
}

std::array<std::uint8_t, 32> frame_mac(std::span<const std::uint8_t> key,
                                       const Message& msg,
                                       std::span<const std::uint8_t> suffix) {
  const auto header = mac_header(msg);
  return crypto::hmac_sha256(key, {header, msg.payload, suffix});
}

}  // namespace vkey::protocol
