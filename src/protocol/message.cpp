#include "protocol/message.h"

#include "crypto/hmac.h"

namespace vkey::protocol {

namespace {

void put_u64(std::span<std::uint8_t, 8> out, std::uint64_t v) {
  for (std::size_t i = 0; i < 8; ++i) {
    out[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
  }
}

}  // namespace

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
  out[0] = static_cast<std::uint8_t>(msg.type);
  const std::span<std::uint8_t> rest = std::span(out).subspan(1);
  put_u64(rest.subspan<0, 8>(), msg.session_id);
  put_u64(rest.subspan<8, 8>(), msg.nonce);
  put_u64(rest.subspan<16, 8>(), msg.payload.size());
  return out;
}

std::array<std::uint8_t, 32> frame_mac(std::span<const std::uint8_t> key,
                                       const Message& msg,
                                       std::span<const std::uint8_t> suffix) {
  const auto header = mac_header(msg);
  return crypto::hmac_sha256(key, {header, msg.payload, suffix});
}

}  // namespace vkey::protocol
