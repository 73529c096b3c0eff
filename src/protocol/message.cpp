#include "protocol/message.h"

#include <cstring>

#include "common/error.h"

namespace vkey::protocol {

namespace {

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>(v >> (56 - 8 * i)));
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

std::vector<std::uint8_t> mac_input(const Message& msg) {
  std::vector<std::uint8_t> out;
  out.push_back(static_cast<std::uint8_t>(msg.type));
  put_u64(out, msg.session_id);
  put_u64(out, msg.nonce);
  put_u64(out, msg.payload.size());
  out.insert(out.end(), msg.payload.begin(), msg.payload.end());
  return out;
}

// Both copies move whole, size-matched spans (out is sized from the input,
// and unpack checks the length first), so no offset is ever taken.
std::vector<std::uint8_t> pack_doubles(std::span<const double> values) {
  std::vector<std::uint8_t> out(values.size() * sizeof(double));
  std::memcpy(out.data(), values.data(), out.size());  // vkey-lint: allow(bounded-reader)
  return out;
}

std::vector<double> unpack_doubles(std::span<const std::uint8_t> bytes) {
  VKEY_REQUIRE(bytes.size() % sizeof(double) == 0,
               "payload is not a double vector");
  std::vector<double> out(bytes.size() / sizeof(double));
  std::memcpy(out.data(), bytes.data(), bytes.size());  // vkey-lint: allow(bounded-reader)
  return out;
}

}  // namespace vkey::protocol
