#include "protocol/attacks.h"

#include <utility>

#include "common/error.h"
#include "protocol/message.h"

namespace vkey::protocol {

void record_transcript(PublicChannel& channel,
                       std::vector<Message>& transcript) {
  channel.set_interceptor([&transcript](Message& msg) {
    transcript.push_back(msg);
    return true;
  });
}

std::optional<Message> find_syndrome(std::span<const Message> transcript) {
  for (const Message& msg : transcript) {
    if (msg.type == MessageType::kSyndrome) return msg;
  }
  return std::nullopt;
}

BitVec eavesdrop_attack(const core::SyndromeCode& reconciler,
                        const BitVec& eve_key, const Message& syndrome) {
  VKEY_REQUIRE(syndrome.type == MessageType::kSyndrome,
               "message is not a syndrome");
  std::optional<BitVec> guess = reconciler.correct(eve_key, syndrome.payload);
  VKEY_REQUIRE(guess.has_value(), "malformed syndrome payload");
  return std::move(*guess);
}

void install_syndrome_tamper(PublicChannel& channel) {
  channel.set_interceptor([](Message& msg) {
    if (msg.type == MessageType::kSyndrome && !msg.payload.empty()) {
      msg.payload[msg.payload.size() / 2] ^= 0x80;
    }
    return true;
  });
}

}  // namespace vkey::protocol
