#include "protocol/channel.h"

#include <gtest/gtest.h>

namespace vkey::protocol {
namespace {

Message msg(MessageType type, std::uint64_t nonce) {
  Message m;
  m.type = type;
  m.session_id = 1;
  m.nonce = nonce;
  return m;
}

TEST(PublicChannel, TranscriptRecordsEverything) {
  PublicChannel ch;
  EXPECT_EQ(ch.transmit(msg(MessageType::kKeyGenRequest, 1))->nonce, 1u);
  EXPECT_EQ(ch.transmit(msg(MessageType::kSyndrome, 2))->nonce, 2u);
  ASSERT_EQ(ch.transcript().size(), 2u);
  EXPECT_EQ(ch.transcript()[1].type, MessageType::kSyndrome);
}

TEST(PublicChannel, InterceptorCanModify) {
  PublicChannel ch;
  ch.set_interceptor([](const Message& m) {
    Message t = m;
    t.nonce = 99;
    return t;
  });
  EXPECT_EQ(ch.transmit(msg(MessageType::kData, 1))->nonce, 99u);
  // The transcript keeps the original.
  EXPECT_EQ(ch.transcript()[0].nonce, 1u);
}

TEST(PublicChannel, InterceptorCanDrop) {
  PublicChannel ch;
  ch.set_interceptor([](const Message&) { return std::nullopt; });
  EXPECT_FALSE(ch.transmit(msg(MessageType::kData, 1)).has_value());
  EXPECT_EQ(ch.transcript().size(), 1u);
}

TEST(PublicChannel, ClearInterceptor) {
  PublicChannel ch;
  ch.set_interceptor([](const Message&) { return std::nullopt; });
  ch.set_interceptor(nullptr);
  const auto delivered = ch.transmit(msg(MessageType::kData, 1));
  ASSERT_TRUE(delivered.has_value());
  EXPECT_EQ(*delivered, msg(MessageType::kData, 1));
}

}  // namespace
}  // namespace vkey::protocol
