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

TEST(PublicChannel, InterceptorCanModify) {
  PublicChannel ch;
  ch.set_interceptor([](Message& m) {
    m.nonce = 99;
    return true;
  });
  Message in_flight = msg(MessageType::kData, 1);
  EXPECT_TRUE(ch.transmit(in_flight));
  EXPECT_EQ(in_flight.nonce, 99u);
}

TEST(PublicChannel, InterceptorCanDrop) {
  PublicChannel ch;
  ch.set_interceptor([](Message&) { return false; });
  Message in_flight = msg(MessageType::kData, 1);
  EXPECT_FALSE(ch.transmit(in_flight));
}

TEST(PublicChannel, ClearInterceptor) {
  PublicChannel ch;
  ch.set_interceptor([](Message&) { return false; });
  ch.set_interceptor(nullptr);
  Message in_flight = msg(MessageType::kData, 1);
  ASSERT_TRUE(ch.transmit(in_flight));
  EXPECT_EQ(in_flight, msg(MessageType::kData, 1));
}

}  // namespace
}  // namespace vkey::protocol
