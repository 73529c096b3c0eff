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
  Message request = msg(MessageType::kKeyGenRequest, 1);
  Message syndrome = msg(MessageType::kSyndrome, 2);
  syndrome.payload = {1, 2, 3};
  syndrome.mac = {4, 5};
  EXPECT_TRUE(ch.transmit(request));
  EXPECT_TRUE(ch.transmit(syndrome));
  EXPECT_EQ(request.nonce, 1u);  // no interceptor: delivered as sent
  const auto transcript = ch.transcript();
  ASSERT_EQ(transcript.size(), 2u);
  EXPECT_EQ(transcript[0], request);
  EXPECT_EQ(transcript[1], syndrome);
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
  // The transcript keeps the original.
  EXPECT_EQ(ch.transcript()[0].nonce, 1u);
}

TEST(PublicChannel, InterceptorCanDrop) {
  PublicChannel ch;
  ch.set_interceptor([](Message&) { return false; });
  Message in_flight = msg(MessageType::kData, 1);
  EXPECT_FALSE(ch.transmit(in_flight));
  EXPECT_EQ(ch.transcript().size(), 1u);
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
