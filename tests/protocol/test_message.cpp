#include "protocol/message.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "protocol/wire.h"

namespace vkey::protocol {
namespace {

Message sample_message() {
  Message m;
  m.type = MessageType::kSyndrome;
  m.session_id = 0x1122334455667788ULL;
  m.nonce = 42;
  m.payload = {1, 2, 3, 4, 5};
  m.mac = {9, 8, 7};
  return m;
}

TEST(Message, MacInputExcludesMac) {
  Message a = sample_message();
  Message b = a;
  b.mac = {0xde, 0xad};
  EXPECT_EQ(mac_header(a), mac_header(b));
  const std::vector<std::uint8_t> key = {7, 7, 7};
  EXPECT_EQ(frame_mac(key, a), frame_mac(key, b));
  b.nonce += 1;
  EXPECT_NE(mac_header(a), mac_header(b));
  EXPECT_NE(frame_mac(key, a), frame_mac(key, b));
}

TEST(Message, AcceptsTheMaximumBoundedSizes) {
  Message m;
  m.type = MessageType::kData;
  m.session_id = 1;
  m.nonce = 2;
  m.payload.assign(kMaxPayloadBytes, 0x5a);
  m.mac.assign(kMaxMacBytes, 0xa5);
  wire::WireError err = wire::WireError::kNone;
  const auto back = wire::decode_frame(wire::encode_frame(m), &err);
  ASSERT_TRUE(back.has_value()) << wire::to_string(err);
  EXPECT_EQ(*back, m);
}

TEST(Message, PackUnpackDoubles) {
  const std::vector<double> v{1.5, -2.25, 3.125, 0.0};
  EXPECT_EQ(unpack_doubles(pack_doubles(v)), v);
}

TEST(Message, UnpackRejectsMisaligned) {
  EXPECT_THROW(unpack_doubles(std::vector<std::uint8_t>(7)), vkey::Error);
}

}  // namespace
}  // namespace vkey::protocol
