#include "protocol/message.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/reconciler.h"
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
  // An 8 KiB payload is the one that leaves the frame for a heap block;
  // the largest MAC still fits inline.
  EXPECT_FALSE(back->payload.is_inline());
  EXPECT_TRUE(back->mac.is_inline());
}

// The syndrome's payload bytes are the syndrome code's; these two check
// them as a message carries them.
TEST(Message, SyndromeCellsCrossTheWire) {
  const core::SyndromeCode rec(64, 5);
  vkey::Rng rng(3);
  const BitVec kb = random_bits(64, rng);
  const BitVec ka = random_bits(64, rng);
  Message m = sample_message();
  m.payload.resize(core::kSyndromeBytes);
  rec.syndrome(kb, m.payload);
  ASSERT_EQ(m.payload.size(), core::kCodeDim);  // one byte per cell
  wire::WireError err = wire::WireError::kNone;
  const auto back = wire::decode_frame(wire::encode_frame(m), &err);
  ASSERT_TRUE(back.has_value()) << wire::to_string(err);
  EXPECT_EQ(back->payload, m.payload);
  const std::optional<BitVec> fixed = rec.correct(ka, back->payload);
  ASSERT_TRUE(fixed.has_value());
  EXPECT_EQ(*fixed, rec.reconcile(ka, rec.encode_bob(kb)));
}

TEST(Message, CorrectRefusesAnyOtherPayloadLength) {
  const core::SyndromeCode rec(64, 5);
  vkey::Rng rng(4);
  const BitVec k = random_bits(64, rng);
  const std::size_t n = core::kSyndromeBytes;
  for (const std::size_t size : {std::size_t{7}, n - 1, n + 1}) {
    Message m = sample_message();
    m.payload.assign(size, 0x3c);
    const auto back = wire::decode_frame(wire::encode_frame(m));
    ASSERT_TRUE(back.has_value()) << size << " bytes";
    EXPECT_FALSE(rec.correct(k, back->payload).has_value()) << size
                                                            << " bytes";
  }
}

}  // namespace
}  // namespace vkey::protocol
