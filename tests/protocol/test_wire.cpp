#include "protocol/wire.h"

#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <vector>

#include "common/error.h"
#include "common/metrics.h"
#include "crypto/sha256.h"
#include "metrics_on.h"

namespace vkey::protocol::wire {
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

WireError decode_error(std::span<const std::uint8_t> bytes) {
  WireError err = WireError::kNone;
  EXPECT_FALSE(decode_frame(bytes, &err).has_value());
  return err;
}

/// Replace the trailing CRC with crc32 of everything before it, so a forged
/// header must die on a structural or semantic gate, not on line noise.
template <typename Bytes>
void restamp_crc(Bytes& bytes) {
  bytes.resize(bytes.size() - kCrcBytes);
  const std::uint32_t crc = crc32(bytes);
  for (const int shift : {24, 16, 8, 0}) {
    bytes.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
}

std::string hex(std::span<const std::uint8_t> bytes) {
  return crypto::to_hex(bytes.data(), bytes.size());
}

TEST(Crc32, MatchesTheIeeeCheckValue) {
  // The canonical check vector: CRC-32("123456789") = 0xCBF43926.
  const std::vector<std::uint8_t> check{'1', '2', '3', '4', '5',
                                        '6', '7', '8', '9'};
  EXPECT_EQ(crc32(check), 0xCBF43926u);
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0x00000000u);
}

TEST(FrameReaderTest, ReadsBigEndianAndStopsAtTheEnd) {
  const std::vector<std::uint8_t> buf{0x01, 0x02, 0x03, 0x04,
                                      0x05, 0x06, 0x07};
  FrameReader r(buf);
  std::uint32_t a = 0;
  ASSERT_TRUE(r.read_u32(a));
  EXPECT_EQ(a, 0x01020304u);
  EXPECT_EQ(r.consumed(), 4u);
  EXPECT_EQ(r.remaining(), 3u);
  // Three bytes left: a u32 must fail *without* consuming anything.
  ASSERT_FALSE(r.read_u32(a));
  EXPECT_EQ(r.remaining(), 3u);
  std::uint8_t c = 0;
  ASSERT_TRUE(r.read_u8(c));
  EXPECT_EQ(c, 0x05u);
  ASSERT_TRUE(r.read_u8(c));
  ASSERT_TRUE(r.read_u8(c));
  EXPECT_EQ(c, 0x07u);
  EXPECT_FALSE(r.read_u8(c));
}

TEST(FrameReaderTest, VarintsRoundTripAtEveryWidthBoundary) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (std::size_t width = 1; width <= kMaxVarintBytes; ++width) {
    // The largest value of each width and the smallest of the next.
    const std::uint64_t top = width == kMaxVarintBytes
                                  ? kMax
                                  : (std::uint64_t{1} << (7 * width)) - 1;
    for (const std::uint64_t v : {top, top + 1}) {
      if (v == 0 && top == kMax) continue;  // kMax + 1 wrapped
      std::array<std::uint8_t, kMaxVarintBytes> buf{};
      const auto room = std::span(buf).first(varint_size(v));
      FrameWriter(room).put_varint(v);
      FrameReader r(room);
      std::uint64_t back = 0;
      ASSERT_TRUE(r.read_varint(back)) << v;
      EXPECT_EQ(back, v);
      EXPECT_EQ(r.remaining(), 0u);
    }
    EXPECT_EQ(varint_size(top), width);
  }
  EXPECT_EQ(varint_size(0), 1u);
}

TEST(FrameReaderTest, MalformedVarintsFailWithoutConsuming) {
  const std::vector<std::vector<std::uint8_t>> bad{
      {0x80, 0x00},                     // overlong zero
      {0xFF, 0x80, 0x00},               // overlong 127
      {0x80, 0x80, 0x80, 0x80, 0x80,    // eleven bytes
       0x80, 0x80, 0x80, 0x80, 0x80, 0x00},
      {0xFF, 0xFF, 0xFF, 0xFF, 0xFF,    // tenth byte 2: bit 64 set
       0xFF, 0xFF, 0xFF, 0xFF, 0x02},
      {0x80, 0x80},                     // cut: no last byte
      {},
  };
  for (const auto& bytes : bad) {
    FrameReader r(bytes);
    std::uint64_t v = 7;
    EXPECT_FALSE(r.read_varint(v)) << hex(bytes);
    EXPECT_EQ(v, 7u);
    EXPECT_EQ(r.consumed(), 0u);
  }
}

TEST(FrameReaderTest, ReadBytesBorrowsWithoutCopying) {
  const std::vector<std::uint8_t> buf{10, 20, 30, 40};
  FrameReader r(buf);
  const auto span = r.read_bytes(3);
  ASSERT_TRUE(span.has_value());
  EXPECT_EQ(span->data(), buf.data());  // zero-copy: borrows the buffer
  EXPECT_FALSE(r.read_bytes(2).has_value());
  EXPECT_TRUE(r.read_bytes(1).has_value());
  EXPECT_TRUE(r.read_bytes(0).has_value());  // empty read always succeeds
}

TEST(Wire, EncodeDecodeRoundTripsEveryType) {
  // Every type with the sample shape, plus one message at exactly the
  // kMaxPayloadBytes / kMaxMacBytes bounds (the largest frame accepted).
  std::vector<Message> inputs;
  for (std::uint8_t t = 1; t <= kMaxMessageType; ++t) {
    Message m = sample_message();
    m.type = static_cast<MessageType>(t);
    inputs.push_back(m);
  }
  Message largest = sample_message();
  largest.type = MessageType::kData;
  largest.payload.assign(kMaxPayloadBytes, 0x5a);
  largest.mac.assign(kMaxMacBytes, 0xa5);
  inputs.push_back(largest);

  for (const Message& m : inputs) {
    const auto bytes = encode_frame(m);
    EXPECT_EQ(bytes.size(), frame_size(m));
    WireError err = WireError::kNone;
    const auto back = decode_frame(bytes, &err);
    ASSERT_TRUE(back.has_value()) << "type " << int(m.type) << " payload "
                                  << m.payload.size() << ": "
                                  << to_string(err);
    EXPECT_EQ(*back, m);
    // Re-encoding reproduces the frame byte-for-byte.
    EXPECT_EQ(encode_frame(*back), bytes);
  }
}

TEST(Wire, EmptyPayloadAndMacIsTheMinimumFrame) {
  // One-byte session id and nonce: the 4-byte header and the CRC.
  Message m;
  m.type = MessageType::kAck;
  m.session_id = 7;
  m.nonce = 9;
  const auto bytes = encode_frame(m);
  EXPECT_EQ(bytes.size(), kMinFrameBytes);
  EXPECT_EQ(bytes.size(), 8u);
  const auto back = decode_frame(bytes);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, m);
}

TEST(Wire, FrameLayoutIsTheDocumentedOne) {
  const Message m = sample_message();
  const auto b = encode_frame(m);
  // The session id takes 9 varint bytes (61 significant bits), the nonce 1.
  ASSERT_EQ(b.size(), 2 + 9 + 1 + 5 + 3 + kCrcBytes);
  EXPECT_EQ(b[0], (kWireVersion << 4) | static_cast<std::uint8_t>(m.type));
  EXPECT_EQ(b[1], 0x03u);   // mac_len
  EXPECT_EQ(b[2], 0x88u);   // session_id: low 7 bits, continuation set
  EXPECT_EQ(b[10], 0x11u);  // ... and its top group, continuation clear
  EXPECT_EQ(b[11], 42u);    // nonce, one byte
  EXPECT_EQ(b[12], 1u);     // payload starts; its length is implied
  EXPECT_EQ(b[17], 9u);     // mac starts
  const std::uint32_t crc = crc32(std::span(b).first(b.size() - kCrcBytes));
  EXPECT_EQ(b[20], static_cast<std::uint8_t>(crc >> 24));  // CRC, BE
  EXPECT_EQ(b[23], static_cast<std::uint8_t>(crc));
}

TEST(Wire, GoldenBytesPinAnAckAndASyndrome) {
  // Both at a two-byte session id, as single-link agreements send them.
  // The expected bytes were computed outside this codec (zlib's CRC-32).
  Message ack;
  ack.type = MessageType::kAck;
  ack.session_id = 0x1234;
  ack.nonce = 3;
  EXPECT_EQ(hex(encode_frame(ack)), "2700b424031f75e2d9");

  Message syndrome;
  syndrome.type = MessageType::kSyndrome;
  syndrome.session_id = 0x1234;
  syndrome.nonce = 2;
  for (std::uint8_t i = 0; i < 32; ++i) {
    syndrome.payload.push_back(i);
    syndrome.mac.push_back(static_cast<std::uint8_t>(0xE0 + i));
  }
  const auto frame = encode_frame(syndrome);
  EXPECT_EQ(frame.size(), 73u);
  EXPECT_EQ(hex(frame),
            "2320b42402"
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
            "e0e1e2e3e4e5e6e7e8e9eaebecedeeeff0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"
            "76ecf9a7");
  for (const Message& m : {ack, syndrome}) {
    const auto back = decode_frame(encode_frame(m));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, m);
  }
}

TEST(Wire, FrameSizeIsExactAtEveryVarintBoundary) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t values[] = {0,     127,   128, 16383,
                                  16384, 1ULL << 63, kMax};
  for (const std::uint64_t session : values) {
    for (const std::uint64_t nonce : values) {
      Message m = sample_message();
      m.session_id = session;
      m.nonce = nonce;
      const auto bytes = encode_frame(m);
      EXPECT_EQ(frame_size(m), bytes.size()) << session << " " << nonce;
      EXPECT_EQ(bytes.size(), kFixedHeaderBytes + varint_size(session) +
                                  varint_size(nonce) + m.payload.size() +
                                  m.mac.size() + kCrcBytes);
      const auto back = decode_frame(bytes);
      ASSERT_TRUE(back.has_value()) << session << " " << nonce;
      EXPECT_EQ(*back, m);
    }
  }
  Message widest = sample_message();
  widest.session_id = kMax;
  widest.nonce = kMax;
  widest.payload.clear();
  widest.mac.clear();
  EXPECT_EQ(frame_size(widest), kMaxHeaderBytes + kCrcBytes);
}

TEST(Wire, RejectsEveryTruncation) {
  // With the payload length implied, a cut is caught by whichever gate its
  // length reaches: below the smallest frame, inside a varint, short of the
  // header plus mac_len, or (past that) by the CRC over the shifted bytes.
  const auto bytes = encode_frame(sample_message());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const std::vector<std::uint8_t> cut(bytes.begin(),
                                        bytes.begin() +
                                            static_cast<std::ptrdiff_t>(len));
    WireError want = WireError::kBadCrc;
    const std::size_t body = len < kCrcBytes ? 0 : len - kCrcBytes;
    if (len < kMinFrameBytes) {
      want = WireError::kTruncated;
    } else if (body < 2 + 9 + 1) {
      want = WireError::kBadVarint;  // session id or nonce runs off
    } else if (body < 2 + 9 + 1 + 3) {
      want = WireError::kTruncated;  // shorter than header + mac_len
    }
    WireError err = WireError::kNone;
    ASSERT_FALSE(decode_frame(cut, &err).has_value()) << "len " << len;
    EXPECT_EQ(err, want) << "len " << len;
  }
}

TEST(Wire, RejectsTrailingBytes) {
  // No length field bounds the payload, so a trailing byte joins it and
  // shifts the CRC: the CRC gate rejects what v1's trailing-bytes gate did.
  for (const std::uint8_t extra : {0x00, 0x5A, 0xFF}) {
    auto bytes = encode_frame(sample_message());
    bytes.push_back(extra);
    EXPECT_EQ(decode_error(bytes), WireError::kBadCrc) << int(extra);
  }
}

TEST(Wire, RejectsBadMagic) {
  // A v1 frame opens with the magic "VK": its 0x56 reads as version 5, so
  // the version gate rejects it even with a CRC that checks out.
  std::vector<std::uint8_t> v1{0x56, 0x4B, 0x01, 0x00, 0x00, 0x00, 0x07};
  v1.resize(v1.size() + 16 + kCrcBytes);  // session 0, nonce 0, CRC
  restamp_crc(v1);
  EXPECT_EQ(decode_error(v1), WireError::kBadVersion);
}

TEST(Wire, RejectsVersionSkewBeforeCheckingTheCrc) {
  // A frame of another version with a *correct* CRC must still die on
  // kBadVersion: there is no downgrade negotiation, and the structural gate
  // fires first.
  for (const std::uint8_t version : {0, 1, 3, 15}) {
    auto bytes = encode_frame(sample_message());
    bytes[0] = static_cast<std::uint8_t>((version << 4) | (bytes[0] & 0x0F));
    restamp_crc(bytes);
    EXPECT_EQ(decode_error(bytes), WireError::kBadVersion) << int(version);
  }
}

TEST(Wire, RejectsOversizedLengthClaims) {
  // mac_len = 0xFF > kMaxMacBytes: rejected on the length field itself,
  // before any attempt to read that many bytes.
  auto bytes = encode_frame(sample_message());
  bytes[1] = 0xFF;
  EXPECT_EQ(decode_error(bytes), WireError::kOversizedMac);

  // A frame one byte longer than the largest payload allows: rejected on
  // the implied length, before the CRC is computed over it.
  Message largest = sample_message();
  largest.payload.assign(kMaxPayloadBytes, 0x5A);
  auto big = encode_frame(largest);
  big.push_back(0x00);
  EXPECT_EQ(decode_error(big), WireError::kOversizedPayload);
}

TEST(Wire, LengthFieldClaimingMoreThanTheBufferIsTruncation) {
  // mac_len 3 -> 64: within the bound, but more than the 8 bytes (payload
  // and MAC) that the frame holds between its header and its CRC.
  auto bytes = encode_frame(sample_message());
  bytes[1] = static_cast<std::uint8_t>(kMaxMacBytes);
  EXPECT_EQ(decode_error(bytes), WireError::kTruncated);
}

TEST(Wire, RejectsMalformedVarintsBeforeTheLengthAndCrc) {
  // Each session id below is followed by a one-byte nonce, an empty
  // payload and MAC, and a CRC that checks out.
  const auto frame_with_session = [](std::vector<std::uint8_t> session) {
    std::vector<std::uint8_t> bytes{
        static_cast<std::uint8_t>((kWireVersion << 4) | 7), 0x00};
    for (const std::uint8_t b : session) bytes.push_back(b);
    bytes.push_back(0x01);  // nonce
    bytes.resize(bytes.size() + kCrcBytes);
    restamp_crc(bytes);
    return bytes;
  };
  EXPECT_EQ(decode_error(frame_with_session({0x80, 0x00})),
            WireError::kBadVarint);  // overlong zero
  EXPECT_EQ(decode_error(frame_with_session(std::vector<std::uint8_t>(10, 0x80))),
            WireError::kBadVarint);  // eleven bytes with the nonce's 0x01
  EXPECT_EQ(decode_error(frame_with_session({0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                             0xFF, 0xFF, 0xFF, 0xFF, 0x02})),
            WireError::kBadVarint);  // tenth byte above 1
  // The largest value is accepted: its tenth byte is exactly 1.
  const auto widest = frame_with_session(
      {0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01});
  const auto back = decode_frame(widest);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->session_id, std::numeric_limits<std::uint64_t>::max());
  // A nonce that runs into the CRC: the varint has no last byte in the body.
  std::vector<std::uint8_t> cut{
      static_cast<std::uint8_t>((kWireVersion << 4) | 7), 0x00, 0x05, 0x80};
  cut.resize(cut.size() + kCrcBytes);
  restamp_crc(cut);
  EXPECT_EQ(decode_error(cut), WireError::kBadVarint);
}

TEST(Wire, FlippedPayloadBitFailsTheCrc) {
  auto bytes = encode_frame(sample_message());
  bytes[12] ^= 0x01;  // the payload's first byte
  EXPECT_EQ(decode_error(bytes), WireError::kBadCrc);
}

TEST(Wire, CrcValidFrameWithUnknownTypeIsBadType) {
  // Forge a type outside [1, kMaxMessageType] and restamp the CRC:
  // structurally perfect, semantically meaningless — the one reject that
  // fires *after* the CRC gate. Type 8 is the first value past kAck; the
  // type nibble ends at 15.
  for (const int type : {0, 8, 15}) {
    auto bytes = encode_frame(sample_message());
    bytes[0] = static_cast<std::uint8_t>((kWireVersion << 4) | type);
    restamp_crc(bytes);
    EXPECT_EQ(decode_error(bytes), WireError::kBadType) << "type " << type;
  }
}

TEST(Wire, EncodeRefusesMessagesThatViolateWireBounds) {
  Message m = sample_message();
  m.payload.assign(kMaxPayloadBytes + 1, 0);
  EXPECT_THROW(encode_frame(m), vkey::Error);
  m = sample_message();
  m.mac.assign(kMaxMacBytes + 1, 0);
  EXPECT_THROW(encode_frame(m), vkey::Error);
  // The type nibble holds only the defined types.
  for (const int type : {0, 8, 16}) {
    m = sample_message();
    m.type = static_cast<MessageType>(type);
    EXPECT_THROW(encode_frame(m), vkey::Error) << "type " << type;
  }
}

TEST(Wire, RejectCountersTrackTypedReasons) {
  MetricsOn on;
  register_wire_metrics();
  auto& reg = metrics::Registry::global();
  auto& crc_counter = reg.counter("wire.reject.crc");
  auto& trunc_counter = reg.counter("wire.reject.truncated");
  const auto crc0 = crc_counter.value();
  const auto trunc0 = trunc_counter.value();

  auto bytes = encode_frame(sample_message());
  auto corrupted = bytes;
  corrupted[12] ^= 0x10;  // the payload's first byte
  (void)decode_frame(corrupted);
  EXPECT_EQ(crc_counter.value(), crc0 + 1);

  const std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + 4);
  (void)decode_frame(cut);
  EXPECT_EQ(trunc_counter.value(), trunc0 + 1);
}

}  // namespace
}  // namespace vkey::protocol::wire
