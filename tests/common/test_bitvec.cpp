#include "common/bitvec.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace vkey {
namespace {

TEST(BitVec, DefaultIsEmpty) {
  BitVec v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
}

TEST(BitVec, ZeroInitialized) {
  BitVec v(16);
  EXPECT_EQ(v.size(), 16u);
  EXPECT_EQ(v.weight(), 0u);
}

TEST(BitVec, FromStringRoundTrip) {
  const std::string s = "1011001110001111";
  EXPECT_EQ(BitVec::from_string(s).to_string(), s);
}

TEST(BitVec, FromStringRejectsNonBinary) {
  EXPECT_THROW(BitVec::from_string("10x1"), Error);
}

TEST(BitVec, ConstructorRejectsNonBinaryValues) {
  EXPECT_THROW(BitVec(std::vector<std::uint8_t>{0, 1, 2}), Error);
}

TEST(BitVec, GetSetFlip) {
  BitVec v(8);
  v.set(3, true);
  EXPECT_EQ(v.get(3), 1);
  v.flip(3);
  EXPECT_EQ(v.get(3), 0);
  v.flip(0);
  EXPECT_EQ(v.get(0), 1);
  EXPECT_EQ(v.weight(), 1u);
}

TEST(BitVec, BoundsChecked) {
  BitVec v(4);
  EXPECT_THROW(v.get(4), Error);
  EXPECT_THROW(v.set(4, true), Error);
  EXPECT_THROW(v.flip(4), Error);
}

TEST(BitVec, XorBasics) {
  const BitVec a = BitVec::from_string("1100");
  const BitVec b = BitVec::from_string("1010");
  EXPECT_EQ((a ^ b).to_string(), "0110");
}

TEST(BitVec, XorSizeMismatchThrows) {
  EXPECT_THROW(BitVec(4) ^ BitVec(5), Error);
}

TEST(BitVec, XorSelfInverse) {
  Rng rng(1);
  BitVec a(64), b(64);
  for (std::size_t i = 0; i < 64; ++i) {
    a.set(i, rng.bernoulli(0.5));
    b.set(i, rng.bernoulli(0.5));
  }
  EXPECT_EQ((a ^ b) ^ b, a);
}

TEST(BitVec, HammingDistanceMatchesXorWeight) {
  const BitVec a = BitVec::from_string("110010");
  const BitVec b = BitVec::from_string("011010");
  EXPECT_EQ(a.hamming_distance(b), (a ^ b).weight());
  EXPECT_EQ(a.hamming_distance(b), 2u);
}

TEST(BitVec, AgreementComplementaryToDistance) {
  const BitVec a = BitVec::from_string("11110000");
  const BitVec b = BitVec::from_string("11111111");
  EXPECT_DOUBLE_EQ(a.agreement(b), 0.5);
  EXPECT_DOUBLE_EQ(a.agreement(a), 1.0);
}

TEST(BitVec, AgreementOfEmptyThrows) {
  EXPECT_THROW(BitVec().agreement(BitVec()), Error);
}

TEST(BitVec, ByteRoundTripAligned) {
  const BitVec v = BitVec::from_string("1010110100110101");
  const auto bytes = v.to_bytes();
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(BitVec::from_bytes(bytes, 16), v);
}

TEST(BitVec, ByteRoundTripUnaligned) {
  const BitVec v = BitVec::from_string("10101");
  const auto bytes = v.to_bytes();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b10101000);
  EXPECT_EQ(BitVec::from_bytes(bytes, 5), v);
}

TEST(BitVec, FromBytesMsbFirst) {
  const std::vector<std::uint8_t> bytes{0x80, 0x01};
  const BitVec v = BitVec::from_bytes(bytes, 16);
  EXPECT_EQ(v.to_string(), "1000000000000001");
}

TEST(BitVec, FromBytesTooShortThrows) {
  EXPECT_THROW(BitVec::from_bytes(std::vector<std::uint8_t>{0xff}, 9), Error);
}

TEST(BitVec, SliceAndAppend) {
  const BitVec v = BitVec::from_string("11001010");
  EXPECT_EQ(v.slice(2, 4).to_string(), "0010");
  BitVec w = v.slice(0, 4);
  w.append(v.slice(4, 4));
  EXPECT_EQ(w, v);
}

TEST(BitVec, SliceOutOfRangeThrows) {
  EXPECT_THROW(BitVec(8).slice(5, 4), Error);
}

TEST(BitVec, PushBack) {
  BitVec v;
  v.push_back(true);
  v.push_back(false);
  v.push_back(true);
  EXPECT_EQ(v.to_string(), "101");
}

TEST(BitVec, ToDoublesAndThreshold) {
  const BitVec v = BitVec::from_string("101");
  const auto d = v.to_doubles();
  ASSERT_EQ(d.size(), 3u);
  EXPECT_DOUBLE_EQ(d[0], 1.0);
  EXPECT_DOUBLE_EQ(d[1], 0.0);
  EXPECT_EQ(BitVec::from_doubles_threshold(std::vector<double>{0.9, 0.1, 0.500001}),
            BitVec::from_string("101"));
}

TEST(BitVec, ThresholdCustomValue) {
  EXPECT_EQ(
      BitVec::from_doubles_threshold(std::vector<double>{0.2, 0.4}, 0.3)
          .to_string(),
      "01");
}

// Each synthetic-key generator against the loop it replaced, for a fixed
// seed: the same draws in the same order, and no draw more or fewer.

TEST(SyntheticKeys, RandomBitsDrawsOneFairBitPerPositionInOrder) {
  Rng rng(7), loop(7);
  const BitVec got = random_bits(100, rng);
  BitVec want(100);
  for (std::size_t i = 0; i < 100; ++i) want.set(i, loop.bernoulli(0.5));
  EXPECT_EQ(got, want);
  EXPECT_EQ(rng.next_u64(), loop.next_u64());
  EXPECT_EQ(random_bits(100, Rng(7)), want);
}

TEST(SyntheticKeys, WithFlipsDrawsOnePositionPerFlip) {
  const BitVec key = random_bits(64, Rng(1));
  Rng rng(8), loop(8);
  const BitVec got = with_flips(key, 40, rng);
  BitVec want = key;
  for (int f = 0; f < 40; ++f) {
    want.flip(static_cast<std::size_t>(loop.uniform_int(want.size())));
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(rng.next_u64(), loop.next_u64());
  EXPECT_EQ(with_flips(key, 40, Rng(8)), want);
  // 40 positions drawn from 64 repeat, and a repeat flips a bit back.
  EXPECT_LT(got.hamming_distance(key), 40u);
}

TEST(SyntheticKeys, WithNoiseDrawsOneBernoulliPerBitInOrder) {
  const BitVec key = random_bits(200, Rng(2));
  Rng rng(9), loop(9);
  const BitVec got = with_noise(key, 0.17, rng);
  BitVec want = key;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (loop.bernoulli(0.17)) want.flip(i);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(rng.next_u64(), loop.next_u64());
}

}  // namespace
}  // namespace vkey
