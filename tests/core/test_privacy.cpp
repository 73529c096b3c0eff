#include "core/privacy.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace vkey::core {
namespace {

TEST(PrivacyAmplifier, OutputWidth) {
  PrivacyAmplifier amp(128);
  EXPECT_EQ(amp.amplify(random_bits(64, vkey::Rng(1))).size(), 128u);
  PrivacyAmplifier amp64(64);
  EXPECT_EQ(amp64.amplify(random_bits(64, vkey::Rng(1))).size(), 64u);
}

TEST(PrivacyAmplifier, Deterministic) {
  PrivacyAmplifier amp(128);
  const BitVec raw = random_bits(64, vkey::Rng(2));
  EXPECT_EQ(amp.amplify(raw, 7), amp.amplify(raw, 7));
}

TEST(PrivacyAmplifier, SaltSeparatesSessions) {
  PrivacyAmplifier amp(128);
  const BitVec raw = random_bits(64, vkey::Rng(3));
  EXPECT_NE(amp.amplify(raw, 1), amp.amplify(raw, 2));
}

TEST(PrivacyAmplifier, SingleBitAvalanche) {
  PrivacyAmplifier amp(128);
  BitVec raw = random_bits(64, vkey::Rng(4));
  const BitVec k1 = amp.amplify(raw);
  raw.flip(10);
  const BitVec k2 = amp.amplify(raw);
  // Roughly half the output bits flip for a 1-bit input change.
  const auto d = k1.hamming_distance(k2);
  EXPECT_GT(d, 40u);
  EXPECT_LT(d, 88u);
}

TEST(PrivacyAmplifier, MatchingInputsMatchOutputs) {
  // The whole protocol relies on this: agreed raw keys give agreed final
  // keys on both sides.
  PrivacyAmplifier amp(128);
  const BitVec raw = random_bits(64, vkey::Rng(5));
  const BitVec copy = raw;
  EXPECT_EQ(amp.amplify(raw, 9), amp.amplify(copy, 9));
}

TEST(PrivacyAmplifier, ConfigValidated) {
  EXPECT_THROW(PrivacyAmplifier(0), vkey::Error);
  EXPECT_THROW(PrivacyAmplifier(100), vkey::Error);  // not multiple of 8
  EXPECT_THROW(PrivacyAmplifier(512), vkey::Error);
}

TEST(PrivacyAmplifier, EmptyInputRejected) {
  PrivacyAmplifier amp(128);
  EXPECT_THROW(amp.amplify(BitVec{}), vkey::Error);
}

}  // namespace
}  // namespace vkey::core
