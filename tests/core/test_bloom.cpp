#include "core/bloom.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace vkey::core {
namespace {

TEST(Bloom, InvertibleForLegitimateParties) {
  PositionPreservingBloom bloom(64, 0xabc);
  const BitVec k = random_bits(64, vkey::Rng(1));
  EXPECT_EQ(bloom.invert(bloom.apply(k)), k);
}

TEST(Bloom, PreservesHammingDistanceExactly) {
  // The paper's requirement: "its output can retain the same number of
  // mismatched bits as the input key".
  PositionPreservingBloom bloom(128, 0xdef);
  vkey::Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec a =
        random_bits(128, vkey::Rng(100 + static_cast<std::uint64_t>(trial)));
    const BitVec b = with_flips(a, 1 + rng.uniform_int(20), rng);
    EXPECT_EQ(bloom.apply(a).hamming_distance(bloom.apply(b)),
              a.hamming_distance(b));
  }
}

TEST(Bloom, OutputLooksUnlikeInput) {
  PositionPreservingBloom bloom(64, 0x123);
  const BitVec k = random_bits(64, vkey::Rng(3));
  const BitVec mapped = bloom.apply(k);
  EXPECT_NE(mapped, k);
  // Roughly half the positions should differ (pad is random).
  const auto d = mapped.hamming_distance(k);
  EXPECT_GT(d, 16u);
  EXPECT_LT(d, 48u);
}

TEST(Bloom, DifferentSessionsDifferentMappings) {
  PositionPreservingBloom b1(64, 1), b2(64, 2);
  const BitVec k = random_bits(64, vkey::Rng(4));
  EXPECT_NE(b1.apply(k), b2.apply(k));
}

TEST(Bloom, SameSessionIsDeterministic) {
  PositionPreservingBloom b1(64, 42), b2(64, 42);
  const BitVec k = random_bits(64, vkey::Rng(5));
  EXPECT_EQ(b1.apply(k), b2.apply(k));
}

TEST(Bloom, MismatchMapsBackThroughPermutation) {
  // Correcting in K'-space then inverting equals correcting in K-space:
  // delta' = K'_A ^ K'_B  =>  map_mismatch_back(delta') = K_A ^ K_B.
  PositionPreservingBloom bloom(64, 0x777);
  const BitVec ka = random_bits(64, vkey::Rng(6));
  BitVec kb = ka;
  kb.flip(3);
  kb.flip(40);
  const BitVec delta_mapped = bloom.apply(ka) ^ bloom.apply(kb);
  EXPECT_EQ(bloom.map_mismatch_back(delta_mapped), ka ^ kb);
}

TEST(Bloom, EndToEndCorrectionThroughMap) {
  PositionPreservingBloom bloom(64, 0x999);
  const BitVec ka = random_bits(64, vkey::Rng(7));
  BitVec kb = ka;
  kb.flip(10);
  // Alice learns the mapped-domain mismatch, maps it back, corrects.
  const BitVec delta = bloom.map_mismatch_back(bloom.apply(ka) ^ bloom.apply(kb));
  EXPECT_EQ(ka ^ delta, kb);
}

TEST(Bloom, SizeValidation) {
  EXPECT_THROW(PositionPreservingBloom(1, 0), vkey::Error);
  PositionPreservingBloom bloom(64, 0);
  EXPECT_THROW(bloom.apply(BitVec(32)), vkey::Error);
  EXPECT_THROW(bloom.invert(BitVec(32)), vkey::Error);
}

}  // namespace
}  // namespace vkey::core
