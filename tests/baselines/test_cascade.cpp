#include "baselines/cascade.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace vkey::baselines {
namespace {

TEST(Cascade, IdenticalKeysUntouched) {
  const BitVec k = random_bits(64, vkey::Rng(1));
  const auto r = cascade_reconcile(k, k);
  EXPECT_EQ(r.corrected, k);
  EXPECT_GT(r.messages, 0u);  // parities are still exchanged
}

TEST(Cascade, CorrectsSingleError) {
  vkey::Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec kb = random_bits(64, rng);
    const BitVec ka = with_flips(kb, 1, rng);
    EXPECT_EQ(cascade_reconcile(ka, kb).corrected, kb);
  }
}

TEST(Cascade, CorrectsTypicalBerCompletely) {
  // With k = 3 and 4 iterations Cascade fixes ~10% BER almost always.
  vkey::Rng rng(3);
  int success = 0;
  const int trials = 40;
  for (int trial = 0; trial < trials; ++trial) {
    const BitVec kb = random_bits(64, rng);
    const BitVec ka = with_noise(kb, 0.10, rng);
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(trial);
    success += cascade_reconcile(ka, kb, seed).corrected == kb;
  }
  EXPECT_GE(success, trials * 9 / 10);
}

TEST(Cascade, LeaksAreCounted) {
  vkey::Rng rng(4);
  const BitVec kb = random_bits(64, rng);
  const BitVec ka = with_flips(kb, 6, rng);
  const auto r = cascade_reconcile(ka, kb);
  // At least the initial block parities of every iteration leak.
  EXPECT_GE(r.leaked_bits, 22u + 11u + 6u + 3u);
  EXPECT_EQ(r.messages, r.leaked_bits);
}

TEST(Cascade, MoreErrorsMoreMessages) {
  const BitVec kb = random_bits(128, vkey::Rng(5));
  BitVec one = kb, many = kb;
  one.flip(10);
  for (std::size_t i = 0; i < 128; i += 9) many.flip(i);
  EXPECT_GT(cascade_reconcile(many, kb).messages,
            cascade_reconcile(one, kb).messages);
}

TEST(Cascade, NeverDecreasesAgreement) {
  vkey::Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec kb = random_bits(64, rng);
    const BitVec ka = with_noise(kb, 0.15, rng);
    const auto r = cascade_reconcile(ka, kb);
    EXPECT_GE(r.corrected.agreement(kb), ka.agreement(kb));
  }
}

TEST(Cascade, ConfigValidated) {
  const BitVec k = random_bits(16, vkey::Rng(7));
  EXPECT_THROW(cascade_reconcile(k, BitVec(8)), vkey::Error);
}

// Parameterized sweep across BER: success degrades gracefully.
class CascadeBerSweep : public ::testing::TestWithParam<double> {};

TEST_P(CascadeBerSweep, HighSuccessUpToFifteenPercent) {
  const double ber = GetParam();
  vkey::Rng rng(8);
  int success = 0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    const BitVec kb = random_bits(64, rng);
    const BitVec ka = with_noise(kb, ber, rng);
    const std::uint64_t seed = 50 + static_cast<std::uint64_t>(t);
    success += cascade_reconcile(ka, kb, seed).corrected == kb;
  }
  EXPECT_GE(success, trials * 7 / 10) << "ber " << ber;
}

INSTANTIATE_TEST_SUITE_P(BerLevels, CascadeBerSweep,
                         ::testing::Values(0.02, 0.05, 0.10, 0.15));

}  // namespace
}  // namespace vkey::baselines
