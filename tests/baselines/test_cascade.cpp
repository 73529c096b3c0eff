#include "baselines/cascade.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"

namespace vkey::baselines {
namespace {

BitVec random_key(std::size_t n, vkey::Rng& rng) {
  BitVec k(n);
  for (std::size_t i = 0; i < n; ++i) k.set(i, rng.bernoulli(0.5));
  return k;
}

TEST(Cascade, IdenticalKeysUntouched) {
  vkey::Rng rng(1);
  const BitVec k = random_key(64, rng);
  const auto r = cascade_reconcile(k, k);
  EXPECT_EQ(r.corrected, k);
  EXPECT_GT(r.messages, 0u);  // parities are still exchanged
}

TEST(Cascade, CorrectsSingleError) {
  vkey::Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec kb = random_key(64, rng);
    BitVec ka = kb;
    ka.flip(static_cast<std::size_t>(rng.uniform_int(64)));
    EXPECT_EQ(cascade_reconcile(ka, kb).corrected, kb);
  }
}

TEST(Cascade, CorrectsTypicalBerCompletely) {
  // With k = 3 and 4 iterations Cascade fixes ~10% BER almost always.
  vkey::Rng rng(3);
  int success = 0;
  const int trials = 40;
  for (int trial = 0; trial < trials; ++trial) {
    const BitVec kb = random_key(64, rng);
    BitVec ka = kb;
    for (std::size_t i = 0; i < 64; ++i) {
      if (rng.bernoulli(0.10)) ka.flip(i);
    }
    const std::uint64_t seed = 1000 + static_cast<std::uint64_t>(trial);
    success += cascade_reconcile(ka, kb, seed).corrected == kb;
  }
  EXPECT_GE(success, trials * 9 / 10);
}

TEST(Cascade, LeaksAreCounted) {
  vkey::Rng rng(4);
  const BitVec kb = random_key(64, rng);
  BitVec ka = kb;
  for (int f = 0; f < 6; ++f) {
    ka.flip(static_cast<std::size_t>(rng.uniform_int(64)));
  }
  const auto r = cascade_reconcile(ka, kb);
  // At least the initial block parities of every iteration leak.
  EXPECT_GE(r.leaked_bits, 22u + 11u + 6u + 3u);
  EXPECT_EQ(r.messages, r.leaked_bits);
}

TEST(Cascade, MoreErrorsMoreMessages) {
  vkey::Rng rng(5);
  const BitVec kb = random_key(128, rng);
  BitVec one = kb, many = kb;
  one.flip(10);
  for (std::size_t i = 0; i < 128; i += 9) many.flip(i);
  EXPECT_GT(cascade_reconcile(many, kb).messages,
            cascade_reconcile(one, kb).messages);
}

TEST(Cascade, NeverDecreasesAgreement) {
  vkey::Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    const BitVec kb = random_key(64, rng);
    BitVec ka = kb;
    for (std::size_t i = 0; i < 64; ++i) {
      if (rng.bernoulli(0.15)) ka.flip(i);
    }
    const auto r = cascade_reconcile(ka, kb);
    EXPECT_GE(r.corrected.agreement(kb), ka.agreement(kb));
  }
}

TEST(Cascade, ConfigValidated) {
  vkey::Rng rng(7);
  const BitVec k = random_key(16, rng);
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
    const BitVec kb = random_key(64, rng);
    BitVec ka = kb;
    for (std::size_t i = 0; i < 64; ++i) {
      if (rng.bernoulli(ber)) ka.flip(i);
    }
    const std::uint64_t seed = 50 + static_cast<std::uint64_t>(t);
    success += cascade_reconcile(ka, kb, seed).corrected == kb;
  }
  EXPECT_GE(success, trials * 7 / 10) << "ber " << ber;
}

INSTANTIATE_TEST_SUITE_P(BerLevels, CascadeBerSweep,
                         ::testing::Values(0.02, 0.05, 0.10, 0.15));

}  // namespace
}  // namespace vkey::baselines
