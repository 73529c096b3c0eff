#include "core/quantizer.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace vkey::core {
namespace {

std::vector<double> gaussian_series(std::size_t n, std::uint64_t seed,
                                    double mean = -80.0, double sd = 5.0) {
  vkey::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.gaussian(mean, sd);
  return v;
}

TEST(GrayCode, KnownCodes) {
  EXPECT_EQ(MultiBitQuantizer::gray_code(0), 0b00u);
  EXPECT_EQ(MultiBitQuantizer::gray_code(1), 0b01u);
  EXPECT_EQ(MultiBitQuantizer::gray_code(2), 0b11u);
  EXPECT_EQ(MultiBitQuantizer::gray_code(3), 0b10u);
}

TEST(GrayCode, AdjacentLevelsDifferInOneBit) {
  for (int bits = 1; bits <= 4; ++bits) {
    for (std::size_t level = 0; level + 1 < (1u << bits); ++level) {
      const std::size_t diff = MultiBitQuantizer::gray_code(level) ^
                               MultiBitQuantizer::gray_code(level + 1);
      EXPECT_EQ(std::popcount(diff), 1)
          << "bits=" << bits << " level=" << level;
      EXPECT_LT(MultiBitQuantizer::gray_code(level + 1), 1u << bits);
    }
  }
}

TEST(Quantizer, ConfigValidated) {
  EXPECT_THROW(MultiBitQuantizer({.bits_per_sample = 0}), vkey::Error);
  EXPECT_THROW(MultiBitQuantizer({.bits_per_sample = 5}), vkey::Error);
  EXPECT_THROW(MultiBitQuantizer({.block_size = 2}), vkey::Error);
  EXPECT_THROW(MultiBitQuantizer({.guard_band_ratio = 1.0}), vkey::Error);
}

TEST(Quantizer, OutputLengthWithoutGuardBands) {
  MultiBitQuantizer q({.bits_per_sample = 2, .block_size = 16});
  const auto r = q.quantize(gaussian_series(64, 1));
  EXPECT_EQ(r.bits.size(), 128u);
  EXPECT_EQ(r.kept.size(), 64u);
}

TEST(Quantizer, NeedsFullBlock) {
  MultiBitQuantizer q({.block_size = 16});
  EXPECT_THROW(q.quantize(gaussian_series(8, 2)), vkey::Error);
}

TEST(Quantizer, SingleBitSplitsAtMedian) {
  MultiBitQuantizer q({.bits_per_sample = 1, .block_size = 8});
  const std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8};
  const auto r = q.quantize(v);
  EXPECT_EQ(r.bits.to_string(), "00001111");
}

TEST(Quantizer, LevelsAreEquallyPopulated) {
  MultiBitQuantizer q({.bits_per_sample = 2, .block_size = 64});
  const auto r = q.quantize(gaussian_series(64, 3));
  // 2 bits -> 4 levels -> with quantile thresholds each level holds ~16.
  EXPECT_NEAR(static_cast<double>(r.bits.weight()),
              static_cast<double>(r.bits.size()) / 2.0,
              static_cast<double>(r.bits.size()) / 8.0);
}

TEST(Quantizer, InvariantToMonotoneShift) {
  // Block-adaptive quantile thresholds make the bits invariant to adding a
  // constant — the property that defeats path-loss eavesdropping.
  MultiBitQuantizer q({.bits_per_sample = 2, .block_size = 16});
  auto v = gaussian_series(64, 4);
  const auto r1 = q.quantize(v);
  for (auto& x : v) x += 25.0;
  const auto r2 = q.quantize(v);
  EXPECT_EQ(r1.bits, r2.bits);
}

TEST(Quantizer, GuardBandDropsSamples) {
  MultiBitQuantizer with_guard(
      {.bits_per_sample = 2, .block_size = 32, .guard_band_ratio = 0.8});
  MultiBitQuantizer without(
      {.bits_per_sample = 2, .block_size = 32, .guard_band_ratio = 0.0});
  const auto v = gaussian_series(256, 5);
  const auto rg = with_guard.quantize(v);
  const auto rn = without.quantize(v);
  EXPECT_LT(rg.kept.size(), rn.kept.size());
  EXPECT_GT(rg.kept.size(), 0u);
  EXPECT_EQ(rg.bits.size(), rg.kept.size() * 2);
}

TEST(Quantizer, GuardBandImprovesAgreement) {
  // Two noisy observations of the same series agree better after guard
  // bands + index intersection — the LoRa-Key mechanism.
  vkey::Rng rng(6);
  std::vector<double> a(512), b(512);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = rng.gaussian(-80.0, 5.0);
    a[i] = x + rng.gaussian(0.0, 1.0);
    b[i] = x + rng.gaussian(0.0, 1.0);
  }
  MultiBitQuantizer plain({.bits_per_sample = 2, .block_size = 32});
  MultiBitQuantizer guarded(
      {.bits_per_sample = 2, .block_size = 32, .guard_band_ratio = 0.6});

  const double agree_plain =
      plain.quantize(a).bits.agreement(plain.quantize(b).bits);

  const auto qa = guarded.quantize(a);
  const auto qb = guarded.quantize(b);
  const auto kept = intersect_indices(qa.kept, qb.kept);
  const double agree_guarded = guarded.quantize_at(a, kept).agreement(
      guarded.quantize_at(b, kept));
  EXPECT_GT(agree_guarded, agree_plain);
}

TEST(Quantizer, QuantizeAtChecksIndices) {
  MultiBitQuantizer q({.block_size = 8});
  const auto v = gaussian_series(16, 7);
  EXPECT_THROW(q.quantize_at(v, std::vector<std::size_t>{}), vkey::Error);
  EXPECT_THROW(q.quantize_at(v, std::vector<std::size_t>{99}), vkey::Error);
}

TEST(IntersectIndices, Basics) {
  const std::vector<std::size_t> a{1, 3, 5, 7};
  const std::vector<std::size_t> b{3, 4, 5, 6};
  EXPECT_EQ(intersect_indices(a, b), (std::vector<std::size_t>{3, 5}));
  EXPECT_TRUE(intersect_indices(a, std::vector<std::size_t>{}).empty());
}

// Parameterized sweep: all bit depths produce the expected bit counts and
// roughly balanced bits on Gaussian input.
class QuantizerBitDepth : public ::testing::TestWithParam<int> {};

TEST_P(QuantizerBitDepth, ProducesBalancedBits) {
  const int bits = GetParam();
  MultiBitQuantizer q({.bits_per_sample = bits, .block_size = 32});
  const auto r = q.quantize(gaussian_series(512, 8));
  EXPECT_EQ(r.bits.size(), 512u * static_cast<unsigned>(bits));
  const double ones =
      static_cast<double>(r.bits.weight()) / static_cast<double>(r.bits.size());
  EXPECT_NEAR(ones, 0.5, 0.1);
}

INSTANTIATE_TEST_SUITE_P(BitDepths, QuantizerBitDepth,
                         ::testing::Values(1, 2, 3, 4));

// Agreement monotonically degrades as observation noise grows.
class QuantizerNoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(QuantizerNoiseSweep, AgreementAboveChance) {
  const double noise = GetParam();
  vkey::Rng rng(9);
  std::vector<double> a(512), b(512);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = rng.gaussian(-80.0, 5.0);
    a[i] = x + rng.gaussian(0.0, noise);
    b[i] = x + rng.gaussian(0.0, noise);
  }
  MultiBitQuantizer q({.bits_per_sample = 1, .block_size = 16});
  const double agree = q.quantize(a).bits.agreement(q.quantize(b).bits);
  EXPECT_GT(agree, 0.55);
  if (noise <= 0.5) {
    EXPECT_GT(agree, 0.9);
  }
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, QuantizerNoiseSweep,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0));

}  // namespace
}  // namespace vkey::core
