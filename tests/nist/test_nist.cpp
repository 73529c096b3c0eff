#include "nist/nist.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"
#include "common/special.h"
#include "crypto/aes128.h"

namespace vkey::nist {
namespace {

BitVec alternating(std::size_t n) {
  BitVec v(n);
  for (std::size_t i = 0; i < n; ++i) v.set(i, i % 2 == 0);
  return v;
}

// --- closed-form checks on constructed sequences ---

TEST(Nist, FrequencyClosedForm) {
  // 56 ones and 44 zeros in 100 bits: S = 12, s_obs = 1.2,
  // p = erfc(1.2 / sqrt(2)).
  BitVec v(100);
  for (std::size_t i = 0; i < 56; ++i) v.set(i, true);
  EXPECT_NEAR(frequency_test(v),
              vkey::special::erfc(1.2 / std::sqrt(2.0)), 1e-12);
}

TEST(Nist, FrequencySmallExampleFromSpec) {
  // SP 800-22 2.1.8 toy example: 1011010101 -> S = 2, p = 0.527089.
  // (Run on a repeated version to satisfy the n >= 100 requirement while
  // keeping the same ones/zeros ratio: 10x repetition scales S to 20 and
  // sqrt(n) to 10, giving s_obs = 2.0 exactly like... it does not — so we
  // verify the formula directly at n = 100 with S = 20.)
  BitVec v(100);
  for (std::size_t i = 0; i < 60; ++i) v.set(i, true);  // S = 20
  EXPECT_NEAR(frequency_test(v),
              vkey::special::erfc(2.0 / std::sqrt(2.0)), 1e-12);
}

TEST(Nist, RunsClosedForm) {
  // A sequence with exactly balanced bits (pi = 1/2) and a known number of
  // runs: 50 "10" pairs -> V = 100 runs, expected 2*n*pi*(1-pi) = 50.
  // p = erfc(|100 - 50| / (2 * sqrt(200) * 0.25)).
  const BitVec v = alternating(100);
  const double expected =
      vkey::special::erfc(50.0 / (2.0 * std::sqrt(200.0) * 0.25));
  EXPECT_NEAR(runs_test(v), expected, 1e-12);
}

TEST(Nist, CumulativeSumsMaximalDriftIsRejected) {
  // All ones: the cumulative sum walks straight to n; p must be ~0.
  BitVec v(200);
  for (std::size_t i = 0; i < v.size(); ++i) v.set(i, true);
  EXPECT_LT(cumulative_sums_test(v), 1e-6);
}

// --- behavioural properties ---

TEST(Nist, AllOnesFailsFrequency) {
  BitVec v(1000);
  for (std::size_t i = 0; i < 1000; ++i) v.set(i, true);
  EXPECT_LT(frequency_test(v), 0.01);
}

TEST(Nist, RandomPassesFrequency) {
  EXPECT_GT(frequency_test(random_bits(10000, vkey::Rng(1))), 0.01);
}

TEST(Nist, AlternatingPassesFrequencyButFailsRuns) {
  const BitVec v = alternating(1000);
  EXPECT_GT(frequency_test(v), 0.01);  // perfectly balanced
  EXPECT_LT(runs_test(v), 0.01);       // way too many runs
}

TEST(Nist, BlockFrequencyCatchesClusteredBias) {
  BitVec v(2000);
  for (std::size_t i = 0; i < 1000; ++i) v.set(i, true);  // half 1s, half 0s
  EXPECT_LT(block_frequency_test(v, 100), 0.01);
  EXPECT_GT(block_frequency_test(random_bits(2000, vkey::Rng(2)), 100), 0.01);
}

TEST(Nist, LongestRunDetectsStructure) {
  // Long runs of ones (blocks of 64 ones / 64 zeros) must fail.
  BitVec v(12800);
  for (std::size_t i = 0; i < v.size(); ++i) v.set(i, (i / 64) % 2 == 0);
  EXPECT_LT(longest_run_test(v), 0.01);
  EXPECT_GT(longest_run_test(random_bits(12800, vkey::Rng(3))), 0.01);
}

TEST(Nist, DftDetectsPeriodicity) {
  const BitVec v = alternating(4096);
  EXPECT_LT(dft_test(v), 0.01);
  EXPECT_GT(dft_test(random_bits(4096, vkey::Rng(4))), 0.01);
}

TEST(Nist, CumulativeSumsDetectsDrift) {
  // Biased sequence drifts.
  vkey::Rng rng(5);
  BitVec v(5000);
  for (std::size_t i = 0; i < v.size(); ++i) v.set(i, rng.bernoulli(0.55));
  EXPECT_LT(cumulative_sums_test(v), 0.01);
  EXPECT_GT(cumulative_sums_test(random_bits(5000, vkey::Rng(6))), 0.01);
  EXPECT_GT(cumulative_sums_test(random_bits(5000, vkey::Rng(6)), false), 0.01);
}

TEST(Nist, ApproximateEntropyDetectsRepetition) {
  // Period-4 pattern has low entropy.
  BitVec v(4000);
  const char* pattern = "1101";
  for (std::size_t i = 0; i < v.size(); ++i) v.set(i, pattern[i % 4] == '1');
  EXPECT_LT(approximate_entropy_test(v), 0.01);
  EXPECT_GT(approximate_entropy_test(random_bits(4000, vkey::Rng(7))), 0.01);
}

TEST(Nist, NonOverlappingTemplateDetectsPlantedPattern) {
  // Plant the template 000000001 much more often than chance.
  BitVec v = random_bits(8000, vkey::Rng(8));
  for (std::size_t start = 0; start + 9 < v.size(); start += 40) {
    for (int j = 0; j < 8; ++j) v.set(start + static_cast<std::size_t>(j), false);
    v.set(start + 8, true);
  }
  EXPECT_LT(non_overlapping_template_test(v), 0.01);
  EXPECT_GT(non_overlapping_template_test(random_bits(8000, vkey::Rng(9))),
            0.01);
}

TEST(Nist, BerlekampMasseyKnownComplexities) {
  // Linear complexity of 1101011110001 (SP 800-22 example region): the
  // all-zero sequence has L = 0; a single trailing 1 has L = n.
  EXPECT_EQ(berlekamp_massey({0, 0, 0, 0}), 0u);
  EXPECT_EQ(berlekamp_massey({0, 0, 0, 1}), 4u);
  // An m-sequence from x^4 + x + 1 (period 15) has complexity 4.
  std::vector<std::uint8_t> lfsr;
  std::uint8_t state[4] = {1, 0, 0, 0};
  for (int i = 0; i < 30; ++i) {
    lfsr.push_back(state[3]);
    const std::uint8_t fb = static_cast<std::uint8_t>(state[3] ^ state[0]);
    state[3] = state[2];
    state[2] = state[1];
    state[1] = state[0];
    state[0] = fb;
  }
  EXPECT_EQ(berlekamp_massey(lfsr), 4u);
}

TEST(Nist, LinearComplexityPassesRandomFailsLfsr) {
  EXPECT_GT(linear_complexity_test(random_bits(5000, vkey::Rng(10))), 0.01);
  // A short-LFSR stream has tiny complexity in every block.
  BitVec v(5000);
  std::uint8_t s[4] = {1, 0, 0, 0};
  for (std::size_t i = 0; i < v.size(); ++i) {
    v.set(i, s[3] != 0);
    const std::uint8_t fb = static_cast<std::uint8_t>(s[3] ^ s[0]);
    s[3] = s[2]; s[2] = s[1]; s[1] = s[0]; s[0] = fb;
  }
  EXPECT_LT(linear_complexity_test(v), 0.01);
}

TEST(Nist, SuiteRunsAllTests) {
  const auto results = run_suite(random_bits(20000, vkey::Rng(11)));
  EXPECT_EQ(results.size(), 9u);
  int passed = 0;
  for (const auto& r : results) {
    EXPECT_TRUE(r.p_value.has_value()) << r.name;
    passed += r.pass();
  }
  EXPECT_GE(passed, 8);  // a true random stream passes essentially all
}

TEST(Nist, SuiteSkipsTestsOnShortInput) {
  const auto results = run_suite(random_bits(150, vkey::Rng(12)));
  bool any_skipped = false;
  for (const auto& r : results) {
    if (!r.p_value.has_value()) any_skipped = true;
  }
  EXPECT_TRUE(any_skipped);  // linear complexity needs >= 500 bits
}

TEST(Nist, InputLengthValidation) {
  EXPECT_THROW(frequency_test(BitVec(10)), vkey::Error);
  EXPECT_THROW(dft_test(BitVec(64)), vkey::Error);
  EXPECT_THROW(longest_run_test(BitVec(100)), vkey::Error);
}

// Distributional property: p-values of a healthy generator should span the
// unit interval (not cluster at 0) across independent streams.
class NistPValueSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NistPValueSweep, RandomStreamsPass) {
  const BitVec v = random_bits(8000, vkey::Rng(GetParam()));
  EXPECT_GT(frequency_test(v), 0.001);
  EXPECT_GT(runs_test(v), 0.001);
  EXPECT_GT(approximate_entropy_test(v), 0.001);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NistPValueSweep,
                         ::testing::Values(100, 200, 300, 400, 500));

// Cross-validation against a cryptographic generator: an AES-128-CTR
// keystream must pass the whole battery (if it does not, the tests — not
// the cipher — are wrong).
TEST(Nist, AesCtrKeystreamPassesBattery) {
  const std::array<std::uint8_t, 16> key = {1, 2,  3,  4,  5,  6,  7, 8,
                                            9, 10, 11, 12, 13, 14, 15, 16};
  vkey::crypto::Aes128 aes(key);
  const std::vector<std::uint8_t> zeros(4096, 0);
  const auto stream_bytes = aes.ctr_crypt(zeros, 99);
  const BitVec bits = BitVec::from_bytes(stream_bytes, 8 * stream_bytes.size());
  int passed = 0, run_count = 0;
  for (const auto& r : run_suite(bits)) {
    if (!r.p_value.has_value()) continue;
    ++run_count;
    passed += r.pass();
  }
  EXPECT_EQ(passed, run_count);
}

}  // namespace
}  // namespace vkey::nist
