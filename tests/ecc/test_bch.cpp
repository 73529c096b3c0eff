#include "ecc/bch.h"

#include <gtest/gtest.h>

#include <set>

#include "common/error.h"
#include "common/rng.h"

namespace vkey::ecc {
namespace {

TEST(Bch, KnownDimensions) {
  // BCH(15, 7, 2) and BCH(15, 5, 3) are textbook codes.
  EXPECT_EQ(BchCode(4, 2).k(), 7);
  EXPECT_EQ(BchCode(4, 3).k(), 5);
  // BCH(127, 106, 3), BCH(127, 64, 10) (standard table values).
  EXPECT_EQ(BchCode(7, 3).k(), 106);
  EXPECT_EQ(BchCode(7, 10).k(), 64);
}

TEST(Bch, TTooLargeRejected) {
  EXPECT_THROW(BchCode(4, 8), vkey::Error);
}

TEST(Bch, CleanCodewordDecodesToItself) {
  BchCode code(6, 3);
  vkey::Rng rng(1);
  const BitVec info = random_bits(static_cast<std::size_t>(code.k()), rng);
  const BitVec cw = code.encode(info);
  const auto d = code.decode(cw);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->errors, 0u);
  EXPECT_EQ(code.info_of(d->codeword), info);
}

TEST(Bch, CorrectsUpToTErrors) {
  BchCode code(7, 5);
  vkey::Rng rng(2);
  for (int trial = 0; trial < 25; ++trial) {
    const BitVec info = random_bits(static_cast<std::size_t>(code.k()), rng);
    BitVec cw = code.encode(info);
    const int nerr = 1 + static_cast<int>(rng.uniform_int(
                             static_cast<std::uint64_t>(code.t())));
    std::set<std::size_t> positions;
    while (static_cast<int>(positions.size()) < nerr) {
      positions.insert(static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::uint64_t>(code.n()))));
    }
    for (auto p : positions) cw.flip(p);
    const auto d = code.decode(cw);
    ASSERT_TRUE(d.has_value()) << "trial " << trial;
    EXPECT_EQ(d->errors, positions.size());
    EXPECT_EQ(code.info_of(d->codeword), info);
  }
}

TEST(Bch, FailsCleanlyBeyondT) {
  BchCode code(6, 2);
  vkey::Rng rng(3);
  int failures = 0;
  const int trials = 30;
  for (int trial = 0; trial < trials; ++trial) {
    const BitVec info = random_bits(static_cast<std::size_t>(code.k()), rng);
    BitVec cw = code.encode(info);
    // Flip t + 3 distinct positions: decoding must fail or mis-decode to a
    // *valid* codeword (never crash); most of the time it reports failure.
    std::set<std::size_t> positions;
    while (positions.size() < static_cast<std::size_t>(code.t() + 3)) {
      positions.insert(static_cast<std::size_t>(
          rng.uniform_int(static_cast<std::uint64_t>(code.n()))));
    }
    for (auto p : positions) cw.flip(p);
    const auto d = code.decode(cw);
    if (!d.has_value()) {
      ++failures;
    }
  }
  EXPECT_GT(failures, trials / 2);
}

TEST(Bch, ParityIsLinear) {
  BchCode code(5, 2);
  vkey::Rng rng(4);
  const BitVec a = random_bits(static_cast<std::size_t>(code.k()), rng);
  const BitVec b = random_bits(static_cast<std::size_t>(code.k()), rng);
  EXPECT_EQ(code.parity(a) ^ code.parity(b), code.parity(a ^ b));
}

TEST(Bch, InputWidthsChecked) {
  BchCode code(5, 2);
  EXPECT_THROW(code.parity(BitVec(3)), vkey::Error);
  EXPECT_THROW(code.decode(BitVec(5)), vkey::Error);
}

TEST(BchReconciler, RoundTripWithinRadius) {
  // BCH(127, 64, t=10) protecting a 64-bit key: the workhorse configuration.
  BchReconciler rec(7, 10, 64);
  vkey::Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    const BitVec kb = random_bits(64, rng);
    const BitVec ka = with_noise(kb, 0.08, rng);  // ~5 errors, well inside t=10
    const auto helper = rec.helper_data(kb);
    const auto fixed = rec.reconcile(ka, helper);
    ASSERT_TRUE(fixed.has_value()) << trial;
    EXPECT_EQ(*fixed, kb);
  }
}

TEST(BchReconciler, FailsBeyondRadius) {
  BchReconciler rec(7, 4, 64);
  vkey::Rng rng(6);
  const BitVec kb = random_bits(64, rng);
  BitVec ka = kb;
  for (std::size_t i = 0; i < 20; ++i) ka.flip(i);  // 20 > t = 4
  EXPECT_FALSE(rec.reconcile(ka, rec.helper_data(kb)).has_value());
}

TEST(BchReconciler, KeyMustFitCode) {
  EXPECT_THROW(BchReconciler(4, 2, 64), vkey::Error);  // k = 7 < 64
}

TEST(BchReconciler, LeakageAccounting) {
  BchReconciler rec(7, 10, 64);
  // Code-offset leaks exactly the parity width.
  EXPECT_EQ(rec.code().parity_bits(), 63);
  EXPECT_EQ(rec.helper_data(BitVec(64)).size(), 63u);
}

}  // namespace
}  // namespace vkey::ecc
