#include "cs/compressed_sensing.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace vkey::cs {
namespace {

TEST(SensingMatrix, ShapeAndScale) {
  const Matrix phi = make_sensing_matrix(20, 64, 1);
  EXPECT_EQ(phi.rows(), 20u);
  EXPECT_EQ(phi.cols(), 64u);
  const double expected = 1.0 / std::sqrt(20.0);
  for (std::size_t r = 0; r < 20; ++r) {
    for (std::size_t c = 0; c < 64; ++c) {
      EXPECT_NEAR(std::fabs(phi(r, c)), expected, 1e-12);
    }
  }
}

TEST(SensingMatrix, DeterministicPerSeed) {
  const Matrix a = make_sensing_matrix(4, 8, 7);
  const Matrix b = make_sensing_matrix(4, 8, 7);
  EXPECT_EQ(a.data(), b.data());
  const Matrix c = make_sensing_matrix(4, 8, 8);
  EXPECT_NE(a.data(), c.data());
}

TEST(Omp, RecoversExactlySparseVector) {
  vkey::Rng rng(3);
  const Matrix phi = make_sensing_matrix(24, 64, 5);
  std::vector<double> x(64, 0.0);
  x[5] = 1.0;
  x[17] = -1.0;
  x[40] = 1.0;
  const auto y = phi.mul_vec(x);
  const auto r = omp(phi, y, 6);
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NEAR(r.x[i], x[i], 1e-6) << "index " << i;
  }
  EXPECT_LE(r.iterations, 6u);
  EXPECT_LT(r.residual_norm, 1e-6);
}

TEST(Omp, ZeroMeasurementGivesZero) {
  const Matrix phi = make_sensing_matrix(10, 32, 9);
  const auto r = omp(phi, std::vector<double>(10, 0.0), 5);
  for (double v : r.x) EXPECT_DOUBLE_EQ(v, 0.0);
  EXPECT_EQ(r.iterations, 0u);
}

TEST(Omp, IterationsBoundedBySparsity) {
  vkey::Rng rng(11);
  const Matrix phi = make_sensing_matrix(16, 48, 13);
  std::vector<double> y(16);
  for (auto& v : y) v = rng.gaussian();
  const auto r = omp(phi, y, 4);
  EXPECT_LE(r.iterations, 4u);
}

TEST(Omp, MeasurementSizeChecked) {
  const Matrix phi = make_sensing_matrix(10, 32, 1);
  EXPECT_THROW(omp(phi, std::vector<double>(5), 3), vkey::Error);
}

TEST(CsSyndrome, MatchesMatrixProduct) {
  const Matrix phi = make_sensing_matrix(8, 16, 2);
  BitVec key(16);
  key.set(0, true);
  key.set(7, true);
  const auto s = cs_syndrome(phi, key);
  const auto expect = phi.mul_vec(key.to_doubles());
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_DOUBLE_EQ(s[i], expect[i]);
  }
}

TEST(CsReconcile, CorrectsSparseMismatch) {
  vkey::Rng rng(17);
  const Matrix phi = make_sensing_matrix(20, 64, 19);
  int success = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    const BitVec kb = random_bits(64, rng);
    // Flip 3 random positions (within OMP's reliable radius for 20x64).
    const BitVec ka = with_flips(kb, 3, rng);
    const auto syn = cs_syndrome(phi, kb);
    success += cs_reconcile(phi, ka, syn, 8).corrected == kb;
  }
  EXPECT_GE(success, trials * 8 / 10);
}

TEST(CsReconcile, NoMismatchIsNoOp) {
  const Matrix phi = make_sensing_matrix(20, 64, 23);
  const BitVec k = random_bits(64, vkey::Rng(29));
  const auto rec = cs_reconcile(phi, k, cs_syndrome(phi, k), 8);
  EXPECT_EQ(rec.corrected, k);
  EXPECT_EQ(rec.iterations, 0u);
}

TEST(CsReconcile, DegradesGracefullyWhenTooDense) {
  // Beyond the sparsity radius the correction is imperfect but must not
  // crash and must return a key of the right size.
  vkey::Rng rng(31);
  const Matrix phi = make_sensing_matrix(20, 64, 37);
  const BitVec kb = random_bits(64, rng);
  const BitVec ka = with_noise(kb, 0.4, rng);
  const auto rec = cs_reconcile(phi, ka, cs_syndrome(phi, kb), 10);
  EXPECT_EQ(rec.corrected.size(), 64u);
}

TEST(CsReconcile, KeySizeChecked) {
  const Matrix phi = make_sensing_matrix(20, 64, 41);
  EXPECT_THROW(cs_reconcile(phi, BitVec(32), std::vector<double>(20), 5),
               vkey::Error);
}

// Property sweep: recovery probability across sparsity levels. OMP over a
// 20x64 Bernoulli matrix reliably recovers up to ~4 flips.
class OmpSparsitySweep : public ::testing::TestWithParam<int> {};

TEST_P(OmpSparsitySweep, HighRecoveryWithinRadius) {
  const int flips = GetParam();
  vkey::Rng rng(100 + static_cast<std::uint64_t>(flips));
  const Matrix phi = make_sensing_matrix(20, 64, 43);
  int ok = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const BitVec kb = random_bits(64, rng);
    const BitVec ka = with_flips(kb, flips, rng);
    ok += cs_reconcile(phi, ka, cs_syndrome(phi, kb), 10).corrected == kb;
  }
  const int required = flips <= 2 ? trials * 8 / 10 : trials * 5 / 10;
  EXPECT_GE(ok, required) << flips << " flips";
}

INSTANTIATE_TEST_SUITE_P(SparsityLevels, OmpSparsitySweep,
                         ::testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace vkey::cs
