#include "common/matrix.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace vkey {
namespace {

TEST(Matrix, ZeroInitialized) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(m.at(r, c), 0.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_DOUBLE_EQ(m.at(0, 1), 2.0);
  EXPECT_DOUBLE_EQ(m.at(1, 0), 3.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), Error);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), Error);
  EXPECT_THROW(m.at(0, 2), Error);
}

TEST(Matrix, MultiplyKnownResult) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix b{{7.0, 8.0}, {9.0, 10.0}, {11.0, 12.0}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(Matrix, MultiplyShapeMismatchThrows) {
  EXPECT_THROW(Matrix(2, 3) * Matrix(2, 3), Error);
}

TEST(Matrix, TransposeInvolution) {
  const Matrix a{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  const Matrix t = a.transpose();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_DOUBLE_EQ(t.at(2, 1), 6.0);
  const Matrix tt = t.transpose();
  EXPECT_DOUBLE_EQ(tt.at(1, 2), 6.0);
}

TEST(Matrix, MulVec) {
  const Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  const auto y = a.mul_vec({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(Matrix, SolveKnownSystem) {
  const Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const auto x = Matrix::solve(a, {3.0, 5.0});
  EXPECT_NEAR(x[0], 0.8, 1e-12);
  EXPECT_NEAR(x[1], 1.4, 1e-12);
}

TEST(Matrix, SolveSingularThrows) {
  const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  EXPECT_THROW(Matrix::solve(a, {1.0, 2.0}), Error);
}

TEST(Matrix, SolveRandomSystemsRoundTrip) {
  Rng rng(3);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 5;
    Matrix a(n, n);
    std::vector<double> x_true(n);
    for (std::size_t r = 0; r < n; ++r) {
      x_true[r] = rng.gaussian();
      for (std::size_t c = 0; c < n; ++c) a(r, c) = rng.gaussian();
      a(r, r) += 3.0;  // keep well-conditioned
    }
    const auto b = a.mul_vec(x_true);
    const auto x = Matrix::solve(a, b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-9);
  }
}

TEST(Matrix, LeastSquaresExactForSquare) {
  const Matrix a{{2.0, 0.0}, {0.0, 4.0}};
  const auto x = Matrix::least_squares(a, {2.0, 8.0});
  EXPECT_NEAR(x[0], 1.0, 1e-8);
  EXPECT_NEAR(x[1], 2.0, 1e-8);
}

TEST(Matrix, LeastSquaresOverdetermined) {
  // Fit y = 2x + 1 through noisy-free points: exact recovery.
  Matrix a(4, 2);
  std::vector<double> b(4);
  for (std::size_t i = 0; i < 4; ++i) {
    const double x = static_cast<double>(i);
    a(i, 0) = x;
    a(i, 1) = 1.0;
    b[i] = 2.0 * x + 1.0;
  }
  const auto coef = Matrix::least_squares(a, b);
  EXPECT_NEAR(coef[0], 2.0, 1e-8);
  EXPECT_NEAR(coef[1], 1.0, 1e-8);
}

TEST(VectorOps, NormAndDot) {
  EXPECT_DOUBLE_EQ(norm2({3.0, 4.0}), 5.0);
}

}  // namespace
}  // namespace vkey
