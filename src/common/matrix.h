// Small dense matrix algebra.
//
// Used by the compressed-sensing reconciliation baseline (sensing matrices,
// OMP least-squares solves) and by a few evaluation utilities. This is a
// deliberately simple row-major double matrix: sizes in these code paths are
// tens-by-tens, so clarity wins over BLAS-grade optimization. The neural
// network library has its own tensor type tuned for its access patterns.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

namespace vkey {

class Matrix {
 public:
  Matrix() = default;

  /// rows x cols zero matrix.
  Matrix(std::size_t rows, std::size_t cols);

  /// From nested initializer lists (all rows must have equal length).
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Unchecked access for hot loops.
  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  Matrix transpose() const;
  Matrix operator*(const Matrix& rhs) const;

  /// Matrix-vector product (vector length must equal cols()).
  std::vector<double> mul_vec(const std::vector<double>& v) const;

  /// Solve A x = b via Gaussian elimination with partial pivoting.
  /// A must be square and non-singular (throws vkey::Error otherwise).
  static std::vector<double> solve(Matrix a, std::vector<double> b);

  /// Least-squares solve min ||A x - b||_2 via normal equations
  /// (A^T A) x = A^T b. Suitable for the small well-conditioned systems OMP
  /// produces. A.rows() >= A.cols() required.
  static std::vector<double> least_squares(const Matrix& a,
                                           const std::vector<double>& b);

  const std::vector<double>& data() const { return data_; }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean norm of a vector.
double norm2(const std::vector<double>& v);

}  // namespace vkey
