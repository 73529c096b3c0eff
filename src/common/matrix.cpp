#include "common/matrix.h"

#include <cmath>

#include "common/error.h"

namespace vkey {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    VKEY_REQUIRE(row.size() == cols_, "ragged initializer for Matrix");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

double& Matrix::at(std::size_t r, std::size_t c) {
  VKEY_REQUIRE(r < rows_ && c < cols_, "Matrix index out of range");
  return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
  VKEY_REQUIRE(r < rows_ && c < cols_, "Matrix index out of range");
  return data_[r * cols_ + c];
}

Matrix Matrix::transpose() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  VKEY_REQUIRE(cols_ == rhs.rows_, "Matrix multiply shape mismatch");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) {
        out(r, c) += a * rhs(k, c);
      }
    }
  }
  return out;
}

std::vector<double> Matrix::mul_vec(const std::vector<double>& v) const {
  VKEY_REQUIRE(v.size() == cols_, "Matrix * vector shape mismatch");
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += (*this)(r, c) * v[c];
    out[r] = s;
  }
  return out;
}

std::vector<double> Matrix::solve(Matrix a, std::vector<double> b) {
  VKEY_REQUIRE(a.rows() == a.cols(), "solve requires a square matrix");
  VKEY_REQUIRE(b.size() == a.rows(), "solve rhs size mismatch");
  const std::size_t n = a.rows();
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t piv = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a(r, col)) > std::fabs(a(piv, col))) piv = r;
    }
    VKEY_REQUIRE(std::fabs(a(piv, col)) > 1e-12, "singular matrix in solve");
    if (piv != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a(col, c), a(piv, c));
      std::swap(b[col], b[piv]);
    }
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a(r, col) / a(col, col);
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a(r, c) -= f * a(col, c);
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double s = b[i];
    for (std::size_t c = i + 1; c < n; ++c) s -= a(i, c) * x[c];
    x[i] = s / a(i, i);
  }
  return x;
}

std::vector<double> Matrix::least_squares(const Matrix& a,
                                          const std::vector<double>& b) {
  VKEY_REQUIRE(a.rows() >= a.cols(), "least_squares needs rows >= cols");
  const Matrix at = a.transpose();
  Matrix ata = at * a;
  // Tikhonov-style jitter keeps near-collinear OMP supports solvable.
  for (std::size_t i = 0; i < ata.rows(); ++i) ata(i, i) += 1e-10;
  return solve(ata, at.mul_vec(b));
}

double norm2(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x * x;
  return std::sqrt(s);
}

}  // namespace vkey
