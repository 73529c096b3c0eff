// Blocked matrix kernels — see gemm.h for the layout and the bit-exactness
// contract. This translation unit is compiled with wider optimization flags
// than the rest of the library (-O3, -march=native where available) but
// with floating-point contraction OFF; together with the explicit
// mul-then-add intrinsics this pins the exact IEEE operation sequence per
// output row to the one the scalar reference executes.
#include "nn/gemm.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace vkey::nn {

void reference_matvec(const double* w, std::size_t rows, std::size_t cols,
                      const double* x, const double* bias, double* y) {
  for (std::size_t r = 0; r < rows; ++r) {
    double s = bias != nullptr ? bias[r] : 0.0;
    const double* wrow = w + r * cols;
    for (std::size_t c = 0; c < cols; ++c) s += wrow[c] * x[c];
    y[r] = s;
  }
}

void reference_matvec_transposed(const double* w, std::size_t rows,
                                 std::size_t cols, const double* dz,
                                 double* dx) {
  for (std::size_t c = 0; c < cols; ++c) dx[c] = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* wrow = w + r * cols;
    for (std::size_t c = 0; c < cols; ++c) dx[c] += dz[r] * wrow[c];
  }
}

void reference_accumulate_outer(Rows<const double> dz, Rows<const double> x,
                                std::size_t n, std::size_t rows,
                                std::size_t cols, double* grad) {
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t r = 0; r < rows; ++r) {
      double* grow = grad + r * cols;
      for (std::size_t c = 0; c < cols; ++c) grow[c] += dz[s][r] * x[s][c];
    }
  }
}

namespace {

// Portable tails: one accumulator chain per output element, in reference
// order. They finish whatever the register tiles below leave over (ragged
// columns or rows) and are the whole kernel on targets without AVX2.

// Columns [c0, cols) of one member's W^T dz.
void transposed_cols(const double* w, std::size_t rows, std::size_t cols,
                     std::size_t c0, const double* dz, double* dx) {
  for (std::size_t c = c0; c < cols; ++c) {
    double acc = 0.0;
    for (std::size_t r = 0; r < rows; ++r) acc += dz[r] * w[r * cols + c];
    dx[c] = acc;
  }
}

// grad[r][c] summed over all n terms.
void outer_element(Rows<const double> dz, Rows<const double> x,
                   std::size_t n, std::size_t r, std::size_t c, double* g) {
  double acc = *g;
  for (std::size_t s = 0; s < n; ++s) acc += dz[s][r] * x[s][c];
  *g = acc;
}

#if defined(__AVX2__)

// Register tiles: K independent 4-wide accumulators, each holding its
// elements across the whole reduction (explicit mul then add — never
// fused), so every element sees exactly the reference's operation order.
// K = 8 chains cover the add latency.

// One member, columns [0, 4K) of W^T dz; `w` points at the tile's column 0.
template <std::size_t K>
void transposed_tile(const double* w, std::size_t rows, std::size_t cols,
                     const double* dz, double* dx) {
  __m256d acc[K];
  for (std::size_t k = 0; k < K; ++k) acc[k] = _mm256_setzero_pd();
  for (std::size_t r = 0; r < rows; ++r) {
    const __m256d d = _mm256_set1_pd(dz[r]);
    const double* wr = w + r * cols;
    for (std::size_t k = 0; k < K; ++k)
      acc[k] = _mm256_add_pd(
          acc[k], _mm256_mul_pd(d, _mm256_loadu_pd(wr + 4 * k)));
  }
  for (std::size_t k = 0; k < K; ++k) _mm256_storeu_pd(dx + 4 * k, acc[k]);
}

// Four members, columns [c, c + 8): each weight load feeds four members,
// so a weight matrix too large for the cache streams once per four.
void transposed_quad(const double* w, std::size_t rows, std::size_t cols,
                     std::size_t c, Rows<const double> dz, Rows<double> dx) {
  __m256d acc[8];
  for (auto& a : acc) a = _mm256_setzero_pd();
  for (std::size_t r = 0; r < rows; ++r) {
    const double* wr = w + r * cols + c;
    const __m256d wlo = _mm256_loadu_pd(wr);
    const __m256d whi = _mm256_loadu_pd(wr + 4);
    for (std::size_t k = 0; k < 4; ++k) {
      const __m256d d = _mm256_set1_pd(dz[k][r]);
      acc[2 * k] = _mm256_add_pd(acc[2 * k], _mm256_mul_pd(d, wlo));
      acc[2 * k + 1] = _mm256_add_pd(acc[2 * k + 1], _mm256_mul_pd(d, whi));
    }
  }
  for (std::size_t k = 0; k < 4; ++k) {
    _mm256_storeu_pd(dx[k] + c, acc[2 * k]);
    _mm256_storeu_pd(dx[k] + c + 4, acc[2 * k + 1]);
  }
}

// Row r, columns [c, c + 4K): vectorized over columns.
template <std::size_t K>
void outer_cols_tile(Rows<const double> dz, Rows<const double> x,
                     std::size_t n, std::size_t r, std::size_t c, double* g) {
  __m256d acc[K];
  for (std::size_t k = 0; k < K; ++k) acc[k] = _mm256_loadu_pd(g + 4 * k);
  for (std::size_t s = 0; s < n; ++s) {
    const __m256d d = _mm256_set1_pd(dz[s][r]);
    const double* xs = x[s] + c;
    for (std::size_t k = 0; k < K; ++k)
      acc[k] = _mm256_add_pd(
          acc[k], _mm256_mul_pd(d, _mm256_loadu_pd(xs + 4 * k)));
  }
  for (std::size_t k = 0; k < K; ++k) _mm256_storeu_pd(g + 4 * k, acc[k]);
}

// Column c, rows [r0, r0 + 4K): vectorized over rows (narrow matrices).
template <std::size_t K>
void outer_rows_tile(Rows<const double> dz, Rows<const double> x,
                     std::size_t n, std::size_t r0, std::size_t c,
                     std::size_t cols, double* grad) {
  alignas(32) double g[4 * K];
  for (std::size_t k = 0; k < 4 * K; ++k) g[k] = grad[(r0 + k) * cols + c];
  __m256d acc[K];
  for (std::size_t k = 0; k < K; ++k) acc[k] = _mm256_load_pd(g + 4 * k);
  for (std::size_t s = 0; s < n; ++s) {
    const __m256d xc = _mm256_set1_pd(x[s][c]);
    const double* d = dz[s] + r0;
    for (std::size_t k = 0; k < K; ++k)
      acc[k] = _mm256_add_pd(
          acc[k], _mm256_mul_pd(_mm256_loadu_pd(d + 4 * k), xc));
  }
  for (std::size_t k = 0; k < K; ++k) _mm256_store_pd(g + 4 * k, acc[k]);
  for (std::size_t k = 0; k < 4 * K; ++k) grad[(r0 + k) * cols + c] = g[k];
}

#endif  // __AVX2__

}  // namespace

void matvec_transposed(const double* w, std::size_t rows, std::size_t cols,
                       Rows<const double> dz, std::size_t n, Rows<double> dx) {
  std::size_t m = 0;
#if defined(__AVX2__)
  for (; m + 4 <= n; m += 4) {
    std::size_t c = 0;
    for (; c + 8 <= cols; c += 8)
      transposed_quad(w, rows, cols, c, dz + m, dx + m);
    for (std::size_t k = m; k < m + 4; ++k)
      transposed_cols(w, rows, cols, c, dz[k], dx[k]);
  }
#endif
  for (; m < n; ++m) {
    std::size_t c = 0;
#if defined(__AVX2__)
    for (; c + 32 <= cols; c += 32)
      transposed_tile<8>(w + c, rows, cols, dz[m], dx[m] + c);
    for (; c + 8 <= cols; c += 8)
      transposed_tile<2>(w + c, rows, cols, dz[m], dx[m] + c);
#endif
    transposed_cols(w, rows, cols, c, dz[m], dx[m]);
  }
}

void accumulate_outer(Rows<const double> dz, Rows<const double> x,
                      std::size_t n, std::size_t rows, std::size_t cols,
                      double* grad) {
  if (cols < 8) {
    for (std::size_t c = 0; c < cols; ++c) {
      std::size_t r = 0;
#if defined(__AVX2__)
      for (; r + 32 <= rows; r += 32)
        outer_rows_tile<8>(dz, x, n, r, c, cols, grad);
      for (; r + 8 <= rows; r += 8)
        outer_rows_tile<2>(dz, x, n, r, c, cols, grad);
#endif
      for (; r < rows; ++r) outer_element(dz, x, n, r, c, grad + r * cols + c);
    }
    return;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    double* grow = grad + r * cols;
    std::size_t c = 0;
#if defined(__AVX2__)
    for (; c + 32 <= cols; c += 32)
      outer_cols_tile<8>(dz, x, n, r, c, grow + c);
    for (; c + 8 <= cols; c += 8) outer_cols_tile<2>(dz, x, n, r, c, grow + c);
#endif
    for (; c < cols; ++c) outer_element(dz, x, n, r, c, grow + c);
  }
}

void PackedMatrix::pack(const double* w, std::size_t rows, std::size_t cols) {
  VKEY_REQUIRE(rows > 0 && cols > 0, "PackedMatrix::pack: empty shape");
  rows_ = rows;
  cols_ = cols;
  panels_ = (rows + kPanelRows - 1) / kPanelRows;
  data_.assign(panels_ * cols * kPanelRows, 0.0);
  for (std::size_t p = 0; p < panels_; ++p) {
    const std::size_t row0 = p * kPanelRows;
    const std::size_t live = std::min(kPanelRows, rows - row0);
    double* panel = &data_[p * cols * kPanelRows];
    for (std::size_t r = 0; r < live; ++r) {
      const double* wrow = w + (row0 + r) * cols;
      for (std::size_t c = 0; c < cols; ++c)
        panel[c * kPanelRows + r] = wrow[c];
    }
  }
}

void PackedMatrix::pack_pair(const double* wa, std::size_t cols_a,
                             const double* wb, std::size_t cols_b,
                             std::size_t rows) {
  VKEY_REQUIRE(rows > 0 && cols_a > 0 && cols_b > 0,
               "PackedMatrix::pack_pair: empty shape");
  rows_ = rows;
  cols_ = cols_a + cols_b;
  panels_ = (rows + kPanelRows - 1) / kPanelRows;
  data_.assign(panels_ * cols_ * kPanelRows, 0.0);
  for (std::size_t p = 0; p < panels_; ++p) {
    const std::size_t row0 = p * kPanelRows;
    const std::size_t live = std::min(kPanelRows, rows - row0);
    double* panel = &data_[p * cols_ * kPanelRows];
    for (std::size_t r = 0; r < live; ++r) {
      const double* arow = wa + (row0 + r) * cols_a;
      for (std::size_t c = 0; c < cols_a; ++c)
        panel[c * kPanelRows + r] = arow[c];
      const double* brow = wb + (row0 + r) * cols_b;
      for (std::size_t c = 0; c < cols_b; ++c)
        panel[(cols_a + c) * kPanelRows + r] = brow[c];
    }
  }
}

namespace {

// Portable single-panel loop: kPanelRows independent accumulators, columns
// ascending — the panel-shaped restatement of reference_matvec. Used for
// tail panels and as the non-AVX2 fallback.
void panel_matvec(const double* panel, std::size_t row0, std::size_t live,
                  std::size_t cols, const double* x, const double* bias,
                  double* y) {
  double acc[kPanelRows];
  for (std::size_t r = 0; r < kPanelRows; ++r)
    acc[r] = (bias != nullptr && r < live) ? bias[row0 + r] : 0.0;
  for (std::size_t c = 0; c < cols; ++c) {
    const double xc = x[c];
    const double* col = panel + c * kPanelRows;
    for (std::size_t r = 0; r < kPanelRows; ++r) acc[r] += col[r] * xc;
  }
  for (std::size_t r = 0; r < live; ++r) y[row0 + r] = acc[r];
}

}  // namespace

void PackedMatrix::matvec(const double* x, const double* bias,
                          double* y) const {
  const std::size_t cols = cols_;
  std::size_t p = 0;
#if defined(__AVX2__)
  // Four panels interleaved: eight 256-bit accumulators keep eight
  // independent add chains in flight, which covers the vaddpd latency that
  // serializes a single-panel loop. Explicit mul-then-add: never fused.
  for (; (p + 4) * kPanelRows <= rows_; p += 4) {
    const double* p0 = &data_[(p + 0) * cols * kPanelRows];
    const double* p1 = &data_[(p + 1) * cols * kPanelRows];
    const double* p2 = &data_[(p + 2) * cols * kPanelRows];
    const double* p3 = &data_[(p + 3) * cols * kPanelRows];
    const std::size_t row0 = p * kPanelRows;
    __m256d a0, a1, a2, a3, a4, a5, a6, a7;
    if (bias != nullptr) {
      a0 = _mm256_loadu_pd(bias + row0);
      a1 = _mm256_loadu_pd(bias + row0 + 4);
      a2 = _mm256_loadu_pd(bias + row0 + 8);
      a3 = _mm256_loadu_pd(bias + row0 + 12);
      a4 = _mm256_loadu_pd(bias + row0 + 16);
      a5 = _mm256_loadu_pd(bias + row0 + 20);
      a6 = _mm256_loadu_pd(bias + row0 + 24);
      a7 = _mm256_loadu_pd(bias + row0 + 28);
    } else {
      a0 = a1 = a2 = a3 = a4 = a5 = a6 = a7 = _mm256_setzero_pd();
    }
    for (std::size_t c = 0; c < cols; ++c) {
      const __m256d xc = _mm256_set1_pd(x[c]);
      const std::size_t o = c * kPanelRows;
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(p0 + o), xc));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(p0 + o + 4), xc));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(p1 + o), xc));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(p1 + o + 4), xc));
      a4 = _mm256_add_pd(a4, _mm256_mul_pd(_mm256_loadu_pd(p2 + o), xc));
      a5 = _mm256_add_pd(a5, _mm256_mul_pd(_mm256_loadu_pd(p2 + o + 4), xc));
      a6 = _mm256_add_pd(a6, _mm256_mul_pd(_mm256_loadu_pd(p3 + o), xc));
      a7 = _mm256_add_pd(a7, _mm256_mul_pd(_mm256_loadu_pd(p3 + o + 4), xc));
    }
    _mm256_storeu_pd(y + row0, a0);
    _mm256_storeu_pd(y + row0 + 4, a1);
    _mm256_storeu_pd(y + row0 + 8, a2);
    _mm256_storeu_pd(y + row0 + 12, a3);
    _mm256_storeu_pd(y + row0 + 16, a4);
    _mm256_storeu_pd(y + row0 + 20, a5);
    _mm256_storeu_pd(y + row0 + 24, a6);
    _mm256_storeu_pd(y + row0 + 28, a7);
  }
#endif
  for (; p < panels_; ++p) {
    const std::size_t row0 = p * kPanelRows;
    panel_matvec(&data_[p * cols * kPanelRows], row0,
                 std::min(kPanelRows, rows_ - row0), cols, x, bias, y);
  }
}

namespace {
// int8 columns processed per SIMD iteration (and the padded-column unit).
constexpr std::size_t kQuantStride = 16;
}  // namespace

void QuantizedMatrix::pack(const double* w, std::size_t rows,
                           std::size_t cols) {
  VKEY_REQUIRE(rows > 0 && cols > 0, "QuantizedMatrix::pack: empty shape");
  rows_ = rows;
  cols_ = cols;
  cols_padded_ = (cols + kQuantStride - 1) / kQuantStride * kQuantStride;
  data_.assign(rows * cols_padded_, 0);
  row_scale_.assign(rows, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    const double* wrow = w + r * cols;
    double absmax = 0.0;
    for (std::size_t c = 0; c < cols; ++c)
      absmax = std::max(absmax, std::fabs(wrow[c]));
    if (absmax == 0.0) continue;  // all-zero row: scale 0, weights stay 0
    row_scale_[r] = absmax / 127.0;
    const double inv = 127.0 / absmax;
    std::int8_t* qrow = &data_[r * cols_padded_];
    for (std::size_t c = 0; c < cols; ++c) {
      const long q = std::lround(wrow[c] * inv);
      qrow[c] = static_cast<std::int8_t>(std::clamp<long>(q, -127, 127));
    }
  }
}

void QuantizedMatrix::pack_pair(const double* wa, std::size_t cols_a,
                                const double* wb, std::size_t cols_b,
                                std::size_t rows) {
  VKEY_REQUIRE(rows > 0 && cols_a > 0 && cols_b > 0,
               "QuantizedMatrix::pack_pair: empty shape");
  std::vector<double> merged(rows * (cols_a + cols_b));
  for (std::size_t r = 0; r < rows; ++r) {
    double* row = &merged[r * (cols_a + cols_b)];
    std::copy(wa + r * cols_a, wa + (r + 1) * cols_a, row);
    std::copy(wb + r * cols_b, wb + (r + 1) * cols_b, row + cols_a);
  }
  pack(merged.data(), rows, cols_a + cols_b);
}

double QuantizedMatrix::quantize_input(const double* x, std::size_t n,
                                       std::int8_t* xq) {
  double absmax = 0.0;
  for (std::size_t c = 0; c < n; ++c)
    absmax = std::max(absmax, std::fabs(x[c]));
  if (absmax == 0.0) {
    std::fill(xq, xq + n, static_cast<std::int8_t>(0));
    return 0.0;
  }
  const double inv = 127.0 / absmax;
  for (std::size_t c = 0; c < n; ++c) {
    const long q = std::lround(x[c] * inv);
    xq[c] = static_cast<std::int8_t>(std::clamp<long>(q, -127, 127));
  }
  return absmax / 127.0;
}

// int32 accumulation is exact: |acc| <= cols * 127 * 127, which even for
// the 4096-column prediction head stays below 2^27.
//
// The caller's xq buffer must be padded to a kQuantStride multiple with
// zeros (the layers size their scratch that way); the weight rows are
// stored zero-padded, so the padded lanes contribute exact zeros.
void QuantizedMatrix::matvec(const std::int8_t* xq, double x_scale,
                             const double* bias, double* y) const {
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::int8_t* qrow = &data_[r * cols_padded_];
    std::int32_t acc = 0;
#if defined(__AVX2__)
    __m256i vacc = _mm256_setzero_si256();
    for (std::size_t c = 0; c < cols_padded_; c += kQuantStride) {
      const __m256i wv = _mm256_cvtepi8_epi16(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(qrow + c)));
      const __m256i xv = _mm256_cvtepi8_epi16(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(xq + c)));
      vacc = _mm256_add_epi32(vacc, _mm256_madd_epi16(wv, xv));
    }
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(vacc),
                              _mm256_extracti128_si256(vacc, 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0x4e));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, 0xb1));
    acc = _mm_cvtsi128_si32(s);
#else
    for (std::size_t c = 0; c < cols_; ++c)
      acc += static_cast<std::int32_t>(qrow[c]) *
             static_cast<std::int32_t>(xq[c]);
#endif
    y[r] = (bias != nullptr ? bias[r] : 0.0) +
           row_scale_[r] * x_scale * static_cast<double>(acc);
  }
}

namespace {

// Clamped Pade(7,6) tanh: max |error| vs std::tanh is ~1e-4 (at the clamp
// boundary), far below the KAR sensitivity the ablation table measures.
// Branch-free, so the loops below vectorize.
inline double tanh_poly(double x) {
  const double xc = std::clamp(x, -4.97, 4.97);
  const double x2 = xc * xc;
  const double p = xc * (135135.0 + x2 * (17325.0 + x2 * (378.0 + x2)));
  const double q =
      135135.0 + x2 * (62370.0 + x2 * (3150.0 + x2 * 28.0));
  return p / q;
}

}  // namespace

void tanh_approx(const double* x, std::size_t n, double* y) {
  for (std::size_t i = 0; i < n; ++i) y[i] = tanh_poly(x[i]);
}

void sigmoid_approx(const double* x, std::size_t n, double* y) {
  for (std::size_t i = 0; i < n; ++i)
    y[i] = 0.5 * (1.0 + tanh_poly(0.5 * x[i]));
}

}  // namespace vkey::nn
