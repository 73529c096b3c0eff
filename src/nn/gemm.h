// Blocked matrix kernels for vkey::nn — the NN inference and training core.
//
// Why this exists: the naive per-row dot products in the Dense layer and the
// LSTM cell accumulate through ONE floating-point chain per row, so the CPU
// spends almost every cycle waiting on add latency, and the LSTM cell
// additionally allocated ~8 vectors per time step. The kernels here fix
// both without changing a single bit of the float results:
//
//   * Panel packing. Weights are repacked into row panels of kPanelRows
//     rows; within a panel, storage is column-interleaved, so the inner
//     loop advances kPanelRows *independent* accumulators — one per output
//     row — with unit-stride vector loads. The main loop interleaves four
//     panels (32 rows, eight 256-bit accumulators) to cover the FP add
//     latency.
//   * Order preservation. Each output row still accumulates bias first,
//     then the columns in ascending order, exactly like the naive loop.
//     Rows never share an accumulator, so no floating-point reassociation
//     happens, and the explicit mul-then-add intrinsics (plus
//     -ffp-contract=off on this TU) keep FMA fusion out of the chain. The
//     result is bit-identical to the scalar reference on every input (see
//     DESIGN.md "NN kernel core").
//   * Preallocated scratch. Callers pass output storage; the kernels
//     allocate nothing.
//
// The reference kernels (`reference_*`) implement the original naive loops
// and are retained forever: the golden-vector suite in
// tests/nn/test_gemm.cpp asserts bit-equality between the two on every
// shape the layers use.
//
// Training runs through the same core: `matvec_transposed` (every layer's
// input gradient) and `accumulate_outer` (every weight and bias gradient,
// summed over a mini-batch's members or an LSTM's steps in order) keep the
// reference accumulation order per output element, so trained weights are
// bit-identical to the naive backward loops (DESIGN.md "NN kernel core",
// "Training kernels"). Operands are `Rows` at a signed stride: negative for
// BPTT's steps (last first, as BLAS allows), zero for a bias's ones column.
//
// `QuantizedMatrix` plus the *_approx activations are the optional int8
// path (per-row weight scales, per-vector dynamic input scale, exact int32
// accumulation, polynomial gate activations). It is NOT bit-exact with the
// float path by construction; PredictorConfig::quantized gates it and
// bench_ablation measures the key-agreement-rate delta.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace vkey::nn {

/// Rows per packed panel (one cache line of doubles; two 256-bit vectors).
/// The value is part of the packed layout, not tunable per call.
inline constexpr std::size_t kPanelRows = 8;

/// Naive reference kernel: y[r] = bias[r] + sum_c w[r*cols + c] * x[c],
/// one accumulator per row, columns in ascending order. This is the
/// original Dense / LSTM gate loop, kept as the bit-exactness
/// reference for the packed kernels.
void reference_matvec(const double* w, std::size_t rows, std::size_t cols,
                      const double* x, const double* bias, double* y);

/// Rows at a signed stride: row s starts at base + s * stride; + m skips m.
template <typename T>
struct Rows {
  T* base;
  std::ptrdiff_t stride;
  T* operator[](std::size_t s) const {
    return base + static_cast<std::ptrdiff_t>(s) * stride;
  }
  Rows operator+(std::size_t m) const { return {(*this)[m], stride}; }
};

/// Naive reference: dx[c] = sum_r dz[r] * w[r*cols + c], one accumulator
/// per column starting at 0.0, rows in ascending order — the input-gradient
/// loop the layers' backward passes started with.
void reference_matvec_transposed(const double* w, std::size_t rows,
                                 std::size_t cols, const double* dz,
                                 double* dx);

/// dx[m] = W^T dz[m] for each of `n` members and a row-major `rows x cols`
/// W: every Dense layer's input gradient over a mini-batch's rows, and each
/// LSTM step's recurrent dh (n = 1). Register tiles span columns and, four
/// at a time, members, so one pass over W serves four members; each
/// column's sum still starts at 0.0 and adds rows in ascending order, so
/// every dx[m] is bit-identical to reference_matvec_transposed on dz[m].
void matvec_transposed(const double* w, std::size_t rows, std::size_t cols,
                       Rows<const double> dz, std::size_t n, Rows<double> dx);

/// Naive reference: grad[r*cols + c] += dz[s][r] * x[s][c] for
/// s = 0 ... n-1 in order, one read-modify-write per term.
void reference_accumulate_outer(Rows<const double> dz, Rows<const double> x,
                                std::size_t n, std::size_t rows,
                                std::size_t cols, double* grad);

/// Weight-gradient accumulation: grad[r][c] += dz[s][r] * x[s][c] for
/// s = 0 ... n-1 in order (a mini-batch's members, or an LSTM's steps at a
/// negative stride, last processed first). Each element is held in a
/// register across all n terms and added in the same order as the
/// reference, so the result is bit-identical to reference_accumulate_outer.
/// Wide shapes vectorize over columns; narrow ones (cols < 8: the LSTM's
/// input weights, a bias as a ones column at stride 0) vectorize over rows.
void accumulate_outer(Rows<const double> dz, Rows<const double> x,
                      std::size_t n, std::size_t rows, std::size_t cols,
                      double* grad);

/// Row-major matrix repacked into kPanelRows-row panels with
/// column-interleaved storage:
///   data[(panel * cols + c) * kPanelRows + r]
///       == w[(panel * kPanelRows + r) * cols + c]
/// Tail rows of the last panel are zero-padded.
class PackedMatrix {
 public:
  PackedMatrix() = default;

  /// Repack from a row-major `rows x cols` weight array.
  void pack(const double* w, std::size_t rows, std::size_t cols);

  /// Repack from two row-concatenated blocks: row r of the packed matrix is
  /// [wa row r (cols_a wide) | wb row r (cols_b wide)]. This fuses the LSTM
  /// Wx/Wh pair into one 4H x (input + hidden) matrix whose column order
  /// matches the cell's accumulation order (x features first, then h).
  void pack_pair(const double* wa, std::size_t cols_a, const double* wb,
                 std::size_t cols_b, std::size_t rows);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  /// y[r] = bias[r] + sum_c w[r][c] * x[c]; bias may be null (start at 0).
  /// Bit-identical to reference_matvec on the same inputs.
  void matvec(const double* x, const double* bias, double* y) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t panels_ = 0;
  std::vector<double> data_;
};

/// Int8-quantized row-major matrix: per-row symmetric scales
/// (scale_r = max|w_r| / 127), exact int32 accumulation, dequantized as
///   y[r] = bias[r] + scale_r * x_scale * sum_c wq[r][c] * xq[c].
/// Inputs are quantized dynamically per vector via quantize_input().
class QuantizedMatrix {
 public:
  QuantizedMatrix() = default;

  void pack(const double* w, std::size_t rows, std::size_t cols);

  /// Fused-pair packing, mirroring PackedMatrix::pack_pair. Each row is
  /// scaled as one unit so the dequantization stays a single per-row scale.
  void pack_pair(const double* wa, std::size_t cols_a, const double* wb,
                 std::size_t cols_b, std::size_t rows);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  /// Input scratch for matvec() must hold this many int8 lanes (cols
  /// rounded up to the SIMD stride), zero-filled past cols().
  std::size_t padded_cols() const noexcept { return cols_padded_; }
  bool empty() const noexcept { return data_.empty(); }

  /// Quantize x[0..n) into xq with a symmetric per-vector scale; returns
  /// the scale (0.0 for an all-zero vector, with xq zeroed).
  static double quantize_input(const double* x, std::size_t n,
                               std::int8_t* xq);

  /// y[r] = bias[r] + row_scale[r] * x_scale * acc_r (bias may be null).
  void matvec(const std::int8_t* xq, double x_scale, const double* bias,
              double* y) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t cols_padded_ = 0;     ///< cols rounded up to a SIMD multiple
  std::vector<std::int8_t> data_;   ///< row-major int8, zero-padded tail
  std::vector<double> row_scale_;   ///< per-row dequantization scales
};

/// Fast polynomial activations for the quantized path: a clamped Pade(7,6)
/// tanh (|error| < 1e-4 over the reals) and the matching sigmoid via
/// sigmoid(x) = (1 + tanh(x/2)) / 2. NOT bit-exact with std::tanh /
/// nn::sigmoid — quantized-path only.
void tanh_approx(const double* x, std::size_t n, double* y);
void sigmoid_approx(const double* x, std::size_t n, double* y);

/// Revision-keyed lazy cache guard for packed weight layouts.
///
/// Layers keep their PackedMatrix/QuantizedMatrix caches behind one of
/// these: ensure() repacks (under a mutex, double-checked) whenever the
/// observed parameter revision differs from the revision the cache was
/// built at. Concurrent readers with up-to-date caches take one acquire
/// load. Copying a guard resets it, so layers stay copyable and a copy
/// repacks on first use.
class PackGuard {
 public:
  PackGuard() = default;
  PackGuard(const PackGuard&) noexcept {}
  PackGuard& operator=(const PackGuard&) noexcept {
    packed_rev_.store(0, std::memory_order_release);
    return *this;
  }

  /// Run `repack()` if the cache is stale for `rev`, then mark it fresh.
  /// `rev` must be >= 1 (parameter revisions start at 1; 0 means "never
  /// packed").
  template <typename Fn>
  void ensure(std::uint64_t rev, Fn&& repack) const {
    if (packed_rev_.load(std::memory_order_acquire) == rev) return;
    const std::scoped_lock lock(mu_);
    if (packed_rev_.load(std::memory_order_relaxed) == rev) return;
    repack();
    packed_rev_.store(rev, std::memory_order_release);
  }

 private:
  mutable std::atomic<std::uint64_t> packed_rev_{0};
  mutable std::mutex mu_;
};

}  // namespace vkey::nn
