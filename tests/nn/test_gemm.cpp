// Golden-vector suite for the blocked NN kernels (gemm.h).
//
// The contract under test (DESIGN.md "NN kernel core"): the packed float
// kernels are BIT-identical to the retained naive reference on every shape
// the layers use — including ragged panel tails. The training kernels and
// the layers' backward passes are held to the same contract against naive
// loops, compared as bit patterns so that -0.0 and +0.0 differ. The int8
// path is checked against explicit error bounds instead.
#include "nn/gemm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "metrics_on.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "nn/serialize.h"

namespace vkey::nn {
namespace {

std::vector<double> random_vec(std::size_t n, vkey::Rng& rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-2.0, 2.0);
  return v;
}

// Shapes exercising every panel-tail case: sub-panel, exact panel,
// multi-panel with ragged tail, and the 4-panel main-loop boundary.
struct Shape {
  std::size_t rows, cols;
};
const Shape kShapes[] = {{1, 1},  {3, 2},   {7, 5},    {8, 8},
                         {9, 3},  {16, 16}, {31, 31},  {32, 7},
                         {33, 17}, {40, 64}, {100, 37}, {64, 129}};

TEST(ReferenceMatvec, HandComputedCase) {
  // w = [[1, 2], [3, 4]], x = [5, 6], bias = [10, 20].
  const double w[] = {1.0, 2.0, 3.0, 4.0};
  const double x[] = {5.0, 6.0};
  const double bias[] = {10.0, 20.0};
  double y[2];
  reference_matvec(w, 2, 2, x, bias, y);
  EXPECT_EQ(y[0], 10.0 + 5.0 + 12.0);
  EXPECT_EQ(y[1], 20.0 + 15.0 + 24.0);
}

TEST(PackedMatrix, MatvecBitExactOnAllShapes) {
  vkey::Rng rng(101);
  for (const auto& sh : kShapes) {
    const auto w = random_vec(sh.rows * sh.cols, rng);
    const auto x = random_vec(sh.cols, rng);
    const auto bias = random_vec(sh.rows, rng);
    std::vector<double> ref(sh.rows), got(sh.rows);
    reference_matvec(w.data(), sh.rows, sh.cols, x.data(), bias.data(),
                     ref.data());
    PackedMatrix pm;
    pm.pack(w.data(), sh.rows, sh.cols);
    EXPECT_EQ(pm.rows(), sh.rows);
    EXPECT_EQ(pm.cols(), sh.cols);
    pm.matvec(x.data(), bias.data(), got.data());
    for (std::size_t r = 0; r < sh.rows; ++r) {
      // Bitwise equality, not EXPECT_NEAR: the kernel contract is exact.
      EXPECT_EQ(ref[r], got[r]) << sh.rows << "x" << sh.cols << " row " << r;
    }
  }
}

TEST(PackedMatrix, NullBiasStartsAtZero) {
  vkey::Rng rng(102);
  const auto w = random_vec(33 * 17, rng);
  const auto x = random_vec(17, rng);
  std::vector<double> ref(33), got(33);
  const std::vector<double> zero_bias(33, 0.0);
  reference_matvec(w.data(), 33, 17, x.data(), zero_bias.data(), ref.data());
  PackedMatrix pm;
  pm.pack(w.data(), 33, 17);
  pm.matvec(x.data(), nullptr, got.data());
  for (std::size_t r = 0; r < 33; ++r) EXPECT_EQ(ref[r], got[r]);
}

TEST(PackedMatrix, PackPairMatchesColumnConcatenation) {
  vkey::Rng rng(103);
  const std::size_t rows = 28, ca = 3, cb = 7;
  const auto wa = random_vec(rows * ca, rng);
  const auto wb = random_vec(rows * cb, rng);
  // Build the explicit [wa | wb] row-major concatenation.
  std::vector<double> cat(rows * (ca + cb));
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < ca; ++c) cat[r * (ca + cb) + c] = wa[r * ca + c];
    for (std::size_t c = 0; c < cb; ++c)
      cat[r * (ca + cb) + ca + c] = wb[r * cb + c];
  }
  const auto x = random_vec(ca + cb, rng);
  const auto bias = random_vec(rows, rng);
  std::vector<double> want(rows), got(rows);
  PackedMatrix whole, paired;
  whole.pack(cat.data(), rows, ca + cb);
  paired.pack_pair(wa.data(), ca, wb.data(), cb, rows);
  whole.matvec(x.data(), bias.data(), want.data());
  paired.matvec(x.data(), bias.data(), got.data());
  EXPECT_EQ(want, got);
}

// --- training kernels: bit patterns, not ==, so a -0.0 cannot pass as +0.0

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bits_eq(const std::vector<double>& want,
                    const std::vector<double>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(bits(want[i]), bits(got[i]))
        << what << " element " << i << ": " << want[i] << " vs " << got[i];
  }
}

// Every trainer shape (rows x cols): the LSTM's Wx and Wh at H = 8 and 32
// (4H x 3, 4H x H), the prediction head, the quantization head and decoder
// layers, the encoder, a bias as a one-column matrix, plus ragged sizes
// that are not multiples of 8.
const Shape kTrainShapes[] = {{32, 3},   {32, 8},   {128, 3},  {128, 32},
                              {64, 4096}, {64, 64},  {64, 32},  {32, 64},
                              {128, 1},  {37, 13},  {13, 37},  {9, 5},
                              {5, 9},    {100, 7},  {7, 100},  {33, 41}};
const std::size_t kTrainBatches[] = {1, 16, 32, 64};

/// `n` rows of `width` values at `v`, in order or, reversed, last row first
/// at a negative stride (the way BPTT hands over its steps).
template <typename T>
Rows<T> rows_of(T* v, std::size_t width, std::size_t n, bool reversed) {
  const auto stride = static_cast<std::ptrdiff_t>(width);
  return reversed ? Rows<T>{v + (n - 1) * width, -stride} : Rows<T>{v, stride};
}

/// Row m of `v`'s `width`-wide rows, as a vector.
std::vector<double> row_of(const std::vector<double>& v, std::size_t m,
                           std::size_t width) {
  const auto first = v.begin() + static_cast<std::ptrdiff_t>(m * width);
  return {first, first + static_cast<std::ptrdiff_t>(width)};
}

std::string shape_name(const Shape& sh, std::size_t n, bool reversed) {
  return std::to_string(sh.rows) + "x" + std::to_string(sh.cols) +
         " n=" + std::to_string(n) + (reversed ? " reversed" : "");
}

TEST(TrainingKernels, MatvecTransposedBitEqualsReference) {
  vkey::Rng rng(111);
  for (const auto& sh : kTrainShapes) {
    const auto w = random_vec(sh.rows * sh.cols, rng);
    for (std::size_t n : kTrainBatches) {
      const auto dz = random_vec(n * sh.rows, rng);  // member m's at row m
      std::vector<double> want(n * sh.cols);
      for (std::size_t m = 0; m < n; ++m) {
        reference_matvec_transposed(w.data(), sh.rows, sh.cols,
                                    &dz[m * sh.rows], &want[m * sh.cols]);
      }
      for (const bool reversed : {false, true}) {
        // Overwritten, never accumulated into.
        std::vector<double> got(n * sh.cols, 99.0);
        matvec_transposed(w.data(), sh.rows, sh.cols,
                          rows_of(dz.data(), sh.rows, n, reversed), n,
                          rows_of(got.data(), sh.cols, n, reversed));
        expect_bits_eq(want, got, shape_name(sh, n, reversed));
      }
    }
  }
}

TEST(TrainingKernels, AccumulateOuterBitEqualsReference) {
  vkey::Rng rng(112);
  static constexpr double kOne = 1.0;
  for (const auto& sh : kTrainShapes) {
    for (std::size_t n : kTrainBatches) {
      const auto dz = random_vec(n * sh.rows, rng);
      const auto x = random_vec(n * sh.cols, rng);
      const std::vector<double> ones(n, 1.0);
      // Accumulate onto gradients that already hold earlier terms.
      const auto start = random_vec(sh.rows * sh.cols, rng);
      const auto bias_start = random_vec(sh.rows, rng);
      for (const bool reversed : {false, true}) {
        const std::string what = shape_name(sh, n, reversed);
        const auto dzr = rows_of(dz.data(), sh.rows, n, reversed);
        auto want = start, got = start;
        reference_accumulate_outer(dzr, rows_of(x.data(), sh.cols, n, reversed),
                                   n, sh.rows, sh.cols, want.data());
        accumulate_outer(dzr, rows_of(x.data(), sh.cols, n, reversed), n,
                         sh.rows, sh.cols, got.data());
        expect_bits_eq(want, got, what);
        // A bias: the ones column at stride 0 against an explicit ones
        // matrix.
        auto want_b = bias_start, got_b = bias_start;
        reference_accumulate_outer(dzr, {ones.data(), 1}, n, sh.rows, 1,
                                   want_b.data());
        accumulate_outer(dzr, {&kOne, 0}, n, sh.rows, 1, got_b.data());
        expect_bits_eq(want_b, got_b, what + " ones column");
      }
    }
  }
}

// Products of +-0.0 added into +0 accumulators, the case where a sum's
// sign of zero depends on the order and the start value: a column whose
// products are all -0.0 must come out +0.0, as 0.0 + (-0.0) does. Also pins
// the argument that lets one gradient accumulate a whole batch directly: a
// per-member sink zeroed and folded in (grad += (0 + p)) gives the same bits
// as grad += p, because a round-to-nearest sum that starts at +0 is never
// -0.
TEST(TrainingKernels, SignedZeroProductsIntoPositiveZero) {
  const double vals[] = {0.0, -0.0, 1.5, -2.0};
  const std::size_t rows = 37, cols = 13, n = 16;
  vkey::Rng rng(113);
  auto pick = [&] {
    return vals[static_cast<std::size_t>(rng.uniform_int(4))];
  };
  // Every third column of W and x is negative, so against an all-+0.0 dz
  // every product there is -0.0; these columns land in each register tile
  // shape (8-wide blocks and the ragged tail).
  auto negative_col = [](std::size_t c) { return c % 3 == 0; };
  std::vector<double> w(rows * cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c)
      w[r * cols + c] = negative_col(c) ? -1.5 : pick();
  }
  // Member s's dz and x are row s of each.
  std::vector<double> dz(n * rows), x(n * cols);
  for (std::size_t s = 0; s < n; ++s) {
    for (std::size_t r = 0; r < rows; ++r)
      dz[s * rows + r] = s % 2 == 0 ? 0.0 : pick();
    for (std::size_t c = 0; c < cols; ++c)
      x[s * cols + c] = negative_col(c) ? -1.5 : pick();
  }
  const Rows<const double> dzr{dz.data(), rows}, xr{x.data(), cols};

  // Input gradients, through both the four-member and the one-member tiles.
  std::vector<double> want(n * cols), got(n * cols, 99.0);
  for (std::size_t s = 0; s < n; ++s) {
    reference_matvec_transposed(w.data(), rows, cols, dzr[s],
                                &want[s * cols]);
  }
  matvec_transposed(w.data(), rows, cols, dzr, n, {got.data(), cols});
  expect_bits_eq(want, got, "members");
  for (std::size_t s = 0; s < n; ++s) {
    std::vector<double> one(cols, 99.0);
    matvec_transposed(w.data(), rows, cols, dzr + s, 1, {one.data(), 0});
    expect_bits_eq(row_of(want, s, cols), one,
                   "single member " + std::to_string(s));
  }
  EXPECT_EQ(bits(want[0]), bits(0.0));  // all -0.0 products: +0.0

  // Weight gradients from a +0 start, all-zero members included.
  std::vector<double> ref(rows * cols, 0.0), acc(rows * cols, 0.0);
  reference_accumulate_outer(dzr, xr, n, rows, cols, ref.data());
  accumulate_outer(dzr, xr, n, rows, cols, acc.data());
  expect_bits_eq(ref, acc, "accumulate_outer");

  std::vector<double> folded(rows * cols, 0.0), sink(rows * cols);
  for (std::size_t s = 0; s < n; ++s) {
    std::fill(sink.begin(), sink.end(), 0.0);
    reference_accumulate_outer(dzr + s, xr + s, 1, rows, cols, sink.data());
    for (std::size_t i = 0; i < sink.size(); ++i) folded[i] += sink[i];
  }
  expect_bits_eq(folded, acc, "zeroed sink + fold");
}

// --- Dense layer golden vectors ---

TEST(DenseGolden, InferBitEqualsNaiveReference) {
  for (auto act : {Activation::kNone, Activation::kTanh}) {
    vkey::Rng rng(201);
    Dense d(37, 29, rng, act);
    vkey::Rng xr(202);
    for (int trial = 0; trial < 4; ++trial) {
      const Vec x = random_vec(37, xr);
      EXPECT_EQ(d.infer(x), d.infer_reference(x));
    }
  }
}

TEST(DenseGolden, InferIntoBitEqualsNaiveReference) {
  for (auto act : {Activation::kNone, Activation::kTanh}) {
    vkey::Rng rng(207);
    Dense d(37, 29, rng, act);
    vkey::Rng xr(208);
    // Caller storage with guard cells: infer_into writes out_size() values
    // and nothing past them.
    Vec y(29 + 2, -7.0);
    for (int trial = 0; trial < 4; ++trial) {
      const Vec x = random_vec(37, xr);
      d.infer_into(x.data(), y.data());
      EXPECT_EQ(Vec(y.begin(), y.begin() + 29), d.infer_reference(x));
      EXPECT_EQ(y[29], -7.0);
      EXPECT_EQ(y[30], -7.0);
    }
  }
}

TEST(DenseGolden, InferIntoEqualsInferOnTheInt8Path) {
  vkey::Rng rng(209);
  Dense d(32, 24, rng, Activation::kTanh);
  d.set_quantized(true);
  vkey::Rng xr(210);
  Vec y(24);
  for (int trial = 0; trial < 4; ++trial) {
    const Vec x = random_vec(32, xr);
    d.infer_into(x.data(), y.data());
    EXPECT_EQ(y, d.infer(x));
  }
}

TEST(DenseGolden, SerializeRoundTripRepacksCache) {
  vkey::Rng rng(205);
  Dense d(9, 11, rng);
  const Vec x = random_vec(9, rng);
  const Vec before = d.infer(x);  // warm the packed cache

  const auto saved = snapshot(d.parameters());
  // Perturb through the bump-aware restore path, then restore the original.
  auto perturbed = saved;
  for (double& v : perturbed) v += 0.25;
  restore(d.parameters(), perturbed);
  EXPECT_NE(d.infer(x), before);  // stale cache would return `before`
  EXPECT_EQ(d.infer(x), d.infer_reference(x));
  restore(d.parameters(), saved);
  EXPECT_EQ(d.infer(x), before);
}

TEST(DenseGolden, OptimizerStepRepacksCache) {
  vkey::Rng rng(206);
  Dense d(6, 6, rng);
  const Vec x = random_vec(6, rng);
  (void)d.infer(x);  // warm the packed cache
  Vec y(6), grad(6, 1.0);
  d.forward(x, y);
  d.backward_batch(1, x, y, grad, {});
  Adam opt(d.parameters(), 0.1);
  opt.step(1);
  EXPECT_EQ(d.infer(x), d.infer_reference(x));
}

// The per-sample Dense backward the layer started with: activation
// derivative folded into dz, then gW/gb accumulated and dx summed from 0.0.
Vec naive_dense_backward(const Dense& d, Activation act, const Vec& x,
                         const Vec& y, const Vec& grad_out, Vec& gw,
                         Vec& gb) {
  const std::size_t in = d.in_size(), out = d.out_size();
  const Vec& w = d.weights().value;
  Vec dz = grad_out;
  for (std::size_t o = 0; o < out; ++o) {
    switch (act) {
      case Activation::kNone:
        break;
      case Activation::kTanh:
        dz[o] *= 1.0 - y[o] * y[o];
        break;
    }
  }
  Vec dx(in, 0.0);
  for (std::size_t o = 0; o < out; ++o) {
    const double g = dz[o];
    gb[o] += g;
    for (std::size_t i = 0; i < in; ++i) {
      gw[o * in + i] += g * x[i];
      dx[i] += g * w[o * in + i];
    }
  }
  return dx;
}

TEST(DenseGolden, BackwardBatchBitEqualsNaiveLoops) {
  for (auto act : {Activation::kNone, Activation::kTanh}) {
    vkey::Rng rng(207);
    Dense d(37, 21, rng, act);
    vkey::Rng xr(208);
    const std::size_t n = 6;
    // Member m's input, output and output gradient are row m of each.
    Vec x(n * 37), y(n * 21), grads(n * 21);
    Vec gw(d.weights().value.size(), 0.0), gb(d.bias().value.size(), 0.0);
    std::vector<Vec> want_dx(n);
    for (std::size_t m = 0; m < n; ++m) {
      const Vec xm = random_vec(37, xr);
      std::copy(xm.begin(), xm.end(), &x[m * 37]);
      d.forward(xm, std::span(y).subspan(m * 21, 21));
      const Vec gm = random_vec(21, xr);
      std::copy(gm.begin(), gm.end(), &grads[m * 21]);
      want_dx[m] =
          naive_dense_backward(d, act, xm, row_of(y, m, 21), gm, gw, gb);
    }
    Vec grad = grads, dx(n * 37, 99.0);
    d.backward_batch(n, x, y, grad, dx);
    for (std::size_t m = 0; m < n; ++m) {
      expect_bits_eq(want_dx[m], row_of(dx, m, 37),
                     "dx member " + std::to_string(m));
    }
    expect_bits_eq(gw, d.weights().grad, "weight gradient");
    expect_bits_eq(gb, d.bias().grad, "bias gradient");
    // The gradient rows now hold dL/dz: the activation derivative folded
    // in place.
    Vec dz = grads;
    if (act == Activation::kTanh) {
      for (std::size_t i = 0; i < dz.size(); ++i) dz[i] *= 1.0 - y[i] * y[i];
    }
    expect_bits_eq(dz, grad, "folded gradient rows");

    // Without an upstream layer to train: same gradients, no dx.
    for (std::size_t m = 0; m < n; ++m) {
      (void)naive_dense_backward(d, act, row_of(x, m, 37), row_of(y, m, 21),
                                 row_of(grads, m, 21), gw, gb);
    }
    grad = grads;
    d.backward_batch(n, x, y, grad, {});
    expect_bits_eq(gw, d.weights().grad, "weight gradient, second batch");
    expect_bits_eq(gb, d.bias().grad, "bias gradient, second batch");
  }
}

// --- LSTM / BiLSTM golden vectors ---

/// The layer's hidden-state rows through infer_into, fresh workspace.
Vec infer(const Lstm& lstm, const Vec& x, std::size_t steps) {
  Vec h(steps * lstm.hidden_size()), ws(lstm.workspace_size());
  lstm.infer_into(x, steps, h, lstm.hidden_size(), ws);
  return h;
}

Vec infer(const BiLstm& bi, const Vec& x, std::size_t steps) {
  Vec h(steps * bi.output_size()), ws(bi.workspace_size());
  bi.infer_into(x, steps, h, ws);
  return h;
}

TEST(LstmGolden, FusedInferBitEqualsNaiveReference) {
  vkey::Rng rng(301);
  Lstm lstm(3, 13, rng);  // 4H = 52: ragged panel tail
  vkey::Rng xr(302);
  for (std::size_t t_len : {1u, 2u, 9u}) {
    const Vec x = random_vec(t_len * 3, xr);
    EXPECT_EQ(infer(lstm, x, t_len), lstm.infer_reference(x, t_len));
  }
}

TEST(LstmGolden, ReverseFusedInferBitEqualsNaiveReference) {
  vkey::Rng rng(303);
  Lstm lstm(2, 5, rng, /*reverse=*/true);
  vkey::Rng xr(304);
  const Vec x = random_vec(6 * 2, xr);
  EXPECT_EQ(infer(lstm, x, 6), lstm.infer_reference(x, 6));
}

TEST(BiLstmGolden, InferBitEqualsNaiveReference) {
  vkey::Rng rng(305);
  BiLstm bi(3, 8, rng);
  vkey::Rng xr(306);
  const Vec x = random_vec(7 * 3, xr);
  EXPECT_EQ(infer(bi, x, 7), bi.infer_reference(x, 7));
  // forward() runs the same cells: its rows equal infer_into()'s.
  BiLstm::Cache cache;
  Vec h(7 * bi.output_size());
  bi.forward(x, 7, h, cache);
  EXPECT_EQ(h, bi.infer_reference(x, 7));
}

// Test-local naive LSTM: the per-step forward of infer_reference with every
// intermediate kept, and the per-step BPTT the layer started with, reading
// the weights through parameters() = {Wx, Wh, b}.
struct NaiveStep {
  Vec x, h_prev, c_prev, i, f, g, o, tanh_c;
};

std::vector<NaiveStep> naive_lstm_forward(Lstm& l, bool reverse,
                                          const Vec& x, std::size_t t_len) {
  const auto p = l.parameters();
  const Vec& wx = p[0]->value;
  const Vec& wh = p[1]->value;
  const Vec& b = p[2]->value;
  const std::size_t in = l.input_size(), h = l.hidden_size();
  std::vector<NaiveStep> steps(t_len);
  Vec hv(h, 0.0), cv(h, 0.0);
  for (std::size_t step = 0; step < t_len; ++step) {
    const std::size_t t = reverse ? t_len - 1 - step : step;
    NaiveStep& st = steps[step];
    st.x.assign(&x[t * in], &x[t * in] + in);
    st.h_prev = hv;
    st.c_prev = cv;
    st.i.resize(h);
    st.f.resize(h);
    st.g.resize(h);
    st.o.resize(h);
    st.tanh_c.resize(h);
    for (std::size_t j = 0; j < 4 * h; ++j) {
      double sum = b[j];
      for (std::size_t k = 0; k < in; ++k) sum += wx[j * in + k] * st.x[k];
      for (std::size_t k = 0; k < h; ++k) sum += wh[j * h + k] * hv[k];
      const std::size_t gate = j / h, k = j % h;
      if (gate == 0) st.i[k] = sigmoid(sum);
      if (gate == 1) st.f[k] = sigmoid(sum);
      if (gate == 2) st.g[k] = std::tanh(sum);
      if (gate == 3) st.o[k] = sigmoid(sum);
    }
    for (std::size_t k = 0; k < h; ++k) {
      cv[k] = st.f[k] * st.c_prev[k] + st.i[k] * st.g[k];
      st.tanh_c[k] = std::tanh(cv[k]);
      hv[k] = st.o[k] * st.tanh_c[k];
    }
  }
  return steps;
}

/// BPTT adding the parameter gradients into gwx, gwh and gb; dL/dh of step
/// t is grad_out[t * stride, + hidden).
void naive_lstm_backward(Lstm& l, bool reverse,
                         const std::vector<NaiveStep>& steps,
                         const double* grad_out, std::size_t stride, Vec& gwx,
                         Vec& gwh, Vec& gb) {
  const auto p = l.parameters();
  const Vec& wh = p[1]->value;
  const std::size_t in = l.input_size(), h = l.hidden_size();
  const std::size_t t_len = steps.size();
  Vec dh_rec(h, 0.0), dc_rec(h, 0.0), dz(4 * h);
  for (std::size_t step = t_len; step-- > 0;) {
    const std::size_t t = reverse ? t_len - 1 - step : step;
    const NaiveStep& cc = steps[step];
    for (std::size_t k = 0; k < h; ++k) {
      const double dh = grad_out[t * stride + k] + dh_rec[k];
      const double d_o = dh * cc.tanh_c[k];
      const double dc =
          dh * cc.o[k] * (1.0 - cc.tanh_c[k] * cc.tanh_c[k]) + dc_rec[k];
      const double d_f = dc * cc.c_prev[k];
      const double d_i = dc * cc.g[k];
      const double d_g = dc * cc.i[k];
      dc_rec[k] = dc * cc.f[k];
      dz[k] = d_i * (cc.i[k] * (1.0 - cc.i[k]));
      dz[h + k] = d_f * (cc.f[k] * (1.0 - cc.f[k]));
      dz[2 * h + k] = d_g * (1.0 - cc.g[k] * cc.g[k]);
      dz[3 * h + k] = d_o * (cc.o[k] * (1.0 - cc.o[k]));
    }
    std::fill(dh_rec.begin(), dh_rec.end(), 0.0);
    for (std::size_t j = 0; j < 4 * h; ++j) {
      const double g = dz[j];
      gb[j] += g;
      for (std::size_t k = 0; k < in; ++k) gwx[j * in + k] += g * cc.x[k];
      for (std::size_t k = 0; k < h; ++k) {
        gwh[j * h + k] += g * cc.h_prev[k];
        dh_rec[k] += g * wh[j * h + k];
      }
    }
  }
}

TEST(LstmGolden, BackwardBitEqualsNaiveBptt) {
  for (const bool reverse : {false, true}) {
    for (const std::size_t hidden : {8u, 13u}) {
      vkey::Rng rng(309);
      Lstm lstm(3, hidden, rng, reverse);
      const auto p = lstm.parameters();
      Vec gwx(p[0]->size(), 0.0), gwh(p[1]->size(), 0.0),
          gb(p[2]->size(), 0.0);
      vkey::Rng xr(310);
      // Three members, each through its own cache: each member's
      // gradients add onto the earlier members'.
      std::vector<Lstm::Cache> caches(3);
      Vec h(9 * hidden);
      for (std::size_t m = 0; m < 3; ++m) {
        const Vec x = random_vec(9 * 3, xr);
        const Vec grad = random_vec(9 * hidden, xr);
        const auto steps = naive_lstm_forward(lstm, reverse, x, 9);
        naive_lstm_backward(lstm, reverse, steps, grad.data(), hidden, gwx,
                            gwh, gb);
        lstm.forward(x, 9, h, hidden, caches[m]);
        lstm.backward(caches[m], grad, hidden);
        const std::string what = std::string(reverse ? "reverse" : "forward") +
                                 " H=" + std::to_string(hidden) + " member " +
                                 std::to_string(m);
        expect_bits_eq(gwx, p[0]->grad, what + " Wx gradient");
        expect_bits_eq(gwh, p[1]->grad, what + " Wh gradient");
        expect_bits_eq(gb, p[2]->grad, what + " bias gradient");
      }
    }
  }
}

TEST(BiLstmGolden, BackwardBitEqualsNaiveBptt) {
  vkey::Rng rng(311);
  BiLstm bi(3, 8, rng);
  const auto p = bi.parameters();  // forward {Wx, Wh, b}, then backward's
  std::vector<Vec> want;
  for (const Parameter* q : p) want.emplace_back(q->size(), 0.0);
  vkey::Rng xr(312);
  std::vector<BiLstm::Cache> caches(2);
  Vec h(7 * 16);
  for (std::size_t m = 0; m < 2; ++m)
    bi.forward(random_vec(7 * 3, xr), 7, h, caches[m]);

  // Rebuild the two directions' weights as standalone layers for the
  // naive passes (same values, same direction).
  vkey::Rng unused(0);
  Lstm fwd(3, 8, unused, false), bwd(3, 8, unused, true);
  const auto pf = fwd.parameters(), pb = bwd.parameters();
  for (std::size_t k = 0; k < 3; ++k) {
    pf[k]->value = p[k]->value;
    pb[k]->value = p[3 + k]->value;
  }
  vkey::Rng xr2(312);
  for (std::size_t m = 0; m < 2; ++m) {
    const Vec x = random_vec(7 * 3, xr2);
    // Row t of the gradient is [forward dL/dh_t ; backward dL/dh_t].
    const Vec grad = random_vec(7 * 16, xr);
    naive_lstm_backward(fwd, false, naive_lstm_forward(fwd, false, x, 7),
                        grad.data(), 16, want[0], want[1], want[2]);
    naive_lstm_backward(bwd, true, naive_lstm_forward(bwd, true, x, 7),
                        grad.data() + 8, 16, want[3], want[4], want[5]);
    bi.backward(caches[m], grad);
    for (std::size_t k = 0; k < p.size(); ++k)
      expect_bits_eq(want[k], p[k]->grad, "parameter " + std::to_string(k));
  }
}

// --- int8 quantized path: bounded error, never bit-exactness ---

TEST(QuantizedMatrix, MatvecWithinQuantizationErrorBound) {
  vkey::Rng rng(401);
  const std::size_t rows = 21, cols = 33;
  const auto w = random_vec(rows * cols, rng);
  const auto x = random_vec(cols, rng);
  const auto bias = random_vec(rows, rng);
  std::vector<double> ref(rows), got(rows);
  reference_matvec(w.data(), rows, cols, x.data(), bias.data(), ref.data());

  QuantizedMatrix qm;
  qm.pack(w.data(), rows, cols);
  std::vector<std::int8_t> xq(qm.padded_cols(), 0);
  const double xs = QuantizedMatrix::quantize_input(x.data(), cols, xq.data());
  qm.matvec(xq.data(), xs, bias.data(), got.data());

  // Worst-case per-element rounding is 0.5 steps for the weight and 0.5 for
  // the input; a loose per-row bound of cols * step_w * step_x magnitudes.
  double max_w = 0.0, max_x = 0.0;
  for (double v : w) max_w = std::max(max_w, std::fabs(v));
  for (double v : x) max_x = std::max(max_x, std::fabs(v));
  const double bound =
      static_cast<double>(cols) * (max_w / 127.0) * max_x * 1.5;
  for (std::size_t r = 0; r < rows; ++r) {
    EXPECT_NEAR(got[r], ref[r], bound) << "row " << r;
  }
}

TEST(QuantizedMatrix, ZeroInputVectorGivesBias) {
  vkey::Rng rng(402);
  const auto w = random_vec(5 * 4, rng);
  const auto bias = random_vec(5, rng);
  QuantizedMatrix qm;
  qm.pack(w.data(), 5, 4);
  std::vector<std::int8_t> xq(qm.padded_cols(), 0);
  const std::vector<double> zero(4, 0.0);
  const double xs = QuantizedMatrix::quantize_input(zero.data(), 4, xq.data());
  EXPECT_EQ(xs, 0.0);
  std::vector<double> y(5);
  qm.matvec(xq.data(), xs, bias.data(), y.data());
  for (std::size_t r = 0; r < 5; ++r) EXPECT_EQ(y[r], bias[r]);
}

TEST(ApproxActivations, WithinAdvertisedErrorBounds) {
  // The Pade(7,6) clamped tanh promises |err| < 1e-4 over the reals and the
  // derived sigmoid inherits half of it (plus exact saturation far out).
  std::vector<double> xs, t_got, s_got;
  for (double x = -30.0; x <= 30.0; x += 0.01) xs.push_back(x);
  t_got.resize(xs.size());
  s_got.resize(xs.size());
  tanh_approx(xs.data(), xs.size(), t_got.data());
  sigmoid_approx(xs.data(), xs.size(), s_got.data());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_NEAR(t_got[i], std::tanh(xs[i]), 1e-4) << "x=" << xs[i];
    EXPECT_NEAR(s_got[i], 1.0 / (1.0 + std::exp(-xs[i])), 1e-4)
        << "x=" << xs[i];
  }
}

TEST(QuantizedDense, InferTracksFloatPath) {
  vkey::Rng rng(403);
  Dense d(32, 24, rng, Activation::kNone);
  d.set_quantized(true);
  EXPECT_TRUE(d.quantized());
  vkey::Rng xr(404);
  const Vec x = random_vec(32, xr);
  const Vec qy = d.infer(x);
  const Vec fy = d.infer_reference(x);
  ASSERT_EQ(qy.size(), fy.size());
  for (std::size_t i = 0; i < qy.size(); ++i) {
    EXPECT_NEAR(qy[i], fy[i], 0.05) << "unit " << i;
  }
}

TEST(QuantizedLstm, InferTracksFloatPath) {
  vkey::Rng rng(405);
  BiLstm bi(3, 8, rng);
  bi.set_quantized(true);
  EXPECT_TRUE(bi.quantized());
  vkey::Rng xr(406);
  const Vec x = random_vec(6 * 3, xr);
  const Vec qh = infer(bi, x, 6);
  const Vec fh = bi.infer_reference(x, 6);
  ASSERT_EQ(qh.size(), fh.size());
  for (std::size_t i = 0; i < qh.size(); ++i) {
    EXPECT_NEAR(qh[i], fh[i], 0.05) << "t=" << i / 16 << " k=" << i % 16;
  }
}

// --- PackGuard / revision semantics ---

TEST(PackGuard, RepacksOncePerRevision) {
  PackGuard guard;
  int repacks = 0;
  guard.ensure(1, [&] { ++repacks; });
  guard.ensure(1, [&] { ++repacks; });
  EXPECT_EQ(repacks, 1);
  guard.ensure(2, [&] { ++repacks; });
  guard.ensure(2, [&] { ++repacks; });
  EXPECT_EQ(repacks, 2);
}

TEST(PackGuard, CopyResetsToUnpacked) {
  PackGuard a;
  int repacks = 0;
  a.ensure(5, [&] { ++repacks; });
  PackGuard b(a);
  b.ensure(5, [&] { ++repacks; });  // copy must not inherit freshness
  EXPECT_EQ(repacks, 2);
  a = b;
  a.ensure(5, [&] { ++repacks; });
  EXPECT_EQ(repacks, 3);
}

TEST(Parameter, RevisionStartsAtOneAndBumps) {
  Parameter p(4);
  EXPECT_EQ(p.revision, 1u);
  p.bump();
  EXPECT_EQ(p.revision, 2u);
}

// --- accounting regressions: counters must not advance on rejected calls ---

TEST(Accounting, DenseCountersUnchangedOnInvalidInput) {
  MetricsOn on;
  vkey::Rng rng(501);
  Dense d(4, 3, rng);
  auto& flops = metrics::Registry::global().counter("nn.dense.flops");
  auto& calls = metrics::Registry::global().counter("nn.dense.forward_calls");
  const auto f0 = flops.value();
  const auto c0 = calls.value();
  EXPECT_THROW(d.infer({1.0, 2.0}), vkey::Error);  // wrong width
  // Training's forward: a short input, and an output row of each wrong
  // length.
  Vec y(3), short_y(2), long_y(4);
  const Vec x{1.0, 2.0, 3.0, 4.0};
  EXPECT_THROW(d.forward(std::span(x).first(3), y), vkey::Error);
  EXPECT_THROW(d.forward(x, short_y), vkey::Error);
  EXPECT_THROW(d.forward(x, long_y), vkey::Error);
  EXPECT_EQ(flops.value(), f0);
  EXPECT_EQ(calls.value(), c0);
  (void)d.infer(x);
  EXPECT_EQ(calls.value(), c0 + 1);
  EXPECT_EQ(flops.value(), f0 + 2u * 4u * 3u);
  d.forward(x, y);  // counted exactly as infer() is
  EXPECT_EQ(calls.value(), c0 + 2);
  EXPECT_EQ(flops.value(), f0 + 2u * 2u * 4u * 3u);
}

TEST(Accounting, LstmCountersUnchangedOnInvalidInput) {
  MetricsOn on;
  vkey::Rng rng(502);
  Lstm lstm(2, 4, rng);
  BiLstm bi(2, 4, rng);
  auto& flops = metrics::Registry::global().counter("nn.lstm.flops");
  auto& steps = metrics::Registry::global().counter("nn.lstm.cell_steps");
  const auto f0 = flops.value();
  const auto s0 = steps.value();
  Vec h(2 * 4), ws(lstm.workspace_size());
  const Vec one{1.0}, ragged{1.0, 2.0, 1.0};
  EXPECT_THROW(lstm.infer_into({}, 0, h, 4, ws), vkey::Error);   // empty
  EXPECT_THROW(lstm.infer_into(one, 1, h, 4, ws), vkey::Error);  // width
  EXPECT_THROW(lstm.infer_into(ragged, 2, h, 4, ws), vkey::Error);  // ragged
  Lstm::Cache cache;
  EXPECT_THROW(lstm.forward(one, 1, h, 4, cache), vkey::Error);
  const Vec x{1.0, 2.0, 0.5, -0.5};
  EXPECT_THROW(lstm.forward(x, 2, std::span(h).first(7), 4, cache),
               vkey::Error);  // no room for the second row
  // The backward direction's rows are short only when the whole output
  // is: the BiLSTM rejects it before either direction runs.
  Vec bh(2 * 8 - 1);
  BiLstm::Cache bcache;
  EXPECT_THROW(bi.forward(x, 2, bh, bcache), vkey::Error);
  EXPECT_THROW(bi.infer_into(x, 2, bh, ws), vkey::Error);
  EXPECT_EQ(flops.value(), f0);
  EXPECT_EQ(steps.value(), s0);
  lstm.infer_into(x, 2, h, 4, ws);
  EXPECT_EQ(steps.value(), s0 + 2);
}

// --- BiLstm backward guards (satellite bugfix) ---

TEST(BiLstmGuards, BackwardOnEmptyGradientThrows) {
  vkey::Rng rng(601);
  BiLstm bi(1, 3, rng);
  EXPECT_THROW(bi.backward(BiLstm::Cache{}, {}), vkey::Error);
}

TEST(BiLstmGuards, BackwardLengthMismatchThrows) {
  vkey::Rng rng(602);
  BiLstm bi(1, 3, rng);
  const Vec x(4, 0.5);
  BiLstm::Cache cache;
  Vec h(4 * 6);
  bi.forward(x, 4, h, cache);
  EXPECT_THROW(bi.backward(cache, {}), vkey::Error);
  const Vec wrong_len(3 * 6, 0.0);  // forward cached 4 steps
  EXPECT_THROW(bi.backward(cache, wrong_len), vkey::Error);
  const Vec one_long(4 * 6 + 1, 0.0);
  EXPECT_THROW(bi.backward(cache, one_long), vkey::Error);
}

TEST(BiLstmGuards, BackwardBeforeForwardThrows) {
  vkey::Rng rng(603);
  BiLstm bi(1, 3, rng);
  EXPECT_THROW(bi.backward(BiLstm::Cache{}, Vec(2 * 6, 0.0)), vkey::Error);
}

}  // namespace
}  // namespace vkey::nn
