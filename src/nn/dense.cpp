#include "nn/dense.h"

#include <cmath>

#include "common/error.h"
#include "common/metrics.h"
#include "nn/activations.h"

namespace vkey::nn {

Dense::Dense(std::size_t in, std::size_t out, vkey::Rng& rng, Activation act)
    : in_(in), out_(out), act_(act), w_(in * out), b_(out) {
  VKEY_REQUIRE(in > 0 && out > 0, "Dense sizes must be positive");
  const double bound = std::sqrt(6.0 / static_cast<double>(in + out));
  for (auto& v : w_.value) v = rng.uniform(-bound, bound);
}

const PackedMatrix& Dense::packed() const {
  pack_guard_.ensure(w_.revision,
                     [this] { packed_w_.pack(w_.value.data(), out_, in_); });
  return packed_w_;
}

const QuantizedMatrix& Dense::quant() const {
  quant_guard_.ensure(w_.revision,
                      [this] { quant_w_.pack(w_.value.data(), out_, in_); });
  return quant_w_;
}

void Dense::compute(const double* x, double* y, bool quantized) const {
  // FLOPs count a multiply and an add as two.
  metrics::counter<"nn.dense.forward_calls">().add(1);
  metrics::counter<"nn.dense.flops">().add(
      2 * static_cast<std::uint64_t>(in_) * out_);
  if (quantized) {
    const QuantizedMatrix& qm = quant();
    std::vector<std::int8_t> xq(qm.padded_cols(), 0);
    const double x_scale = QuantizedMatrix::quantize_input(x, in_, xq.data());
    qm.matvec(xq.data(), x_scale, b_.value.data(), y);
  } else {
    packed().matvec(x, b_.value.data(), y);
  }
  activate(y);
}

void Dense::activate(double* y) const {
  switch (act_) {
    case Activation::kNone:
      return;
    case Activation::kTanh:
      for (std::size_t i = 0; i < out_; ++i) y[i] = std::tanh(y[i]);
      return;
  }
  throw vkey::Error("unknown activation");
}

Vec Dense::infer_reference(const Vec& x) const {
  VKEY_REQUIRE(x.size() == in_, "Dense input size mismatch");
  Vec z(out_);
  for (std::size_t o = 0; o < out_; ++o) {
    double s = b_.value[o];
    const double* wrow = &w_.value[o * in_];
    for (std::size_t i = 0; i < in_; ++i) s += wrow[i] * x[i];
    z[o] = s;
  }
  activate(z.data());
  return z;
}

Vec Dense::forward(const Vec& x, Cache& cache) const {
  // Validate BEFORE counting: a rejected input must not inflate the FLOP /
  // call counters with work that never ran.
  VKEY_REQUIRE(x.size() == in_, "Dense input size mismatch");
  cache.x = x;
  cache.y.resize(out_);
  compute(x.data(), cache.y.data(), /*quantized=*/false);
  return cache.y;
}

Vec Dense::infer(const Vec& x) const {
  VKEY_REQUIRE(x.size() == in_, "Dense input size mismatch");
  Vec y(out_);
  infer_into(x.data(), y.data());
  return y;
}

void Dense::infer_into(const double* x, double* y) const {
  compute(x, y, quantized_);
}

std::vector<Vec> Dense::backward_batch(std::span<const Cache> caches,
                                       std::span<const Vec> grad_outs,
                                       bool input_grad) {
  VKEY_REQUIRE(caches.size() == grad_outs.size(),
               "Dense backward batch size mismatch");
  const std::size_t n = caches.size();
  // Fold the activation derivative into each member's output gradient.
  std::vector<Vec> dz(grad_outs.begin(), grad_outs.end());
  std::vector<const double*> dzp(n), xp(n);
  for (std::size_t m = 0; m < n; ++m) {
    const Vec& y = caches[m].y;
    Vec& d = dz[m];
    VKEY_REQUIRE(d.size() == out_, "Dense grad size mismatch");
    VKEY_REQUIRE(caches[m].x.size() == in_ && y.size() == out_,
                 "Dense backward before forward");
    switch (act_) {
      case Activation::kNone:
        break;
      case Activation::kTanh:
        for (std::size_t o = 0; o < out_; ++o) d[o] *= dtanh_from_y(y[o]);
        break;
    }
    dzp[m] = d.data();
    xp[m] = caches[m].x.data();
  }

  // The bias gradient is the outer product with a ones column: dz * 1.0 is
  // exactly dz, so it sums like the weights, in member order.
  static constexpr double kOne = 1.0;
  const std::vector<const double*> ones(n, &kOne);
  accumulate_outer(dzp.data(), xp.data(), n, out_, in_, w_.grad.data());
  accumulate_outer(dzp.data(), ones.data(), n, out_, 1, b_.grad.data());

  std::vector<Vec> dx;
  if (!input_grad) return dx;
  dx.assign(n, Vec(in_));
  std::vector<double*> dxp(n);
  for (std::size_t m = 0; m < n; ++m) dxp[m] = dx[m].data();
  matvec_transposed(w_.value.data(), out_, in_, dzp.data(), n, dxp.data());
  return dx;
}

}  // namespace vkey::nn
