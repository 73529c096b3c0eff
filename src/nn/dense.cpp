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

void Dense::forward(std::span<const double> x, std::span<double> y) const {
  // Validate BEFORE counting: a rejected input must not inflate the FLOP /
  // call counters with work that never ran.
  VKEY_REQUIRE(x.size() == in_ && y.size() == out_,
               "Dense forward size mismatch");
  compute(x.data(), y.data(), /*quantized=*/false);
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

void Dense::backward_batch(std::size_t n, std::span<const double> x,
                           std::span<const double> y, std::span<double> grad,
                           std::span<double> dx) {
  VKEY_REQUIRE(x.size() == n * in_ && y.size() == n * out_ &&
                   grad.size() == n * out_ &&
                   (dx.empty() || dx.size() == n * in_),
               "Dense backward rows mismatch");
  // Fold the activation derivative into each member's output gradient.
  switch (act_) {
    case Activation::kNone:
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < grad.size(); ++i) {
        grad[i] *= dtanh_from_y(y[i]);
      }
      break;
  }

  // The bias gradient is the outer product with a ones column (stride 0):
  // dz * 1.0 is exactly dz, so it sums like the weights, in member order.
  static constexpr double kOne = 1.0;
  const Rows<const double> dz{grad.data(), static_cast<std::ptrdiff_t>(out_)};
  const auto in = static_cast<std::ptrdiff_t>(in_);
  accumulate_outer(dz, {x.data(), in}, n, out_, in_, w_.grad.data());
  accumulate_outer(dz, {&kOne, 0}, n, out_, 1, b_.grad.data());
  if (!dx.empty()) {
    matvec_transposed(w_.value.data(), out_, in_, dz, n, {dx.data(), in});
  }
}

}  // namespace vkey::nn
