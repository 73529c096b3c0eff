#include "nn/lstm.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "nn/activations.h"

namespace vkey::nn {

namespace {

// One cell step: the 4H x (input + hidden) affine dominates; the gate
// nonlinearities and elementwise updates add ~10H. The quantized path is
// charged the same nominal FLOPs (it does the same mathematical work).
std::uint64_t step_flops(std::size_t input, std::size_t hidden) {
  return 2 * 4 * static_cast<std::uint64_t>(hidden) * (input + hidden) +
         10 * static_cast<std::uint64_t>(hidden);
}

}  // namespace

Lstm::Lstm(std::size_t input, std::size_t hidden, vkey::Rng& rng,
           bool reverse)
    : input_(input),
      hidden_(hidden),
      reverse_(reverse),
      wx_(4 * hidden * input),
      wh_(4 * hidden * hidden),
      b_(4 * hidden) {
  VKEY_REQUIRE(input > 0 && hidden > 0, "Lstm sizes must be positive");
  const double bx = std::sqrt(6.0 / static_cast<double>(input + hidden));
  const double bh = std::sqrt(6.0 / static_cast<double>(2 * hidden));
  for (auto& v : wx_.value) v = rng.uniform(-bx, bx);
  for (auto& v : wh_.value) v = rng.uniform(-bh, bh);
  // Standard trick: bias the forget gate open so gradients flow early on.
  for (std::size_t j = hidden; j < 2 * hidden; ++j) b_.value[j] = 1.0;
}

const PackedMatrix& Lstm::packed() const {
  // Key on the revision sum: bump() only increments, so the sum changes
  // whenever either matrix does.
  pack_guard_.ensure(wx_.revision + wh_.revision, [this] {
    packed_w_.pack_pair(wx_.value.data(), input_, wh_.value.data(), hidden_,
                        4 * hidden_);
  });
  return packed_w_;
}

const QuantizedMatrix& Lstm::quant() const {
  quant_guard_.ensure(wx_.revision + wh_.revision, [this] {
    quant_w_.pack_pair(wx_.value.data(), input_, wh_.value.data(), hidden_,
                       4 * hidden_);
  });
  return quant_w_;
}

void Lstm::check_rows(std::span<const double> x, std::size_t steps,
                      std::span<const double> h, std::size_t h_stride) const {
  VKEY_REQUIRE(steps > 0, "Lstm pass on empty sequence");
  VKEY_REQUIRE(x.size() == steps * input_, "Lstm input length mismatch");
  VKEY_REQUIRE(h.size() >= (steps - 1) * h_stride + hidden_,
               "Lstm output rows too short");
}

void Lstm::run(const double* x, std::size_t steps, double* h,
               std::size_t h_stride, double* xh, double* z, double* c,
               double* tc, bool keep) const {
  metrics::counter<"nn.lstm.cell_steps">().add(steps);
  metrics::counter<"nn.lstm.flops">().add(steps *
                                          step_flops(input_, hidden_));
  const std::size_t hd = hidden_;
  const std::size_t width = input_ + hd;
  const std::size_t row = keep ? 1 : 0;  // rows a step advances the buffers
  const bool int8 = quantized_ && !keep;
  std::vector<std::int8_t> xq;  // quantized [x_t ; h_prev] (int8 path)
  if (int8) xq.assign(quant().padded_cols(), 0);
  std::fill(c, c + hd, 0.0);
  const double* h_prev = nullptr;
  for (std::size_t s = 0; s < steps; ++s) {
    const std::size_t t = reverse_ ? steps - 1 - s : s;
    double* xs = xh + s * row * width;
    double* zs = z + s * row * 4 * hd;
    const double* c_prev = c + s * row * hd;
    double* cs = c + (s + 1) * row * hd;  // c_prev itself when rolling
    double* tcs = tc + s * row * hd;
    double* hv = h + t * h_stride;
    std::copy(x + t * input_, x + (t + 1) * input_, xs);
    if (h_prev != nullptr) {
      std::copy(h_prev, h_prev + hd, xs + input_);
    } else {
      std::fill(xs + input_, xs + width, 0.0);
    }
    // One packed matvec computes all 4H gate pre-activations in the exact
    // accumulation order of the naive cell (bias, then Wx columns, then Wh
    // columns — see PackedMatrix::pack_pair). Gates are evaluated in place
    // (i | f | g | o blocks); each element depends only on its own
    // pre-activation, so the float path matches the reference loop bit for
    // bit. The int8 path quantizes the affine and approximates the gate
    // activations with polynomials (see gemm.h): same dataflow, not
    // bit-exact.
    if (int8) {
      const double scale =
          QuantizedMatrix::quantize_input(xs, width, xq.data());
      quant().matvec(xq.data(), scale, b_.value.data(), zs);
      sigmoid_approx(zs, 2 * hd, zs);
      tanh_approx(zs + 2 * hd, hd, zs + 2 * hd);
      sigmoid_approx(zs + 3 * hd, hd, zs + 3 * hd);
    } else {
      packed().matvec(xs, b_.value.data(), zs);
      for (std::size_t k = 0; k < 2 * hd; ++k) zs[k] = sigmoid(zs[k]);
      for (std::size_t k = 2 * hd; k < 3 * hd; ++k) zs[k] = std::tanh(zs[k]);
      for (std::size_t k = 3 * hd; k < 4 * hd; ++k) zs[k] = sigmoid(zs[k]);
    }
    for (std::size_t k = 0; k < hd; ++k)
      cs[k] = zs[hd + k] * c_prev[k] + zs[k] * zs[2 * hd + k];
    if (int8) {
      tanh_approx(cs, hd, tcs);
    } else {
      for (std::size_t k = 0; k < hd; ++k) tcs[k] = std::tanh(cs[k]);
    }
    for (std::size_t k = 0; k < hd; ++k) hv[k] = zs[3 * hd + k] * tcs[k];
    h_prev = hv;
  }
}

void Lstm::forward(std::span<const double> x, std::size_t steps,
                   std::span<double> h, std::size_t h_stride,
                   Cache& cache) const {
  check_rows(x, steps, h, h_stride);
  cache.steps = steps;
  cache.xh.resize(steps * (input_ + hidden_));
  cache.gates.resize(steps * 4 * hidden_);
  cache.c.resize((steps + 1) * hidden_);
  cache.tanh_c.resize(steps * hidden_);
  run(x.data(), steps, h.data(), h_stride, cache.xh.data(),
      cache.gates.data(), cache.c.data(), cache.tanh_c.data(),
      /*keep=*/true);
}

void Lstm::infer_into(std::span<const double> x, std::size_t steps,
                      std::span<double> h, std::size_t h_stride,
                      std::span<double> ws) const {
  check_rows(x, steps, h, h_stride);
  VKEY_REQUIRE(ws.size() >= workspace_size(), "Lstm workspace too small");
  trace::ScopedTimer timer(metrics::histogram<"nn.lstm.infer_ms">());
  double* xh = ws.data();              // [x_t ; h_prev]
  double* z = xh + input_ + hidden_;   // fused 4H gate pre-activations
  double* c = z + 4 * hidden_;         // running cell state, then tanh(c)
  run(x.data(), steps, h.data(), h_stride, xh, z, c, c + hidden_,
      /*keep=*/false);
}

Vec Lstm::infer_reference(std::span<const double> x,
                          std::size_t steps) const {
  VKEY_REQUIRE(steps > 0, "Lstm infer on empty sequence");
  VKEY_REQUIRE(x.size() == steps * input_, "Lstm input length mismatch");
  const std::size_t h = hidden_;
  Vec out(steps * h);
  Vec hv(h, 0.0), cv(h, 0.0);
  for (std::size_t step_idx = 0; step_idx < steps; ++step_idx) {
    const std::size_t t = reverse_ ? steps - 1 - step_idx : step_idx;
    const double* xt = &x[t * input_];
    Vec z(4 * h);
    for (std::size_t j = 0; j < 4 * h; ++j) {
      double sum = b_.value[j];
      const double* wx_row = &wx_.value[j * input_];
      for (std::size_t k = 0; k < input_; ++k) sum += wx_row[k] * xt[k];
      const double* wh_row = &wh_.value[j * h];
      for (std::size_t k = 0; k < h; ++k) sum += wh_row[k] * hv[k];
      z[j] = sum;
    }
    Vec gi(h), gf(h), gg(h), go(h), c(h), tc(h);
    for (std::size_t k = 0; k < h; ++k) {
      gi[k] = sigmoid(z[k]);
      gf[k] = sigmoid(z[h + k]);
      gg[k] = std::tanh(z[2 * h + k]);
      go[k] = sigmoid(z[3 * h + k]);
      c[k] = gf[k] * cv[k] + gi[k] * gg[k];
      tc[k] = std::tanh(c[k]);
    }
    cv = c;
    for (std::size_t k = 0; k < h; ++k) hv[k] = go[k] * tc[k];
    std::copy(hv.begin(), hv.end(), &out[t * h]);
  }
  return out;
}

void Lstm::backward(const Cache& cache, std::span<const double> dh,
                    std::size_t dh_stride) {
  const std::size_t t_len = cache.steps;
  VKEY_REQUIRE(t_len > 0, "Lstm backward before forward");
  VKEY_REQUIRE(dh.size() >= (t_len - 1) * dh_stride + hidden_,
               "Lstm grad length mismatch");
  const std::size_t h = hidden_;
  const std::size_t width = input_ + h;
  VKEY_REQUIRE(cache.xh.size() == t_len * width &&
                   cache.gates.size() == t_len * 4 * h &&
                   cache.c.size() == (t_len + 1) * h &&
                   cache.tanh_c.size() == t_len * h,
               "Lstm cache shape mismatch");

  // The recurrence: per step only the gate gradients dz and the dh/dc
  // carried to the previous step.
  dz_.resize(t_len * 4 * h + 2 * h);
  double* dh_rec = &dz_[t_len * 4 * h];
  double* dc_rec = dh_rec + h;
  std::fill(dh_rec, dc_rec + h, 0.0);
  for (std::size_t step = t_len; step-- > 0;) {
    const std::size_t t = reverse_ ? t_len - 1 - step : step;
    const double* gi = &cache.gates[step * 4 * h];
    const double* gf = gi + h;
    const double* gg = gi + 2 * h;
    const double* go = gi + 3 * h;
    const double* c_prev = &cache.c[step * h];
    const double* tanh_c = &cache.tanh_c[step * h];
    const double* grad = &dh[t * dh_stride];
    double* dz = &dz_[step * 4 * h];
    for (std::size_t k = 0; k < h; ++k) {
      const double dh_t = grad[k] + dh_rec[k];
      const double d_o = dh_t * tanh_c[k];
      const double dc = dh_t * go[k] * dtanh_from_y(tanh_c[k]) + dc_rec[k];
      const double d_f = dc * c_prev[k];
      const double d_i = dc * gg[k];
      const double d_g = dc * gi[k];
      dc_rec[k] = dc * gf[k];
      dz[k] = d_i * dsigmoid_from_y(gi[k]);
      dz[h + k] = d_f * dsigmoid_from_y(gf[k]);
      dz[2 * h + k] = d_g * dtanh_from_y(gg[k]);
      dz[3 * h + k] = d_o * dsigmoid_from_y(go[k]);
    }
    if (step > 0) {  // the first processed step has no predecessor
      matvec_transposed(wh_.value.data(), 4 * h, h, {dz, 0}, 1, {dh_rec, 0});
    }
  }

  // Parameter gradients, one accumulation per matrix over the steps in the
  // order the recurrence visited them (last processed step first: a
  // negative stride) — the order per-step accumulation used.
  static constexpr double kOne = 1.0;
  const Rows<const double> dz{&dz_[(t_len - 1) * 4 * h],
                              -static_cast<std::ptrdiff_t>(4 * h)};
  const double* xh_last = &cache.xh[(t_len - 1) * width];
  const auto back = -static_cast<std::ptrdiff_t>(width);
  accumulate_outer(dz, {xh_last, back}, t_len, 4 * h, input_,
                   wx_.grad.data());
  accumulate_outer(dz, {xh_last + input_, back}, t_len, 4 * h, h,
                   wh_.grad.data());
  accumulate_outer(dz, {&kOne, 0}, t_len, 4 * h, 1, b_.grad.data());
}

BiLstm::BiLstm(std::size_t input, std::size_t hidden, vkey::Rng& rng)
    : hidden_(hidden),
      fwd_(input, hidden, rng, /*reverse=*/false),
      bwd_(input, hidden, rng, /*reverse=*/true) {}

// Each direction writes its half of every output row: the forward pass at
// column 0, the backward pass at column hidden_, both at stride 2H.
void BiLstm::forward(std::span<const double> x, std::size_t steps,
                     std::span<double> out, Cache& cache) const {
  VKEY_REQUIRE(out.size() == steps * 2 * hidden_, "BiLstm output mismatch");
  fwd_.forward(x, steps, out, 2 * hidden_, cache.fwd);
  bwd_.forward(x, steps, out.subspan(hidden_), 2 * hidden_, cache.bwd);
}

void BiLstm::infer_into(std::span<const double> x, std::size_t steps,
                        std::span<double> out, std::span<double> ws) const {
  VKEY_REQUIRE(out.size() == steps * 2 * hidden_, "BiLstm output mismatch");
  fwd_.infer_into(x, steps, out, 2 * hidden_, ws);
  bwd_.infer_into(x, steps, out.subspan(hidden_), 2 * hidden_, ws);
}

Vec BiLstm::infer_reference(std::span<const double> x,
                            std::size_t steps) const {
  const Vec hf = fwd_.infer_reference(x, steps);
  const Vec hb = bwd_.infer_reference(x, steps);
  Vec out(steps * 2 * hidden_);
  for (std::size_t t = 0; t < steps; ++t) {
    std::copy_n(&hf[t * hidden_], hidden_, &out[2 * t * hidden_]);
    std::copy_n(&hb[t * hidden_], hidden_, &out[(2 * t + 1) * hidden_]);
  }
  return out;
}

void BiLstm::set_quantized(bool quantized) {
  fwd_.set_quantized(quantized);
  bwd_.set_quantized(quantized);
}

void BiLstm::backward(const Cache& cache, std::span<const double> grad_out) {
  const std::size_t steps = cache.fwd.steps;
  // Guard like Lstm::backward does: reject a pass that never ran and a
  // gradient whose length disagrees with the cached forward pass before
  // any indexing happens.
  VKEY_REQUIRE(steps > 0 && cache.bwd.steps == steps,
               "BiLstm backward before forward");
  VKEY_REQUIRE(grad_out.size() == steps * 2 * hidden_,
               "BiLstm backward/forward length mismatch");
  fwd_.backward(cache.fwd, grad_out, 2 * hidden_);
  bwd_.backward(cache.bwd, grad_out.subspan(hidden_), 2 * hidden_);
}

std::vector<Parameter*> BiLstm::parameters() {
  auto p = fwd_.parameters();
  const auto pb = bwd_.parameters();
  p.insert(p.end(), pb.begin(), pb.end());
  return p;
}

}  // namespace vkey::nn
