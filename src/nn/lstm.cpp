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

/// Row-major copy of a sequence of `width`-wide steps, checked first: an
/// empty or ragged sequence is rejected before any work is counted.
Vec flat_inputs(const Seq& x, std::size_t width) {
  VKEY_REQUIRE(!x.empty(), "Lstm infer on empty sequence");
  for (const Vec& xt : x)
    VKEY_REQUIRE(xt.size() == width, "Lstm input width mismatch");
  Vec flat;
  flat.reserve(x.size() * width);
  for (const Vec& xt : x) flat.insert(flat.end(), xt.begin(), xt.end());
  return flat;
}

/// The rows of a row-major `steps x width` buffer as a sequence.
Seq rows(const Vec& flat, std::size_t steps, std::size_t width) {
  Seq out(steps);
  for (std::size_t t = 0; t < steps; ++t) {
    const auto row = flat.begin() + static_cast<std::ptrdiff_t>(t * width);
    out[t].assign(row, row + static_cast<std::ptrdiff_t>(width));
  }
  return out;
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

// One fused cell step. xh holds [x_t ; h_prev]; the single packed matvec
// computes all 4H gate pre-activations in the exact accumulation order of
// the naive cell (bias, then Wx columns, then Wh columns — see
// PackedMatrix::pack_pair). Gates are evaluated in place in z
// (i | f | g | o blocks); each element depends only on its own
// pre-activation, so the value sequence matches the reference loop bit for
// bit.
void Lstm::step_fused(const double* xh, double* z, const double* c_prev,
                      double* c, double* tc, double* hv) const {
  const std::size_t h = hidden_;
  packed().matvec(xh, b_.value.data(), z);
  for (std::size_t k = 0; k < 2 * h; ++k) z[k] = sigmoid(z[k]);
  for (std::size_t k = 2 * h; k < 3 * h; ++k) z[k] = std::tanh(z[k]);
  for (std::size_t k = 3 * h; k < 4 * h; ++k) z[k] = sigmoid(z[k]);
  for (std::size_t k = 0; k < h; ++k)
    c[k] = z[h + k] * c_prev[k] + z[k] * z[2 * h + k];
  for (std::size_t k = 0; k < h; ++k) tc[k] = std::tanh(c[k]);
  for (std::size_t k = 0; k < h; ++k) hv[k] = z[3 * h + k] * tc[k];
}

// The int8 variant: quantized fused affine plus polynomial gate
// activations (see gemm.h). Same dataflow, not bit-exact.
void Lstm::step_quantized(const double* xh, std::int8_t* xq, double* z,
                          double* c, double* tc, double* hv) const {
  const std::size_t h = hidden_;
  const QuantizedMatrix& qm = quant();
  const double x_scale = QuantizedMatrix::quantize_input(xh, input_ + h, xq);
  qm.matvec(xq, x_scale, b_.value.data(), z);
  sigmoid_approx(z, 2 * h, z);
  tanh_approx(z + 2 * h, h, z + 2 * h);
  sigmoid_approx(z + 3 * h, h, z + 3 * h);
  for (std::size_t k = 0; k < h; ++k)
    c[k] = z[h + k] * c[k] + z[k] * z[2 * h + k];
  tanh_approx(c, h, tc);
  for (std::size_t k = 0; k < h; ++k) hv[k] = z[3 * h + k] * tc[k];
}

Seq Lstm::forward(const Seq& x, Cache& cache) const {
  const std::size_t t_len = x.size();
  // Validate the whole sequence BEFORE touching the step/FLOP counters: a
  // rejected pass must not account for work that never ran.
  VKEY_REQUIRE(t_len > 0, "Lstm forward on empty sequence");
  for (const Vec& xt : x)
    VKEY_REQUIRE(xt.size() == input_, "Lstm input width mismatch");
  metrics::counter<"nn.lstm.cell_steps">().add(t_len);
  metrics::counter<"nn.lstm.flops">().add(t_len *
                                          step_flops(input_, hidden_));
  const std::size_t h = hidden_;
  const std::size_t width = input_ + h;
  cache.steps = t_len;
  cache.xh.resize(t_len * width);
  cache.gates.resize(t_len * 4 * h);
  cache.c.resize((t_len + 1) * h);
  std::fill(cache.c.begin(), cache.c.begin() + static_cast<std::ptrdiff_t>(h),
            0.0);
  cache.tanh_c.resize(t_len * h);
  Seq out(t_len, Vec(h));
  const double* h_prev = nullptr;
  for (std::size_t step = 0; step < t_len; ++step) {
    const std::size_t t = reverse_ ? t_len - 1 - step : step;
    double* xh = &cache.xh[step * width];
    std::copy(x[t].begin(), x[t].end(), xh);
    if (h_prev != nullptr) {
      std::copy(h_prev, h_prev + h, xh + input_);
    } else {
      std::fill(xh + input_, xh + width, 0.0);
    }
    step_fused(xh, &cache.gates[step * 4 * h], &cache.c[step * h],
               &cache.c[(step + 1) * h], &cache.tanh_c[step * h],
               out[t].data());
    h_prev = out[t].data();
  }
  return out;
}

void Lstm::infer_into(const double* x, std::size_t steps, double* out,
                      std::size_t out_stride, double* ws) const {
  VKEY_REQUIRE(steps > 0, "Lstm infer on empty sequence");
  metrics::counter<"nn.lstm.cell_steps">().add(steps);
  metrics::counter<"nn.lstm.flops">().add(steps *
                                          step_flops(input_, hidden_));
  trace::ScopedTimer timer(metrics::histogram<"nn.lstm.infer_ms">());
  const std::size_t h = hidden_;
  double* xh = ws;               // [x_t ; h_prev]
  double* z = xh + input_ + h;   // fused 4H gate pre-activations
  double* hv = z + 4 * h;        // running hidden state
  double* c = hv + h;            // running cell state
  double* tc = c + h;            // tanh(c)
  std::fill(hv, c + h, 0.0);     // h and c start at zero
  std::vector<std::int8_t> xq;   // quantized xh (int8 path)
  if (quantized_) xq.assign(quant().padded_cols(), 0);
  for (std::size_t step = 0; step < steps; ++step) {
    const std::size_t t = reverse_ ? steps - 1 - step : step;
    std::copy(x + t * input_, x + (t + 1) * input_, xh);
    std::copy(hv, hv + h, xh + input_);
    if (quantized_) {
      step_quantized(xh, xq.data(), z, c, tc, hv);
    } else {
      step_fused(xh, z, c, c, tc, hv);
    }
    std::copy(hv, hv + h, out + t * out_stride);
  }
}

Seq Lstm::infer(const Seq& x) const {
  const Vec flat = flat_inputs(x, input_);
  Vec out(x.size() * hidden_);
  Vec ws(workspace_size());
  infer_into(flat.data(), x.size(), out.data(), hidden_, ws.data());
  return rows(out, x.size(), hidden_);
}

Seq Lstm::infer_reference(const Seq& x) const {
  const std::size_t t_len = x.size();
  VKEY_REQUIRE(t_len > 0, "Lstm infer on empty sequence");
  const std::size_t h = hidden_;
  Seq out(t_len);
  Vec hv(h, 0.0), cv(h, 0.0);
  for (std::size_t step_idx = 0; step_idx < t_len; ++step_idx) {
    const std::size_t t = reverse_ ? t_len - 1 - step_idx : step_idx;
    VKEY_REQUIRE(x[t].size() == input_, "Lstm input width mismatch");
    Vec z(4 * h);
    for (std::size_t j = 0; j < 4 * h; ++j) {
      double sum = b_.value[j];
      const double* wx_row = &wx_.value[j * input_];
      for (std::size_t k = 0; k < input_; ++k) sum += wx_row[k] * x[t][k];
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
    hv.resize(h);
    for (std::size_t k = 0; k < h; ++k) hv[k] = go[k] * tc[k];
    out[t] = hv;
  }
  return out;
}

Seq Lstm::backward(const Cache& cache, const Seq& grad_out) {
  const std::size_t t_len = cache.steps;
  VKEY_REQUIRE(t_len > 0, "Lstm backward before forward");
  VKEY_REQUIRE(grad_out.size() == t_len, "Lstm grad length mismatch");
  for (const Vec& g : grad_out)
    VKEY_REQUIRE(g.size() == hidden_, "Lstm grad width mismatch");
  const std::size_t h = hidden_;
  const std::size_t width = input_ + h;
  VKEY_REQUIRE(cache.xh.size() == t_len * width &&
                   cache.gates.size() == t_len * 4 * h &&
                   cache.c.size() == (t_len + 1) * h &&
                   cache.tanh_c.size() == t_len * h,
               "Lstm cache shape mismatch");

  // The recurrence: per step only the gate gradients dz and the dh/dc
  // carried to the previous step.
  dz_.resize(t_len * 4 * h);
  Vec dh_rec(h, 0.0), dc_rec(h, 0.0);
  for (std::size_t step = t_len; step-- > 0;) {
    const std::size_t t = reverse_ ? t_len - 1 - step : step;
    const double* gi = &cache.gates[step * 4 * h];
    const double* gf = gi + h;
    const double* gg = gi + 2 * h;
    const double* go = gi + 3 * h;
    const double* c_prev = &cache.c[step * h];
    const double* tanh_c = &cache.tanh_c[step * h];
    double* dz = &dz_[step * 4 * h];
    for (std::size_t k = 0; k < h; ++k) {
      const double dh = grad_out[t][k] + dh_rec[k];
      const double d_o = dh * tanh_c[k];
      const double dc = dh * go[k] * dtanh_from_y(tanh_c[k]) + dc_rec[k];
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
      double* dh_out = dh_rec.data();
      matvec_transposed(wh_.value.data(), 4 * h, h, &dz, 1, &dh_out);
    }
  }

  // Parameter gradients, one accumulation per matrix over the steps in the
  // order the recurrence visited them (last processed step first) — the
  // order per-step accumulation used — and every step's dx in one pass.
  Seq dx(t_len, Vec(input_));
  std::vector<const double*> dzp(t_len), xp(t_len), hp(t_len);
  std::vector<double*> dxp(t_len);
  for (std::size_t s = 0; s < t_len; ++s) {
    const std::size_t step = t_len - 1 - s;
    dzp[s] = &dz_[step * 4 * h];
    xp[s] = &cache.xh[step * width];
    hp[s] = xp[s] + input_;
    dxp[s] = dx[reverse_ ? t_len - 1 - step : step].data();
  }
  static constexpr double kOne = 1.0;
  const std::vector<const double*> ones(t_len, &kOne);
  accumulate_outer(dzp.data(), xp.data(), t_len, 4 * h, input_,
                   wx_.grad.data());
  accumulate_outer(dzp.data(), hp.data(), t_len, 4 * h, h, wh_.grad.data());
  accumulate_outer(dzp.data(), ones.data(), t_len, 4 * h, 1, b_.grad.data());
  matvec_transposed(wx_.value.data(), 4 * h, input_, dzp.data(), t_len,
                    dxp.data());
  return dx;
}

BiLstm::BiLstm(std::size_t input, std::size_t hidden, vkey::Rng& rng)
    : hidden_(hidden),
      fwd_(input, hidden, rng, /*reverse=*/false),
      bwd_(input, hidden, rng, /*reverse=*/true) {}

Seq BiLstm::forward(const Seq& x, Cache& cache) const {
  const Seq hf = fwd_.forward(x, cache.fwd);
  const Seq hb = bwd_.forward(x, cache.bwd);
  Seq out(x.size(), Vec(2 * hidden_));
  for (std::size_t t = 0; t < x.size(); ++t) {
    std::copy(hf[t].begin(), hf[t].end(), out[t].begin());
    std::copy(hb[t].begin(), hb[t].end(),
              out[t].begin() + static_cast<std::ptrdiff_t>(hidden_));
  }
  return out;
}

Seq BiLstm::infer(const Seq& x) const {
  const Vec flat = flat_inputs(x, fwd_.input_size());
  Vec out(x.size() * 2 * hidden_);
  Vec ws(workspace_size());
  infer_into(flat.data(), x.size(), out.data(), ws.data());
  return rows(out, x.size(), 2 * hidden_);
}

void BiLstm::infer_into(const double* x, std::size_t steps, double* out,
                        double* ws) const {
  // Each direction writes its half of every output row directly — no
  // per-direction temporaries, no concat copy.
  fwd_.infer_into(x, steps, out, 2 * hidden_, ws);
  bwd_.infer_into(x, steps, out + hidden_, 2 * hidden_, ws);
}

Seq BiLstm::infer_reference(const Seq& x) const {
  const Seq hf = fwd_.infer_reference(x);
  const Seq hb = bwd_.infer_reference(x);
  Seq out(x.size(), Vec(2 * hidden_));
  for (std::size_t t = 0; t < x.size(); ++t) {
    std::copy(hf[t].begin(), hf[t].end(), out[t].begin());
    std::copy(hb[t].begin(), hb[t].end(),
              out[t].begin() + static_cast<std::ptrdiff_t>(hidden_));
  }
  return out;
}

void BiLstm::set_quantized(bool quantized) {
  fwd_.set_quantized(quantized);
  bwd_.set_quantized(quantized);
}

Seq BiLstm::backward(const Cache& cache, const Seq& grad_out) {
  const std::size_t t_len = grad_out.size();
  // Guard like Lstm::backward does: reject an empty gradient and a
  // gradient whose length disagrees with the cached forward pass before
  // any indexing happens.
  VKEY_REQUIRE(t_len > 0, "BiLstm backward on empty gradient");
  VKEY_REQUIRE(cache.fwd.steps == t_len && cache.bwd.steps == t_len,
               "BiLstm backward/forward length mismatch");
  Seq gf(t_len, Vec(hidden_)), gb(t_len, Vec(hidden_));
  for (std::size_t t = 0; t < t_len; ++t) {
    VKEY_REQUIRE(grad_out[t].size() == 2 * hidden_,
                 "BiLstm grad width mismatch");
    std::copy(grad_out[t].begin(),
              grad_out[t].begin() + static_cast<std::ptrdiff_t>(hidden_),
              gf[t].begin());
    std::copy(grad_out[t].begin() + static_cast<std::ptrdiff_t>(hidden_),
              grad_out[t].end(), gb[t].begin());
  }
  const Seq dxf = fwd_.backward(cache.fwd, gf);
  const Seq dxb = bwd_.backward(cache.bwd, gb);
  Seq dx(t_len, Vec(fwd_.input_size(), 0.0));
  for (std::size_t t = 0; t < t_len; ++t) {
    for (std::size_t k = 0; k < dx[t].size(); ++k) {
      dx[t][k] = dxf[t][k] + dxb[t][k];
    }
  }
  return dx;
}

std::vector<Parameter*> BiLstm::parameters() {
  auto p = fwd_.parameters();
  const auto pb = bwd_.parameters();
  p.insert(p.end(), pb.begin(), pb.end());
  return p;
}

}  // namespace vkey::nn
