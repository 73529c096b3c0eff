#include "nn/lstm.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/error.h"
#include "nn/loss.h"

namespace vkey::nn {
namespace {

/// The hidden-state rows (steps x hidden) of `lstm` over `x`, one input
/// row per step, through infer_into with a fresh workspace.
Vec infer(const Lstm& lstm, const Vec& x) {
  const std::size_t steps = x.size() / lstm.input_size();
  Vec h(steps * lstm.hidden_size()), ws(lstm.workspace_size());
  lstm.infer_into(x, steps, h, lstm.hidden_size(), ws);
  return h;
}

/// infer() for a BiLSTM: steps x output_size() rows.
Vec infer(const BiLstm& bi, const Vec& x, std::size_t steps) {
  Vec h(steps * bi.output_size()), ws(bi.workspace_size());
  bi.infer_into(x, steps, h, ws);
  return h;
}

/// Row t of a row-major buffer of `width`-wide rows.
Vec row(const Vec& rows, std::size_t t, std::size_t width) {
  return Vec(rows.begin() + static_cast<std::ptrdiff_t>(t * width),
             rows.begin() + static_cast<std::ptrdiff_t>((t + 1) * width));
}

TEST(Lstm, OutputShape) {
  // Step t fills h[t * stride, t * stride + hidden) and nothing else.
  vkey::Rng rng(1);
  Lstm lstm(1, 4, rng);
  const Vec x{0.1, 0.2, 0.3};
  const std::size_t stride = 7;
  const double unset = std::numeric_limits<double>::quiet_NaN();
  Vec h(2 * stride + 4 + 3, unset), ws(lstm.workspace_size());
  lstm.infer_into(x, 3, h, stride, ws);
  for (std::size_t i = 0; i < h.size(); ++i) {
    const bool in_row = i < 3 * stride && i % stride < 4;
    EXPECT_EQ(std::isnan(h[i]), !in_row) << "index " << i;
  }
  Vec packed(3 * 4);
  for (std::size_t t = 0; t < 3; ++t)
    std::copy_n(&h[t * stride], 4, &packed[t * 4]);
  EXPECT_EQ(packed, infer(lstm, x));
}

TEST(Lstm, EmptySequenceRejected) {
  vkey::Rng rng(2);
  Lstm lstm(1, 4, rng);
  Vec h(4), ws(lstm.workspace_size());
  Lstm::Cache cache;
  EXPECT_THROW(lstm.infer_into({}, 0, h, 4, ws), vkey::Error);
  EXPECT_THROW(lstm.forward({}, 0, h, 4, cache), vkey::Error);
}

TEST(Lstm, InputWidthChecked) {
  vkey::Rng rng(3);
  Lstm lstm(2, 4, rng);
  const Vec x{0.1};  // one step needs two values
  Vec h(4), ws(lstm.workspace_size());
  Lstm::Cache cache;
  EXPECT_THROW(lstm.infer_into(x, 1, h, 4, ws), vkey::Error);
  EXPECT_THROW(lstm.forward(x, 1, h, 4, cache), vkey::Error);
  // Room for the rows and the workspace is checked too.
  const Vec x2{0.1, 0.2, 0.3, 0.4};
  Vec short_h(4 + 3);
  EXPECT_THROW(lstm.infer_into(x2, 2, short_h, 4, ws), vkey::Error);
  EXPECT_THROW(lstm.forward(x2, 2, short_h, 4, cache), vkey::Error);
  Vec short_ws(lstm.workspace_size() - 1), h2(8);
  EXPECT_THROW(lstm.infer_into(x2, 2, h2, 4, short_ws), vkey::Error);
}

TEST(Lstm, ForwardMatchesInfer) {
  vkey::Rng rng(4);
  Lstm lstm(1, 6, rng);
  const Vec x{0.5, -0.5, 0.25, 0.0};
  Lstm::Cache cache;
  Vec h(x.size() * 6);
  lstm.forward(x, x.size(), h, 6, cache);
  EXPECT_EQ(h, infer(lstm, x));
  EXPECT_EQ(cache.steps, x.size());
}

TEST(Lstm, ReverseProcessesBackwards) {
  vkey::Rng rng(5);
  Lstm fwd(1, 4, rng);
  vkey::Rng rng2(5);
  Lstm rev(1, 4, rng2, /*reverse=*/true);
  const Vec x{0.9, 0.1, -0.4};
  Vec x_reversed = x;
  std::reverse(x_reversed.begin(), x_reversed.end());
  // Reverse LSTM on x equals forward LSTM on reversed x, re-reversed.
  const Vec expect = infer(fwd, x_reversed);
  const Vec got = infer(rev, x);
  for (std::size_t t = 0; t < x.size(); ++t) {
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_NEAR(got[t * 4 + k], expect[(x.size() - 1 - t) * 4 + k], 1e-12);
    }
  }
}

TEST(Lstm, HiddenStatesBounded) {
  vkey::Rng rng(6);
  Lstm lstm(1, 8, rng);
  for (double v : infer(lstm, {100.0, -100.0, 50.0})) {
    EXPECT_GT(v, -1.0);
    EXPECT_LT(v, 1.0);  // h = o * tanh(c), both factors bounded
  }
}

// Full BPTT numerical gradient check on a small LSTM.
TEST(Lstm, GradientCheck) {
  vkey::Rng rng(7);
  Lstm lstm(2, 3, rng);
  const Vec x{0.2, -0.1, 0.5, 0.3, -0.4, 0.8};  // three steps
  const Vec target{0.1, -0.2, 0.3};

  Vec unused(3);
  auto loss_of = [&] {
    return mse_loss(row(infer(lstm, x), 2, 3), target, unused);
  };

  Lstm::Cache cache;
  Vec h(3 * 3);
  lstm.forward(x, 3, h, 3, cache);
  // The loss reads the last step only: its gradient fills dL/dh's last row.
  Vec dout(3 * 3, 0.0);
  mse_loss(row(h, 2, 3), target, std::span(dout).subspan(6));
  lstm.backward(cache, dout, 3);

  const double eps = 1e-6;
  for (Parameter* p : lstm.parameters()) {
    // Sample a subset of indices to keep the test fast.
    for (std::size_t i = 0; i < p->size(); i += 3) {
      const double saved = p->value[i];
      // Direct value edits must bump() so the packed-weight cache repacks.
      p->value[i] = saved + eps;
      p->bump();
      const double up = loss_of();
      p->value[i] = saved - eps;
      p->bump();
      const double down = loss_of();
      p->value[i] = saved;
      p->bump();
      EXPECT_NEAR(p->grad[i], (up - down) / (2.0 * eps), 1e-5)
          << "index " << i;
    }
  }
}

TEST(BiLstm, OutputIsConcatenation) {
  // Row t is [forward h_t ; backward h_t] of the two directions run alone.
  vkey::Rng rng(9);
  BiLstm bi(1, 4, rng);
  EXPECT_EQ(bi.output_size(), 8u);
  vkey::Rng unused(0);
  Lstm fwd(1, 4, unused), bwd(1, 4, unused, /*reverse=*/true);
  const auto p = bi.parameters();
  const auto pf = fwd.parameters(), pb = bwd.parameters();
  for (std::size_t k = 0; k < 3; ++k) {
    pf[k]->value = p[k]->value;
    pb[k]->value = p[3 + k]->value;
  }
  const Vec x{0.1, 0.5};
  const Vec h = infer(bi, x, 2), hf = infer(fwd, x), hb = infer(bwd, x);
  for (std::size_t t = 0; t < 2; ++t) {
    Vec both = row(hf, t, 4);
    const Vec back = row(hb, t, 4);
    both.insert(both.end(), back.begin(), back.end());
    EXPECT_EQ(row(h, t, 8), both) << "t=" << t;
  }
}

TEST(BiLstm, SeesFutureContext) {
  // The first output step must depend on the last input (through the
  // reverse direction) — that is the point of bidirectionality.
  vkey::Rng rng(10);
  BiLstm bi(1, 4, rng);
  const Vec h1 = infer(bi, {0.1, 0.2, 0.3}, 3);
  const Vec h2 = infer(bi, {0.1, 0.2, 0.9}, 3);
  double diff = 0.0;
  for (std::size_t k = 0; k < bi.output_size(); ++k) {
    diff += std::fabs(h1[k] - h2[k]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(BiLstm, GradientCheck) {
  vkey::Rng rng(11);
  BiLstm bi(1, 2, rng);
  const Vec x{0.4, -0.2, 0.6};
  const Vec target{0.1, 0.2, 0.3, 0.4};

  Vec unused(4);
  auto loss_of = [&] {
    return mse_loss(row(infer(bi, x, 3), 1, 4), target, unused);
  };

  BiLstm::Cache cache;
  Vec h(3 * 4);
  bi.forward(x, 3, h, cache);
  // The loss reads step 1 only: its gradient fills dL/dh's row 1.
  Vec dout(3 * 4, 0.0);
  mse_loss(row(h, 1, 4), target, std::span(dout).subspan(4, 4));
  bi.backward(cache, dout);

  const double eps = 1e-6;
  for (Parameter* p : bi.parameters()) {
    for (std::size_t i = 0; i < p->size(); i += 5) {
      const double saved = p->value[i];
      p->value[i] = saved + eps;
      p->bump();
      const double up = loss_of();
      p->value[i] = saved - eps;
      p->bump();
      const double down = loss_of();
      p->value[i] = saved;
      p->bump();
      EXPECT_NEAR(p->grad[i], (up - down) / (2.0 * eps), 1e-5);
    }
  }
}

}  // namespace
}  // namespace vkey::nn
