#include "nn/lstm.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "nn/loss.h"

namespace vkey::nn {
namespace {

Seq make_seq(std::initializer_list<double> vals) {
  Seq s;
  for (double v : vals) s.push_back({v});
  return s;
}

TEST(Lstm, OutputShape) {
  vkey::Rng rng(1);
  Lstm lstm(1, 4, rng);
  const Seq h = lstm.infer(make_seq({0.1, 0.2, 0.3}));
  ASSERT_EQ(h.size(), 3u);
  for (const auto& ht : h) EXPECT_EQ(ht.size(), 4u);
}

TEST(Lstm, EmptySequenceRejected) {
  vkey::Rng rng(2);
  Lstm lstm(1, 4, rng);
  EXPECT_THROW(lstm.infer({}), vkey::Error);
}

TEST(Lstm, InputWidthChecked) {
  vkey::Rng rng(3);
  Lstm lstm(2, 4, rng);
  EXPECT_THROW(lstm.infer(make_seq({0.1})), vkey::Error);
}

TEST(Lstm, ForwardMatchesInfer) {
  vkey::Rng rng(4);
  Lstm lstm(1, 6, rng);
  const Seq x = make_seq({0.5, -0.5, 0.25, 0.0});
  Lstm::Cache cache;
  EXPECT_EQ(lstm.forward(x, cache), lstm.infer(x));
  EXPECT_EQ(cache.steps, x.size());
}

TEST(Lstm, ReverseProcessesBackwards) {
  vkey::Rng rng(5);
  Lstm fwd(1, 4, rng);
  vkey::Rng rng2(5);
  Lstm rev(1, 4, rng2, /*reverse=*/true);
  const Seq x = make_seq({0.9, 0.1, -0.4});
  Seq x_reversed = x;
  std::reverse(x_reversed.begin(), x_reversed.end());
  // Reverse LSTM on x equals forward LSTM on reversed x, re-reversed.
  Seq expect = fwd.infer(x_reversed);
  std::reverse(expect.begin(), expect.end());
  const Seq got = rev.infer(x);
  for (std::size_t t = 0; t < x.size(); ++t) {
    for (std::size_t k = 0; k < 4; ++k) {
      EXPECT_NEAR(got[t][k], expect[t][k], 1e-12);
    }
  }
}

TEST(Lstm, HiddenStatesBounded) {
  vkey::Rng rng(6);
  Lstm lstm(1, 8, rng);
  const Seq h = lstm.infer(make_seq({100.0, -100.0, 50.0}));
  for (const auto& ht : h) {
    for (double v : ht) {
      EXPECT_GT(v, -1.0);
      EXPECT_LT(v, 1.0);  // h = o * tanh(c), both factors bounded
    }
  }
}

// Full BPTT numerical gradient check on a small LSTM.
TEST(Lstm, GradientCheck) {
  vkey::Rng rng(7);
  Lstm lstm(2, 3, rng);
  const Seq x = {{0.2, -0.1}, {0.5, 0.3}, {-0.4, 0.8}};
  const Vec target{0.1, -0.2, 0.3};

  auto loss_of = [&] {
    const Seq h = lstm.infer(x);
    return mse_loss(h.back(), target).loss;
  };

  Lstm::Cache cache;
  const Seq h = lstm.forward(x, cache);
  const auto l = mse_loss(h.back(), target);
  Seq dout(x.size(), Vec(3, 0.0));
  dout.back() = l.grad;
  lstm.backward(cache, dout);

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

TEST(Lstm, InputGradientCheck) {
  vkey::Rng rng(8);
  Lstm lstm(1, 3, rng);
  Seq x = make_seq({0.3, -0.6, 0.2});
  const Vec target{0.5, 0.5, -0.5};
  Lstm::Cache cache;
  const Seq h = lstm.forward(x, cache);
  const auto l = mse_loss(h.back(), target);
  Seq dout(x.size(), Vec(3, 0.0));
  dout.back() = l.grad;
  const Seq dx = lstm.backward(cache, dout);

  const double eps = 1e-6;
  for (std::size_t t = 0; t < x.size(); ++t) {
    const double saved = x[t][0];
    x[t][0] = saved + eps;
    const double up = mse_loss(lstm.infer(x).back(), target).loss;
    x[t][0] = saved - eps;
    const double down = mse_loss(lstm.infer(x).back(), target).loss;
    x[t][0] = saved;
    EXPECT_NEAR(dx[t][0], (up - down) / (2.0 * eps), 1e-5) << "t=" << t;
  }
}

TEST(BiLstm, OutputIsConcatenation) {
  vkey::Rng rng(9);
  BiLstm bi(1, 4, rng);
  const Seq h = bi.infer(make_seq({0.1, 0.5}));
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0].size(), 8u);
  EXPECT_EQ(bi.output_size(), 8u);
}

TEST(BiLstm, SeesFutureContext) {
  // The first output step must depend on the last input (through the
  // reverse direction) — that is the point of bidirectionality.
  vkey::Rng rng(10);
  BiLstm bi(1, 4, rng);
  Seq x1 = make_seq({0.1, 0.2, 0.3});
  Seq x2 = make_seq({0.1, 0.2, 0.9});
  const Seq h1 = bi.infer(x1);
  const Seq h2 = bi.infer(x2);
  double diff = 0.0;
  for (std::size_t k = 0; k < h1[0].size(); ++k) {
    diff += std::fabs(h1[0][k] - h2[0][k]);
  }
  EXPECT_GT(diff, 1e-6);
}

TEST(BiLstm, GradientCheck) {
  vkey::Rng rng(11);
  BiLstm bi(1, 2, rng);
  const Seq x = make_seq({0.4, -0.2, 0.6});
  const Vec target{0.1, 0.2, 0.3, 0.4};

  auto loss_of = [&] {
    return mse_loss(bi.infer(x)[1], target).loss;
  };

  BiLstm::Cache cache;
  const Seq h = bi.forward(x, cache);
  const auto l = mse_loss(h[1], target);
  Seq dout(x.size(), Vec(4, 0.0));
  dout[1] = l.grad;
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
