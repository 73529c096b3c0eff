#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>

#include "common/error.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace vkey::nn {
namespace {

TEST(MseLoss, ZeroForPerfectPrediction) {
  Vec grad(2, 7.0);
  EXPECT_DOUBLE_EQ(mse_loss(Vec{1.0, 2.0}, Vec{1.0, 2.0}, grad), 0.0);
  EXPECT_DOUBLE_EQ(grad[0], 0.0);
}

TEST(MseLoss, KnownValue) {
  Vec grad(2);
  EXPECT_DOUBLE_EQ(mse_loss(Vec{0.0, 0.0}, Vec{1.0, 3.0}, grad),
                   5.0);  // (1 + 9) / 2
  EXPECT_DOUBLE_EQ(grad[0], -1.0);
  EXPECT_DOUBLE_EQ(grad[1], -3.0);
}

TEST(MseLoss, SizeMismatchThrows) {
  Vec grad(2);
  EXPECT_THROW(mse_loss(Vec{1.0}, Vec{1.0, 2.0}, grad), vkey::Error);
  // The gradient row must be exactly as wide as the prediction.
  EXPECT_THROW(mse_loss(Vec{1.0}, Vec{1.0}, grad), vkey::Error);
}

TEST(BceWithLogits, KnownValueAtZeroLogit) {
  Vec grad(1);
  EXPECT_NEAR(bce_with_logits(Vec{0.0}, Vec{1.0}, grad), std::log(2.0),
              1e-12);
  EXPECT_NEAR(grad[0], -0.5, 1e-12);  // sigmoid(0) - 1
}

TEST(BceWithLogits, ConfidentCorrectIsCheap) {
  Vec grad(1);
  EXPECT_LT(bce_with_logits(Vec{10.0}, Vec{1.0}, grad), 1e-4);
  EXPECT_GT(bce_with_logits(Vec{-10.0}, Vec{1.0}, grad), 9.0);
}

TEST(BceWithLogits, StableForExtremeLogits) {
  Vec grad(2);
  const double loss =
      bce_with_logits(Vec{1000.0, -1000.0}, Vec{1.0, 0.0}, grad);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_NEAR(loss, 0.0, 1e-9);
}

TEST(BceWithLogits, TargetRangeValidated) {
  Vec grad(1);
  EXPECT_THROW(bce_with_logits(Vec{0.0}, Vec{1.5}, grad), vkey::Error);
  // So are the lengths, the gradient row's included.
  EXPECT_THROW(bce_with_logits(Vec{0.0}, Vec{1.0, 0.0}, grad), vkey::Error);
  EXPECT_THROW(bce_with_logits(Vec{0.0, 1.0}, Vec{1.0, 0.0}, grad),
               vkey::Error);
}

TEST(BceWithLogits, GradientMatchesNumeric) {
  const Vec logits{0.7, -1.2};
  const Vec target{1.0, 0.0};
  Vec grad(2), unused(2);
  bce_with_logits(logits, target, grad);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Vec up = logits, down = logits;
    up[i] += eps;
    down[i] -= eps;
    const double numeric = (bce_with_logits(up, target, unused) -
                            bce_with_logits(down, target, unused)) /
                           (2.0 * eps);
    EXPECT_NEAR(grad[i], numeric, 1e-6);
  }
}

TEST(Activations, SigmoidSymmetry) {
  EXPECT_NEAR(sigmoid(0.0), 0.5, 1e-12);
  EXPECT_NEAR(sigmoid(3.0) + sigmoid(-3.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(100.0), 1.0, 1e-12);
  EXPECT_NEAR(sigmoid(-100.0), 0.0, 1e-12);
}

TEST(Adam, ConvergesOnQuadratic) {
  Parameter w(1);
  w.value[0] = 10.0;
  Adam opt({&w}, 0.1);
  for (int i = 0; i < 1500; ++i) {
    w.grad[0] = 2.0 * (w.value[0] + 5.0);
    opt.step();
  }
  EXPECT_NEAR(w.value[0], -5.0, 1e-2);
}

TEST(Adam, TrainsXorWithHiddenLayer) {
  // End-to-end sanity: a 2-4-1 network learns XOR.
  vkey::Rng rng(21);
  Dense l1(2, 6, rng, Activation::kTanh);
  Dense l2(6, 1, rng);
  std::vector<Parameter*> params = l1.parameters();
  for (auto* p : l2.parameters()) params.push_back(p);
  Adam opt(params, 0.05);

  const std::vector<std::pair<Vec, double>> data = {
      {{0.0, 0.0}, 0.0}, {{0.0, 1.0}, 1.0}, {{1.0, 0.0}, 1.0},
      {{1.0, 1.0}, 0.0}};
  // One mini-batch of all four points per step, row m of each buffer being
  // point m's.
  const std::size_t n = data.size();
  Vec x(n * 2), h(n * 6), dh(n * 6), logits(n), target(n), dlogits(n);
  for (std::size_t m = 0; m < n; ++m) {
    std::copy_n(data[m].first.begin(), 2, &x[m * 2]);
    target[m] = data[m].second;
  }
  const auto row = [](Vec& v, std::size_t m, std::size_t width) {
    return std::span(v).subspan(m * width, width);
  };
  for (int epoch = 0; epoch < 400; ++epoch) {
    for (std::size_t m = 0; m < n; ++m) {
      l1.forward(row(x, m, 2), row(h, m, 6));
      l2.forward(row(h, m, 6), row(logits, m, 1));
      bce_with_logits(row(logits, m, 1), row(target, m, 1),
                      row(dlogits, m, 1));
    }
    l2.backward_batch(n, h, logits, dlogits, dh);
    l1.backward_batch(n, x, h, dh, {});
    opt.step(n);
  }
  for (const auto& [x, y] : data) {
    const double p = sigmoid(l2.infer(l1.infer(x))[0]);
    EXPECT_NEAR(p, y, 0.2) << x[0] << "," << x[1];
  }
}

TEST(Optimizers, ValidateLearningRate) {
  Parameter w(1);
  EXPECT_THROW(Adam({&w}, 0.0), vkey::Error);
  EXPECT_THROW(Adam({&w}, -1.0), vkey::Error);
}

TEST(Optimizers, BatchSizeValidated) {
  Parameter w(1);
  Adam opt({&w}, 0.1);
  EXPECT_THROW(opt.step(0), vkey::Error);
}

}  // namespace
}  // namespace vkey::nn
