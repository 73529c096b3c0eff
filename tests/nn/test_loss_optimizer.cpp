#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"
#include "nn/activations.h"
#include "nn/dense.h"
#include "nn/loss.h"
#include "nn/optimizer.h"

namespace vkey::nn {
namespace {

TEST(MseLoss, ZeroForPerfectPrediction) {
  const auto r = mse_loss({1.0, 2.0}, {1.0, 2.0});
  EXPECT_DOUBLE_EQ(r.loss, 0.0);
  EXPECT_DOUBLE_EQ(r.grad[0], 0.0);
}

TEST(MseLoss, KnownValue) {
  const auto r = mse_loss({0.0, 0.0}, {1.0, 3.0});
  EXPECT_DOUBLE_EQ(r.loss, 5.0);  // (1 + 9) / 2
  EXPECT_DOUBLE_EQ(r.grad[0], -1.0);
  EXPECT_DOUBLE_EQ(r.grad[1], -3.0);
}

TEST(MseLoss, SizeMismatchThrows) {
  EXPECT_THROW(mse_loss({1.0}, {1.0, 2.0}), vkey::Error);
}

TEST(BceWithLogits, KnownValueAtZeroLogit) {
  const auto r = bce_with_logits({0.0}, {1.0});
  EXPECT_NEAR(r.loss, std::log(2.0), 1e-12);
  EXPECT_NEAR(r.grad[0], -0.5, 1e-12);  // sigmoid(0) - 1
  EXPECT_NEAR(r.probability[0], 0.5, 1e-12);
}

TEST(BceWithLogits, ConfidentCorrectIsCheap) {
  const auto good = bce_with_logits({10.0}, {1.0});
  const auto bad = bce_with_logits({-10.0}, {1.0});
  EXPECT_LT(good.loss, 1e-4);
  EXPECT_GT(bad.loss, 9.0);
}

TEST(BceWithLogits, StableForExtremeLogits) {
  const auto r = bce_with_logits({1000.0, -1000.0}, {1.0, 0.0});
  EXPECT_TRUE(std::isfinite(r.loss));
  EXPECT_NEAR(r.loss, 0.0, 1e-9);
}

TEST(BceWithLogits, TargetRangeValidated) {
  EXPECT_THROW(bce_with_logits({0.0}, {1.5}), vkey::Error);
}

TEST(BceWithLogits, GradientMatchesNumeric) {
  const Vec logits{0.7, -1.2};
  const Vec target{1.0, 0.0};
  const auto r = bce_with_logits(logits, target);
  const double eps = 1e-6;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    Vec up = logits, down = logits;
    up[i] += eps;
    down[i] -= eps;
    const double numeric = (bce_with_logits(up, target).loss -
                            bce_with_logits(down, target).loss) /
                           (2.0 * eps);
    EXPECT_NEAR(r.grad[i], numeric, 1e-6);
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
  // One mini-batch of all four points per step.
  std::vector<Dense::Cache> c1(data.size()), c2(data.size());
  std::vector<Vec> grads(data.size());
  for (int epoch = 0; epoch < 400; ++epoch) {
    for (std::size_t m = 0; m < data.size(); ++m) {
      const auto& [x, y] = data[m];
      const Vec logits = l2.forward(l1.forward(x, c1[m]), c2[m]);
      grads[m] = bce_with_logits(logits, {y}).grad;
    }
    l1.backward_batch(c1, l2.backward_batch(c2, grads, true), false);
    opt.step(data.size());
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
