#include "nn/dense.h"

#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "common/error.h"
#include "nn/loss.h"

namespace vkey::nn {
namespace {

/// backward_batch() over one member: its forward(x, cache) pass and output
/// gradient. Returns dL/dx.
Vec backward_one(Dense& d, const Dense::Cache& cache, const Vec& grad_out) {
  return d.backward_batch(std::span(&cache, 1), std::span(&grad_out, 1),
                          true)[0];
}

TEST(Dense, OutputShape) {
  vkey::Rng rng(1);
  Dense d(3, 5, rng);
  const Vec y = d.infer({1.0, 2.0, 3.0});
  EXPECT_EQ(y.size(), 5u);
}

TEST(Dense, InputSizeChecked) {
  vkey::Rng rng(1);
  Dense d(3, 5, rng);
  EXPECT_THROW(d.infer({1.0, 2.0}), vkey::Error);
}

TEST(Dense, ForwardMatchesInfer) {
  vkey::Rng rng(2);
  Dense d(4, 4, rng, Activation::kTanh);
  const Vec x{0.5, -0.2, 0.1, 0.9};
  Dense::Cache cache;
  EXPECT_EQ(d.forward(x, cache), d.infer(x));
  EXPECT_EQ(cache.x, x);
  EXPECT_EQ(cache.y, d.infer(x));
}

TEST(Dense, LinearLayerIsAffine) {
  vkey::Rng rng(3);
  Dense d(2, 2, rng);
  const Vec x1{1.0, 0.0}, x2{0.0, 1.0}, zero{0.0, 0.0};
  const Vec b = d.infer(zero);
  const Vec y1 = d.infer(x1);
  const Vec y2 = d.infer(x2);
  // f(x1 + x2) = f(x1) + f(x2) - b for affine maps.
  const Vec sum = d.infer({1.0, 1.0});
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(sum[i], y1[i] + y2[i] - b[i], 1e-12);
  }
}

TEST(Dense, BackwardBeforeForwardThrows) {
  vkey::Rng rng(6);
  Dense d(2, 2, rng);
  EXPECT_THROW(backward_one(d, Dense::Cache{}, {1.0, 1.0}), vkey::Error);
}

// Numerical gradient check: perturb each parameter and compare the measured
// loss slope to the analytic gradient.
template <Activation act>
void check_gradients() {
  vkey::Rng rng(7);
  Dense d(3, 2, rng, act);
  const Vec x{0.3, -0.7, 0.5};
  const Vec target{0.2, 0.8};

  auto loss_of = [&] {
    return mse_loss(d.infer(x), target).loss;
  };

  // Analytic gradients.
  Dense::Cache cache;
  const auto l = mse_loss(d.forward(x, cache), target);
  backward_one(d, cache, l.grad);

  const double eps = 1e-6;
  for (Parameter* p : d.parameters()) {
    for (std::size_t i = 0; i < p->size(); ++i) {
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
      const double numeric = (up - down) / (2.0 * eps);
      EXPECT_NEAR(p->grad[i], numeric, 1e-5)
          << "param element " << i;
    }
  }
}

TEST(Dense, GradientCheckLinear) { check_gradients<Activation::kNone>(); }
TEST(Dense, GradientCheckTanh) { check_gradients<Activation::kTanh>(); }

TEST(Dense, InputGradientCheck) {
  vkey::Rng rng(8);
  Dense d(3, 2, rng, Activation::kTanh);
  Vec x{0.3, -0.7, 0.5};
  const Vec target{0.2, 0.8};
  Dense::Cache cache;
  const auto l = mse_loss(d.forward(x, cache), target);
  const Vec dx = backward_one(d, cache, l.grad);

  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double saved = x[i];
    x[i] = saved + eps;
    const double up = mse_loss(d.infer(x), target).loss;
    x[i] = saved - eps;
    const double down = mse_loss(d.infer(x), target).loss;
    x[i] = saved;
    EXPECT_NEAR(dx[i], (up - down) / (2.0 * eps), 1e-5);
  }
}

TEST(Dense, GradAccumulatesAcrossSamples) {
  vkey::Rng rng(9);
  Dense d(1, 1, rng);
  const Vec x{1.0};
  Dense::Cache cache;
  d.forward(x, cache);
  backward_one(d, cache, {1.0});
  const double g1 = d.parameters()[0]->grad[0];
  d.forward(x, cache);
  backward_one(d, cache, {1.0});
  EXPECT_NEAR(d.parameters()[0]->grad[0], 2.0 * g1, 1e-12);
}

}  // namespace
}  // namespace vkey::nn
