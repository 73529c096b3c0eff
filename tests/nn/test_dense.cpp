#include "nn/dense.h"

#include <gtest/gtest.h>

#include <cmath>
#include <span>

#include "common/error.h"
#include "nn/loss.h"

namespace vkey::nn {
namespace {

/// One member's training pass: forward(x) into its output row, then
/// backward_batch() over that one row with output gradient `grad_out`.
/// Returns dL/dx.
Vec backward_one(Dense& d, const Vec& x, Vec grad_out) {
  Vec y(d.out_size()), dx(d.in_size());
  d.forward(x, y);
  d.backward_batch(1, x, y, grad_out, dx);
  return dx;
}

/// dL/dy of the MSE against `target` at x's output.
Vec mse_grad(const Dense& d, const Vec& x, const Vec& target) {
  Vec y(d.out_size()), grad(d.out_size());
  d.forward(x, y);
  mse_loss(y, target, grad);
  return grad;
}

/// The MSE against `target` at x's output, through infer().
double mse_of(const Dense& d, const Vec& x, const Vec& target) {
  Vec unused(target.size());
  return mse_loss(d.infer(x), target, unused);
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
  Vec y(4);
  d.forward(x, y);
  EXPECT_EQ(y, d.infer(x));
  // Rows of any other length are rejected.
  Vec short_y(3), long_y(5);
  EXPECT_THROW(d.forward(x, short_y), vkey::Error);
  EXPECT_THROW(d.forward(x, long_y), vkey::Error);
  EXPECT_THROW(d.forward(Vec{0.5, -0.2, 0.1}, y), vkey::Error);
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
  // A member with no forward rows, and rows of the wrong length for the
  // batch, are rejected before any gradient moves.
  vkey::Rng rng(6);
  Dense d(2, 2, rng);
  const Vec x{1.0, 2.0}, y{0.5, 0.5};
  Vec grad{1.0, 1.0}, dx(2);
  EXPECT_THROW(d.backward_batch(1, {}, {}, grad, dx), vkey::Error);
  EXPECT_THROW(d.backward_batch(2, x, y, grad, dx), vkey::Error);
  EXPECT_THROW(d.backward_batch(1, x, y, std::span(grad).first(1), dx),
               vkey::Error);
  EXPECT_THROW(d.backward_batch(1, x, y, grad, std::span(dx).first(1)),
               vkey::Error);
  for (const Parameter* p : d.parameters()) {
    for (double g : p->grad) EXPECT_EQ(g, 0.0);
  }
  EXPECT_EQ(grad, (Vec{1.0, 1.0}));
}

// Numerical gradient check: perturb each parameter and compare the measured
// loss slope to the analytic gradient.
template <Activation act>
void check_gradients() {
  vkey::Rng rng(7);
  Dense d(3, 2, rng, act);
  const Vec x{0.3, -0.7, 0.5};
  const Vec target{0.2, 0.8};

  auto loss_of = [&] { return mse_of(d, x, target); };

  // Analytic gradients.
  backward_one(d, x, mse_grad(d, x, target));

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
  const Vec dx = backward_one(d, x, mse_grad(d, x, target));

  const double eps = 1e-6;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double saved = x[i];
    x[i] = saved + eps;
    const double up = mse_of(d, x, target);
    x[i] = saved - eps;
    const double down = mse_of(d, x, target);
    x[i] = saved;
    EXPECT_NEAR(dx[i], (up - down) / (2.0 * eps), 1e-5);
  }
}

TEST(Dense, GradAccumulatesAcrossSamples) {
  vkey::Rng rng(9);
  Dense d(1, 1, rng);
  const Vec x{1.0};
  backward_one(d, x, {1.0});
  const double g1 = d.parameters()[0]->grad[0];
  backward_one(d, x, {1.0});
  EXPECT_NEAR(d.parameters()[0]->grad[0], 2.0 * g1, 1e-12);
}

}  // namespace
}  // namespace vkey::nn
