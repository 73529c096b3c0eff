#include "nn/optimizer.h"

#include <cmath>

#include "common/error.h"

namespace vkey::nn {

Adam::Adam(std::vector<Parameter*> params, double lr, double beta1,
           double beta2, double epsilon)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      epsilon_(epsilon) {
  VKEY_REQUIRE(lr > 0.0, "learning rate must be positive");
  VKEY_REQUIRE(beta1 >= 0.0 && beta1 < 1.0, "beta1 must be in [0,1)");
  VKEY_REQUIRE(beta2 >= 0.0 && beta2 < 1.0, "beta2 must be in [0,1)");
}

void Adam::step(std::size_t batch_size) {
  VKEY_REQUIRE(batch_size >= 1, "batch size must be >= 1");
  const double scale = 1.0 / static_cast<double>(batch_size);
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (Parameter* p : params_) {
    if (p->adam_m.size() != p->size()) {
      p->adam_m.assign(p->size(), 0.0);
      p->adam_v.assign(p->size(), 0.0);
    }
    for (std::size_t i = 0; i < p->size(); ++i) {
      const double g = p->grad[i] * scale;
      p->adam_m[i] = beta1_ * p->adam_m[i] + (1.0 - beta1_) * g;
      p->adam_v[i] = beta2_ * p->adam_v[i] + (1.0 - beta2_) * g * g;
      const double mhat = p->adam_m[i] / bc1;
      const double vhat = p->adam_v[i] / bc2;
      p->value[i] -= lr_ * mhat / (std::sqrt(vhat) + epsilon_);
    }
    p->bump();
    p->zero_grad();
  }
}

}  // namespace vkey::nn
