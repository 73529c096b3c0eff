// Loss functions for the joint prediction/quantization objective.
//
// The paper trains with loss = theta * MSE(y, y_hat) + (1-theta) * BCE(z,
// z_hat) (Eq. 3-5). BCE is computed on logits for numerical stability: the
// sigmoid of the quantization head and the BCE collapse so the gradient w.r.t.
// the logit is simply (sigmoid(logit) - target).
#pragma once

#include <span>

namespace vkey::nn {

/// Mean squared error of `pred` against `target`; writes dL/dpred into
/// `grad` (pred.size() values) and returns the loss.
double mse_loss(std::span<const double> pred, std::span<const double> target,
                std::span<double> grad);

/// Binary cross entropy on logits (sigmoid applied internally); targets
/// must be in [0,1]. Writes dL/dlogit = sigmoid(logit) - target into `grad`
/// (logits.size() values) and returns the loss.
double bce_with_logits(std::span<const double> logits,
                       std::span<const double> target, std::span<double> grad);

}  // namespace vkey::nn
