#include "nn/loss.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace vkey::nn {

double mse_loss(std::span<const double> pred, std::span<const double> target,
                std::span<double> grad) {
  VKEY_REQUIRE(pred.size() == target.size() && !pred.empty() &&
                   grad.size() == pred.size(),
               "mse_loss size mismatch");
  double loss = 0.0;
  const double n = static_cast<double>(pred.size());
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double d = pred[i] - target[i];
    loss += d * d;
    grad[i] = 2.0 * d / n;
  }
  return loss / n;
}

double bce_with_logits(std::span<const double> logits,
                       std::span<const double> target, std::span<double> grad) {
  VKEY_REQUIRE(logits.size() == target.size() && !logits.empty() &&
                   grad.size() == logits.size(),
               "bce_with_logits size mismatch");
  double loss = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    VKEY_REQUIRE(target[i] >= 0.0 && target[i] <= 1.0,
                 "BCE target must be in [0,1]");
    const double x = logits[i];
    const double z = target[i];
    // Stable form: max(x,0) - x*z + log(1 + exp(-|x|)). exp(-|x|) is also
    // the exponential sigmoid(x) takes on either side of zero, so the
    // gradient reuses it, bit for bit.
    const double e = std::exp(-std::fabs(x));
    loss += std::max(x, 0.0) - x * z + std::log1p(e);
    grad[i] = (x >= 0.0 ? 1.0 / (1.0 + e) : e / (1.0 + e)) - z;
  }
  return loss;
}

}  // namespace vkey::nn
