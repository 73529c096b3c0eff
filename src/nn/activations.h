// Pointwise activation helpers for vkey::nn.
#pragma once

#include <cmath>


namespace vkey::nn {

inline double sigmoid(double x) {
  // Split form avoids overflow for large |x|.
  if (x >= 0.0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

inline double dsigmoid_from_y(double y) { return y * (1.0 - y); }

inline double dtanh_from_y(double y) { return 1.0 - y * y; }

}  // namespace vkey::nn
