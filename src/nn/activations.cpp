#include "nn/activations.h"

namespace vkey::nn {

Vec sigmoid_vec(const Vec& x) {
  Vec y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = sigmoid(x[i]);
  return y;
}

}  // namespace vkey::nn
