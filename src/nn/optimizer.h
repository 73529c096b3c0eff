// The Adam optimizer (Kingma & Ba), the one both trainers use.
//
// Layers accumulate gradients across a mini-batch; step() consumes them
// (dividing by the batch size) and zeroes the accumulators. The element
// update is built with the gemm core's flags (vectorized, never contracted;
// IEEE division and square root round correctly at every vector width, so
// the update is bit-identical to its scalar form).
#pragma once

#include <cstddef>
#include <vector>

#include "nn/param.h"

namespace vkey::nn {

class Adam {
 public:
  explicit Adam(std::vector<Parameter*> params, double lr = 1e-3,
                double beta1 = 0.9, double beta2 = 0.999,
                double epsilon = 1e-8);

  void step(std::size_t batch_size = 1);

 private:
  std::vector<Parameter*> params_;
  double lr_ = 0.0;
  double beta1_ = 0.0;
  double beta2_ = 0.0;
  double epsilon_ = 0.0;
  std::size_t t_ = 0;
};

}  // namespace vkey::nn
