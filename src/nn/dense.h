// Fully connected layer: y = W x + b.
//
// Training runs over caller-owned batch rows: forward(x, y) per member
// (infer_into()'s float body), then one backward_batch() over the members'
// rows, which adds their weight and bias gradients into the parameters in
// member order (through the gemm core's accumulate_outer /
// matvec_transposed, bit-identical to the naive per-sample loops) and
// writes their input-gradient rows, then one optimizer step.
//
// Inference is infer_into(x, y): the affine map written straight into the
// caller's storage, then the activation in place, so a caller that keeps
// its own buffers (the reconciler's greedy decode ping-pongs two) allocates
// nothing per layer. infer() is infer_into() over a fresh vector.
#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "nn/gemm.h"
#include "nn/param.h"

namespace vkey::nn {

/// Output activation. Library layers are linear (prediction heads, the
/// reconciler's encoders and decoder output) or tanh (its decoder's hidden
/// layers).
enum class Activation { kNone, kTanh };

class Dense {
 public:
  /// Xavier-uniform initialization with the given RNG.
  Dense(std::size_t in, std::size_t out, vkey::Rng& rng,
        Activation act = Activation::kNone);

  /// Training forward of one member (float path, thread-safe): `x` holds
  /// in_size() values, `y` receives out_size(); lengths checked first.
  void forward(std::span<const double> x, std::span<double> y) const;

  /// Inference forward into a fresh vector (usable concurrently).
  Vec infer(const Vec& x) const;

  /// infer() into caller storage: `x` holds in_size() values, `y` receives
  /// out_size(); the two must not overlap. Allocates nothing on the float
  /// path (the int8 path quantizes `x` into a scratch vector). Bit-equal to
  /// infer().
  void infer_into(const double* x, double* y) const;

  /// Route infer()/infer_into() through the int8 path (training and
  /// forward() stay float). NOT bit-exact with the float path; see gemm.h.
  void set_quantized(bool quantized) { quantized_ = quantized; }
  bool quantized() const { return quantized_; }

  /// The original naive affine + activation, retained as the bit-exactness
  /// oracle for the packed kernels (tests only; no metrics).
  Vec infer_reference(const Vec& x) const;

  /// Backward over `n` members' rows: `x` their inputs, `y` their outputs
  /// and `grad` dL/dy, into which the activation derivative is folded in
  /// place. Adds the weight and bias gradients in member order and writes
  /// each member's dL/dx into row m of `dx`, or nothing when `dx` is empty
  /// (no trainable layer upstream). Lengths are checked first.
  void backward_batch(std::size_t n, std::span<const double> x,
                      std::span<const double> y, std::span<double> grad,
                      std::span<double> dx);

  std::size_t in_size() const { return in_; }
  std::size_t out_size() const { return out_; }

  std::vector<Parameter*> parameters() { return {&w_, &b_}; }
  const Parameter& weights() const { return w_; }
  const Parameter& bias() const { return b_; }

 private:
  /// y = act(W x + b), counted in the nn.dense.* metrics.
  void compute(const double* x, double* y, bool quantized) const;
  /// The activation, applied to out_size() values in place.
  void activate(double* y) const;
  const PackedMatrix& packed() const;
  const QuantizedMatrix& quant() const;

  std::size_t in_ = 0;
  std::size_t out_ = 0;
  Activation act_;
  bool quantized_ = false;
  Parameter w_;  // out x in, row-major
  Parameter b_;  // out
  // Lazily repacked weight layouts, keyed on w_.revision (see gemm.h).
  mutable PackedMatrix packed_w_;
  mutable QuantizedMatrix quant_w_;
  mutable PackGuard pack_guard_;
  mutable PackGuard quant_guard_;
};

}  // namespace vkey::nn
