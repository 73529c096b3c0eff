// LSTM and bidirectional LSTM with full backpropagation through time.
//
// The paper's prediction module is a single BiLSTM layer ("32 cells, 128
// hidden units") followed by fully connected heads. Layer sizes here are
// constructor parameters: the architecture is the paper's; the default
// hidden width used by tests/benches is smaller because this repository
// trains on a single CPU core (see DESIGN.md "NN sizing").
//
// The cell's 4H-gate affine runs on the fused packed matrix [Wx | Wh]
// (one blocked pass per step over a [x_t ; h_prev] scratch row — see
// gemm.h and DESIGN.md "NN kernel core"); the float path is bit-identical
// to the retained naive reference (infer_reference), and an optional int8
// path trades exactness for speed behind set_quantized().
//
// Inference has one body, infer_into(), over flat row-major buffers: the
// inputs, the hidden states and a caller-owned workspace of
// workspace_size() doubles, so a caller that keeps its buffers allocates
// nothing per step or per call on the float path. infer(Seq) is a thin
// wrapper over it for callers and tests that hold sequences.
//
// Training follows Dense's mini-batch shape: forward(x, cache) per member
// into a caller-owned Cache, then backward(cache, grad_out) per member in
// member order.
#pragma once

#include <vector>

#include "common/rng.h"
#include "nn/gemm.h"
#include "nn/param.h"

namespace vkey::nn {

/// Sequence of feature vectors, outer index = time step.
using Seq = std::vector<Vec>;

/// Unidirectional LSTM layer (optionally processing the sequence reversed).
class Lstm {
 public:
  Lstm(std::size_t input, std::size_t hidden, vkey::Rng& rng,
       bool reverse = false);

  /// One sequence's forward activations for BPTT, owned by the caller so a
  /// mini-batch's members can each keep theirs until backward. Rows are in
  /// processing order; the buffers keep their capacity across calls.
  struct Cache {
    std::size_t steps = 0;
    Vec xh;      ///< steps x (input + hidden): [x_t ; h_prev] per step
    Vec gates;   ///< steps x 4H: post-activation i | f | g | o
    Vec c;       ///< (steps + 1) x hidden: cell states, row 0 the zeros
    Vec tanh_c;  ///< steps x hidden
  };

  /// Forward writing the BPTT intermediates into `cache`; returns hidden
  /// states in *time* order regardless of processing direction.
  Seq forward(const Seq& x, Cache& cache) const;

  /// Inference-only forward (no caching): infer_into() over copies.
  Seq infer(const Seq& x) const;

  /// Inference over flat buffers: `x` holds `steps` >= 1 rows of
  /// input_size() values; step t's hidden state is written to
  /// out[t * out_stride, t * out_stride + hidden). `ws` is
  /// workspace_size() doubles of scratch. Allocates nothing on the float
  /// path (the int8 path quantizes into one scratch vector per call).
  void infer_into(const double* x, std::size_t steps, double* out,
                  std::size_t out_stride, double* ws) const;

  /// Scratch doubles infer_into() needs: [x_t ; h_prev], the 4H gates, and
  /// the running h, c and tanh(c).
  std::size_t workspace_size() const { return input_ + 8 * hidden_; }

  /// The original per-step naive loops, retained as the bit-exactness
  /// oracle for the fused packed cell (tests only; no metrics, no timer).
  Seq infer_reference(const Seq& x) const;

  /// Route infer paths through the int8 fused cell with polynomial gate
  /// activations (forward()/backward() stay float). NOT bit-exact.
  void set_quantized(bool quantized) { quantized_ = quantized; }
  bool quantized() const { return quantized_; }

  /// BPTT for a forward(x, cache) pass. `grad_out` is dL/dh in time order;
  /// returns dL/dx in time order. Only the dh/dc recurrence runs per step;
  /// the Wx, Wh and bias gradients are then added with one
  /// accumulate_outer each, steps in the order BPTT visits them (last
  /// processed first), and every step's dx comes from one
  /// matvec_transposed — bit-identical to per-step accumulation.
  Seq backward(const Cache& cache, const Seq& grad_out);

  std::size_t input_size() const { return input_; }
  std::size_t hidden_size() const { return hidden_; }

  std::vector<Parameter*> parameters() { return {&wx_, &wh_, &b_}; }

 private:
  /// One fused cell step from xh = [x_t ; h_prev]: gates into z (4H,
  /// in place), c = f * c_prev + i * g (c may alias c_prev), tc = tanh(c),
  /// h = o * tc.
  void step_fused(const double* xh, double* z, const double* c_prev,
                  double* c, double* tc, double* h) const;
  /// The int8 step: xh quantized into xq, then the same dataflow with c
  /// updated in place.
  void step_quantized(const double* xh, std::int8_t* xq, double* z,
                      double* c, double* tc, double* h) const;
  const PackedMatrix& packed() const;
  const QuantizedMatrix& quant() const;

  std::size_t input_ = 0;
  std::size_t hidden_ = 0;
  bool reverse_ = false;
  bool quantized_ = false;
  // Gate order within the stacked matrices: input, forget, cell, output.
  Parameter wx_;  // 4H x input
  Parameter wh_;  // 4H x hidden
  Parameter b_;   // 4H  (forget-gate bias initialized to 1)
  Vec dz_;        // backward's per-step gate gradients (steps x 4H)
  // Fused [Wx | Wh] packed layouts, keyed on the parameter revisions
  // (see gemm.h; the key is the revision sum, monotone under bump()).
  mutable PackedMatrix packed_w_;
  mutable QuantizedMatrix quant_w_;
  mutable PackGuard pack_guard_;
  mutable PackGuard quant_guard_;
};

/// Bidirectional LSTM: forward and backward passes concatenated per step,
/// output width = 2 * hidden.
class BiLstm {
 public:
  BiLstm(std::size_t input, std::size_t hidden, vkey::Rng& rng);

  /// Both directions' forward activations (see Lstm::Cache).
  struct Cache {
    Lstm::Cache fwd;
    Lstm::Cache bwd;
  };

  Seq forward(const Seq& x, Cache& cache) const;
  /// Inference-only forward: infer_into() over copies.
  Seq infer(const Seq& x) const;
  /// Flat inference, both directions through Lstm::infer_into(): row t of
  /// `out` (output_size() values) receives [forward h_t ; backward h_t].
  /// `ws` is workspace_size() doubles, shared by the two directions.
  void infer_into(const double* x, std::size_t steps, double* out,
                  double* ws) const;
  std::size_t workspace_size() const { return fwd_.workspace_size(); }
  /// Naive-reference BiLSTM inference (per-direction reference cells plus
  /// the original concat loop) — the bit-exactness oracle for infer().
  Seq infer_reference(const Seq& x) const;
  /// BPTT through both directions of a forward(x, cache) pass; returns the
  /// summed dL/dx.
  Seq backward(const Cache& cache, const Seq& grad_out);

  /// Propagates to both directions (infer paths only; see Lstm).
  void set_quantized(bool quantized);
  bool quantized() const { return fwd_.quantized(); }

  std::size_t output_size() const { return 2 * hidden_; }
  std::size_t hidden_size() const { return hidden_; }

  std::vector<Parameter*> parameters();

 private:
  std::size_t hidden_ = 0;
  Lstm fwd_;
  Lstm bwd_;
};

}  // namespace vkey::nn
