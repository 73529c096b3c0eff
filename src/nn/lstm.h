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
// Training (forward) and inference (infer_into) share one step loop over
// flat row-major buffers: `steps` input rows in, one hidden-state row per
// step out at a caller-given stride, so a BiLSTM's directions fill the
// halves of one [forward h_t ; backward h_t] row per step. forward keeps
// each step's activations in a caller-owned Cache; infer_into rolls them
// through a workspace and allocates nothing on the float path. Training
// follows Dense's mini-batch shape: forward per member, then backward per
// member in member order, forming the parameter gradients only (the BiLSTM
// is the model's first layer, so nothing reads an input gradient).
#pragma once

#include <span>
#include <vector>

#include "common/rng.h"
#include "nn/gemm.h"
#include "nn/param.h"

namespace vkey::nn {

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

  /// Training forward: `x` holds `steps` >= 1 rows of input_size() values;
  /// step t's hidden state goes to h[t * h_stride, + hidden), its BPTT
  /// intermediates into `cache`.
  void forward(std::span<const double> x, std::size_t steps,
               std::span<double> h, std::size_t h_stride, Cache& cache) const;

  /// forward() without a cache, over `ws` (workspace_size() doubles). The
  /// int8 path quantizes into one scratch vector per call.
  void infer_into(std::span<const double> x, std::size_t steps,
                  std::span<double> h, std::size_t h_stride,
                  std::span<double> ws) const;

  /// Scratch doubles infer_into() needs: [x_t ; h_prev], the 4H gates, and
  /// the running c and tanh(c).
  std::size_t workspace_size() const { return input_ + 7 * hidden_; }

  /// The original per-step naive loops over the same input rows, returning
  /// steps x hidden rows: the bit-exactness oracle for the fused packed
  /// cell (tests only; no metrics, no timer).
  Vec infer_reference(std::span<const double> x, std::size_t steps) const;

  /// Route infer paths through the int8 fused cell with polynomial gate
  /// activations (forward()/backward() stay float). NOT bit-exact.
  void set_quantized(bool quantized) { quantized_ = quantized; }
  bool quantized() const { return quantized_; }

  /// BPTT for a forward() pass, dL/dh of step t read from
  /// dh[t * dh_stride, + hidden). Only the dh/dc recurrence runs per step;
  /// the Wx, Wh and bias gradients are then added with one
  /// accumulate_outer each, steps in the order BPTT visits them (last
  /// processed first: the cached rows at a negative stride, the bias's
  /// ones column at stride 0) — bit-identical to per-step accumulation.
  void backward(const Cache& cache, std::span<const double> dh,
                std::size_t dh_stride);

  std::size_t input_size() const { return input_; }
  std::size_t hidden_size() const { return hidden_; }

  std::vector<Parameter*> parameters() { return {&wx_, &wh_, &b_}; }

 private:
  /// Validates a pass BEFORE the step/FLOP counters move: a rejected pass
  /// must not account for work that never ran.
  void check_rows(std::span<const double> x, std::size_t steps,
                  std::span<const double> h, std::size_t h_stride) const;
  /// The one step loop: step s's [x_t ; h_prev], gates, c and tanh(c) go
  /// to row s of xh, z, c (row s + 1; row 0 the zeros) and tc when `keep`
  /// is set, else every step reuses row 0 (infer_into's workspace).
  void run(const double* x, std::size_t steps, double* h,
           std::size_t h_stride, double* xh, double* z, double* c,
           double* tc, bool keep) const;
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
  // backward's scratch: the gate gradients (steps x 4H), then dh and dc.
  Vec dz_;
  // Fused [Wx | Wh] packed layouts, keyed on the parameter revisions
  // (see gemm.h; the key is the revision sum, monotone under bump()).
  mutable PackedMatrix packed_w_;
  mutable QuantizedMatrix quant_w_;
  mutable PackGuard pack_guard_;
  mutable PackGuard quant_guard_;
};

/// Bidirectional LSTM: row t of its output (output_size() values) is
/// [forward h_t ; backward h_t].
class BiLstm {
 public:
  BiLstm(std::size_t input, std::size_t hidden, vkey::Rng& rng);

  /// Both directions' forward activations (see Lstm::Cache).
  struct Cache {
    Lstm::Cache fwd;
    Lstm::Cache bwd;
  };

  /// Lstm::forward, both directions into `out` (steps x output_size()).
  void forward(std::span<const double> x, std::size_t steps,
               std::span<double> out, Cache& cache) const;
  /// Lstm::infer_into, both directions into `out`, sharing `ws`.
  void infer_into(std::span<const double> x, std::size_t steps,
                  std::span<double> out, std::span<double> ws) const;
  std::size_t workspace_size() const { return fwd_.workspace_size(); }
  /// Naive-reference BiLSTM inference (per-direction reference cells plus
  /// the original concat loop) — the bit-exactness oracle for infer_into().
  Vec infer_reference(std::span<const double> x, std::size_t steps) const;
  /// BPTT through both directions; `grad_out` is dL/dout of the cached
  /// forward pass, steps x output_size().
  void backward(const Cache& cache, std::span<const double> grad_out);

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
