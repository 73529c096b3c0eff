// The BiLSTM-based joint prediction + quantization model (paper Sec. IV-B).
//
// Architecture (Fig. 6): input arRSSI sequence -> one BiLSTM layer ->
// flatten -> fully connected prediction head (seq_len units, the predicted
// arRSSI sequence y_hat) -> fully connected quantization head (key_bits
// units) -> sigmoid -> predicted bit vector z_hat.
//
// Joint loss (Eq. 3): theta * MSE(y, y_hat) + (1 - theta) * BCE(z, z_hat)
// with theta = 0.9. The BCE gradient flows back through the quantization
// head into the prediction head and the BiLSTM, so the two tasks are
// optimized together.
//
// Fixed training settings (constants in predictor.cpp, not options):
//  * theta = 0.9, the paper's joint-loss weight (Eq. 3);
//  * Adam at learning rate 2e-3 over mini-batches of 16;
//  * a phase input feature of period 4. Mirrored reciprocal-zone pairing
//    (see dataset.h) gives stream index j a lag of (2*(j mod k)+1)
//    windows; feeding the phase j mod k lets the BiLSTM learn per-lag
//    compensation.
//
// Inference has one body, infer_window(): the BiLSTM over flat buffers
// (BiLstm::infer_into) in a caller's workspace, then both heads straight
// into the Output, whose rows hold the default model's outputs inline.
// infer() runs it in a call-local workspace, so it allocates one block: the
// workspace. infer_batch() runs it window after window in one shared
// workspace, allocating that and the Output vector. Training runs flat rows
// too, one per batch member and sized once per train(): the BiLSTM writes
// straight into the prediction head's input row, and BPTT reads dL/dh from
// that row's gradient.
//
// Only Alice (or a power-rich RSU) runs this model; Bob uses the
// conventional multi-bit quantizer on his own measurements.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "common/small_buffer.h"
#include "core/dataset.h"
#include "nn/dense.h"
#include "nn/lstm.h"

namespace vkey::core {

struct PredictorConfig {
  std::size_t seq_len = 64;   ///< input sequence length
  std::size_t hidden = 32;    ///< BiLSTM hidden units (paper: 128; see
                              ///< DESIGN.md "NN sizing" for the default)
  std::size_t key_bits = 64;  ///< quantization head width (paper value)
  std::uint64_t seed = 7;
  /// Route inference through the int8 fused kernels with polynomial gate
  /// activations (gemm.h). Training always stays float; the float infer
  /// path stays bit-exact vs the naive reference. The ablation bench
  /// measures the key-agreement-rate delta of this flag.
  bool quantized = false;
};

struct TrainReport {
  std::vector<double> epoch_loss;   ///< mean joint loss per epoch
  double final_loss = 0.0;
};

class PredictorQuantizer {
 public:
  explicit PredictorQuantizer(const PredictorConfig& config);

  const PredictorConfig& config() const { return cfg_; }

  /// Train for `epochs` (>= 1) epochs over the samples: Adam over
  /// 16-sample mini-batches of a per-epoch shuffle. Each batch forwards
  /// every member, then runs backward layer by layer (Dense::backward_batch,
  /// then each member's BiLSTM BPTT), adding every member's gradients in
  /// member order — the same sums, bit for bit, as one sample at a time.
  TrainReport train(std::span<const TrainingSample> samples,
                    std::size_t epochs);

  /// One output row: the default model's 64 values live inline, a larger
  /// model's take one heap block.
  using OutputRow = SmallBuffer<double, 64>;

  struct Output {
    OutputRow predicted_seq;  ///< y_hat, length seq_len
    OutputRow probabilities;  ///< sigmoid outputs, length key_bits
    BitVec bits;              ///< thresholded at 0.5
  };

  /// Inference on one normalized arRSSI window.
  Output infer(const nn::Vec& alice_seq) const;

  /// infer() on each window, in order, over one shared workspace: a batch
  /// of the default model allocates two blocks, the Output vector and the
  /// workspace.
  std::vector<Output> infer_batch(std::span<const nn::Vec> windows) const;

  /// Toggle the int8 inference path at runtime (see PredictorConfig).
  void set_quantized(bool quantized);
  bool quantized() const { return bilstm_.quantized(); }

  /// All trainable parameters (for snapshot/restore and fine-tuning).
  std::vector<nn::Parameter*> parameters();

  /// Joint loss on a sample set, checked as train() checks it, without
  /// updating weights.
  double evaluate_loss(std::span<const TrainingSample> samples) const;

 private:
  /// Doubles of one window's workspace: the BiLSTM's inputs, its flattened
  /// outputs (the prediction head's input) and its cell scratch.
  std::size_t workspace_size() const;
  /// The inference body: one seq_len window through the BiLSTM and both
  /// heads into `out`, over workspace_size() doubles at `ws`.
  void infer_window(const nn::Vec& alice_seq, double* ws, Output& out) const;

  PredictorConfig cfg_;
  vkey::Rng rng_;
  nn::BiLstm bilstm_;
  nn::Dense pred_head_;   ///< flatten(seq_len * 2H) -> seq_len
  nn::Dense quant_head_;  ///< seq_len -> key_bits (logits)
};

}  // namespace vkey::core
