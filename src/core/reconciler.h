// Autoencoder-based reconciliation (paper Sec. IV-C, Fig. 7).
//
// Both keys pass through the position-preserving Bloom map. Two MLP encoders
// compress the mapped keys into M-dimensional code vectors; Bob publishes
// y_Bob (plus a MAC). Alice computes h = y_Bob - y_Alice — a condensed
// expression of the mismatch — and feeds it to a decoder MLP that outputs
// the estimated mismatch vector delta_x. Alice corrects K'_Alice ^ delta_x,
// inverts the Bloom map, and both sides privacy-amplify.
//
// Training is offline and synthetic: pairs (K_B, K_A = K_B ^ e) with sparse
// random error patterns e at the channel's bit-disagreement rates; the loss
// is || delta_x - e ||^2 in the mapped domain (Eq. 6, realized as BCE on
// logits which shares the same minimizer and trains more stably).
//
// Cost accounting: decode_flops() counts the multiply-accumulates of one
// reconciliation, the quantity Fig. 11 compares against the CS/OMP decoder.
//
// Allocation: decode_mismatch() runs all its greedy passes in one
// call-local workspace (two ping-pong activation buffers fed through
// Dense::infer_into, plus the shortlist's order vector), so it allocates a
// fixed number of blocks per call however many passes it needs.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"
#include "core/bloom.h"
#include "nn/dense.h"

namespace vkey::core {

struct ReconcilerConfig {
  std::size_t key_bits = 64;     ///< N (one BiLSTM fragment)
  std::size_t code_dim = 32;     ///< M: encoder output ("32 units")
  std::size_t decoder_units = 64;///< hidden width of the 3 decoder layers
  std::size_t decoder_layers = 3;
  double learning_rate = 2e-3;
  std::size_t batch_size = 32;  ///< >= 1
  /// Bit-disagreement rates sampled during training (uniform over range).
  double train_ber_lo = 0.0;
  double train_ber_hi = 0.20;
  /// Share one encoder between the two parties (f1 == f2). With untied
  /// linear encoders the code difference h = f1(K'_B) - f2(K'_A) contains a
  /// nuisance term (W1 - W2) K'_A that the decoder cannot observe; tying
  /// removes it so h depends only on the mismatch pattern. The paper draws
  /// two encoder MLPs; tying is the weight-shared special case.
  bool tie_encoders = true;
  /// Keep the encoder frozen at its random initialization. A random
  /// projection is a near-optimal sensing matrix (the same reason CS uses
  /// one), and joint training tends to trade RIP quality for easier
  /// marginal prediction. Mirrors the random-sensing + learned-decoder
  /// design of the CS-autoencoder the paper builds on [24].
  bool freeze_encoder = true;
  /// Greedy decoding budget: the decoder is applied iteratively — each pass
  /// flips the single most confident mismatch in Alice's working key and
  /// re-encodes (Alice-side only, no extra communication). One-shot MLP
  /// support recovery from an M-dimensional code is unreliable; the greedy
  /// loop only ever needs the *argmax* to be a true mismatch, which is a far
  /// easier decision (the same reason OMP's first iteration succeeds where
  /// full recovery fails).
  std::size_t max_decode_iterations = 40;
  std::uint64_t seed = 11;
  std::uint64_t session_seed = 0x5e551011;  ///< Bloom parameters
  /// Worker lanes for training (synthetic-pair generation and each
  /// mini-batch's member forward passes). 0 = process default. Training is
  /// bit-reproducible for every value: each synthetic pair draws from its
  /// own hash_combine64(seed, index)-derived stream, members' forward
  /// passes are independent, and the backward runs on the calling lane,
  /// adding every member's gradients in member order (see DESIGN.md
  /// "Parallel execution & determinism contract").
  std::size_t threads = 0;
};

class AutoencoderReconciler {
 public:
  explicit AutoencoderReconciler(const ReconcilerConfig& config);

  const ReconcilerConfig& config() const { return cfg_; }

  /// Train on `num_samples` synthetic key pairs for `epochs` epochs (Adam
  /// over batch_size mini-batches: forward every member, then
  /// Dense::backward_batch layer by layer). Returns the final mean
  /// training loss.
  double train(std::size_t num_samples, std::size_t epochs);

  /// Bob's side: Bloom-map the key and encode; the returned vector is the
  /// public syndrome y_Bob.
  std::vector<double> encode_bob(const BitVec& key_bob) const;

  struct DecodeResult {
    BitVec mismatch;         ///< estimated flips, original key space
    std::size_t iterations = 0;  ///< greedy passes used
  };

  /// Alice's side: recover the estimated mismatch (in original key space).
  /// Allocates the same number of blocks for any number of passes.
  DecodeResult decode_mismatch(const BitVec& key_alice,
                               std::span<const double> y_bob) const;

  /// Alice's side, full correction: returns K_Alice ^ mismatch, which equals
  /// K_Bob whenever the decoder recovered every flip.
  BitVec reconcile(const BitVec& key_alice,
                   std::span<const double> y_bob) const;

  /// Single decoder pass (the paper's original inference: one forward pass
  /// of g, logits thresholded at 0.5). Used by the security analysis to
  /// reproduce Fig. 15's eavesdropping attack exactly; the iterative
  /// reconcile() is strictly stronger for the legitimate party.
  BitVec reconcile_one_shot(const BitVec& key_alice,
                            std::span<const double> y_bob) const;

  /// Multiply-accumulate count of one decoder pass (encoder + decoder g);
  /// total reconciliation cost is this times DecodeResult::iterations —
  /// the Fig. 11 computation-cost metric.
  std::size_t decode_flops() const;

  /// Multiply-accumulate count of Bob's side (encoder f1 only).
  std::size_t encode_flops() const;

  std::vector<nn::Parameter*> parameters();

 private:
  ReconcilerConfig cfg_;
  vkey::Rng rng_;
  PositionPreservingBloom bloom_;
  nn::Dense f1_;                    ///< Bob's encoder
  nn::Dense f2_;                    ///< Alice's encoder
  std::vector<nn::Dense> decoder_;  ///< hidden layers + output (logits)
};

}  // namespace vkey::core
