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
// Fixed settings (kCodeDim below; the rest are constants in
// reconciler.cpp, not options):
//  * M = 32, the paper's "32 units" encoder output, which is also the
//    syndrome width every session checks;
//  * three tanh decoder layers, as the paper draws g;
//  * Adam at learning rate 2e-3 over mini-batches of 32;
//  * training bit-disagreement rates drawn uniformly from [0, 0.20], which
//    covers the channel's pre-reconciliation rates;
//  * at most 40 greedy decode passes (see decode_mismatch);
//  * Bloom parameters from the public seed 0x5e551011.
//
// The protocol carries the syndrome as bytes: syndrome() is Bob's y_Bob as
// kCodeDim little-endian IEEE-754 doubles, and correct() is Alice's
// reconcile() against those bytes, refusing any other length. Sessions and
// attacks use only these two; the bytes are this class's to define.
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
#include <optional>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"
#include "core/bloom.h"
#include "nn/dense.h"

namespace vkey::core {

/// M: the encoder output width ("32 units"), so the width of the public
/// syndrome y_Bob.
inline constexpr std::size_t kCodeDim = 32;

struct ReconcilerConfig {
  std::size_t key_bits = 64;     ///< N (one BiLSTM fragment)
  std::size_t decoder_units = 64;///< hidden width of the 3 decoder layers
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
  std::uint64_t seed = 11;
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

  /// Train on `num_samples` synthetic key pairs, Bloom-mapped once, for
  /// `epochs` epochs (Adam over 32-pair mini-batches of rows sized once per
  /// call: forward every member, then Dense::backward_batch layer by
  /// layer). Returns the final mean training loss.
  double train(std::size_t num_samples, std::size_t epochs);

  /// Bob's side: Bloom-map the key and encode; the returned vector is the
  /// public syndrome y_Bob.
  std::vector<double> encode_bob(const BitVec& key_bob) const;

  struct DecodeResult {
    BitVec mismatch;         ///< estimated flips, original key space
    std::size_t iterations = 0;  ///< greedy passes used
  };

  /// Alice's side: recover the estimated mismatch (in original key space).
  /// The decoder runs greedily, at most 40 passes: each pass flips the
  /// single most confident mismatch in Alice's working key and re-encodes
  /// (Alice-side only, no extra communication). One-shot MLP support
  /// recovery from an M-dimensional code is unreliable; the greedy loop
  /// only ever needs the *argmax* to be a true mismatch, which is a far
  /// easier decision (the same reason OMP's first iteration succeeds where
  /// full recovery fails). Allocates the same number of blocks for any
  /// number of passes.
  DecodeResult decode_mismatch(const BitVec& key_alice,
                               std::span<const double> y_bob) const;

  /// Alice's side, full correction: returns K_Alice ^ mismatch, which equals
  /// K_Bob whenever the decoder recovered every flip.
  BitVec reconcile(const BitVec& key_alice,
                   std::span<const double> y_bob) const;

  /// encode_bob() as the syndrome frame's payload: each of y_Bob's kCodeDim
  /// doubles as 8 little-endian IEEE-754 bytes.
  std::vector<std::uint8_t> syndrome(const BitVec& key_bob) const;

  /// reconcile() against syndrome() bytes; nullopt unless `syndrome` holds
  /// exactly kCodeDim doubles.
  std::optional<BitVec> correct(const BitVec& key_alice,
                                std::span<const std::uint8_t> syndrome) const;

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
