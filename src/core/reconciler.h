// Autoencoder-based reconciliation (paper Sec. IV-C, Fig. 7), in two halves.
//
// Both keys pass through the position-preserving Bloom map. MLP encoders
// compress the mapped keys into M-dimensional code vectors; Bob publishes
// y_Bob (plus a MAC). Alice computes h = y_Bob - y_Alice — a condensed
// expression of the mismatch. In the paper she feeds h to a decoder MLP
// that outputs the estimated mismatch vector delta_x. Alice corrects
// K'_Alice ^ delta_x, inverts the Bloom map, and both sides
// privacy-amplify.
//
// SyndromeCode is the half the protocol runs, all of it public: the Bloom
// map, Bob's encoder f1 (frozen at its random start) and decode_mismatch,
// which solves for delta_x against f1 itself: a bounded beam search that
// scores every single-bit flip of each of its working keys against the
// residual on each pass and keeps the best few keys within a design
// radius. No decoder layer runs and nothing is trained. Sessions, the
// supervisor, the gateway and attacks take one.
//
// AutoencoderReconciler adds what the paper's figures use: Alice's encoder
// f2, the decoder MLP g and its training, decode_guided() (g shortlists
// each pass's flips: Fig. 11's decoder-width sweep, ablation A5) and
// reconcile_one_shot() (one pass of g: the paper's inference, Fig. 15).
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
//  * at most 40 passes for either decode, and a decode that leaves more
//    than a quarter of the initial residual energy reports no correction;
//  * 256 syndrome levels per component (one byte), so the syndrome is
//    kCodeDim bytes;
//  * decode_mismatch's beam keeps 8 working keys and returns at most
//    key_bits * 7 / 32 flips (14 of 64: between Alice's ~17% attempt-0
//    mismatch and Eve's ~49%);
//  * either decode stops at the first key it reaches whose encoding falls
//    in every received cell (the cell test below);
//  * a decoder-guided pass shortlists the decoder's 16 top-scored flips;
//  * Bloom parameters from the public seed 0x5e551011.
//
// The public syndrome is kCodeDim one-byte cells. f1 is linear and reads
// 0/1 inputs, so component r of its output lies in the exact range
// [b_r + sum_j min(0, W_rj), b_r + sum_j max(0, W_rj)], worked out from the
// public f1 alone wherever the Gram matrix is formed. That range holds 256
// evenly spaced levels, step_r apart, and each component rounds to the
// nearest: syndrome() writes the 32 level indices into the caller's
// kSyndromeBytes (a frame's inline payload), encode_bob() returns the
// levels themselves (the cell centres), and correct() is Alice's
// reconcile() against the centres of the received indices, refusing any
// other length. So the protocol, the figures and Eve all see one syndrome.
// Sessions and attacks use only syndrome() and correct(); the bytes are
// SyndromeCode's to define.
//
// The cell test: a residual energy ||y_Bob - f1(K'_work)||^2 of at most
// sum_r (step_r / 2)^2 (plus a few ulps of slack per component) prompts a
// check from scratch, which passes when the working key's own encoding
// falls in the received cell in every component. Bob's key always passes;
// the MAC still decides.
//
// Cost accounting: each code forms f1's Gram matrix W^T W once (N x N x M
// multiply-accumulates, set-up; again when training moves f1).
// decode_mismatch() encodes Alice's key (N x M) and dots her residual with
// every encoder column (N x M); each pass then scores every flip of every
// state (one multiply-accumulate each, N per state) and updates each kept
// child's N dot products from one Gram row (N per child), and each new
// best key under the cell energy is re-encoded for the cell test (N x M,
// almost always once). So a decode of I passes and C cell tests costs at
// most (2 x M + 16 x I + C x M) x N, and DecodeResult::macs counts what it
// spent.
// decode_guided() runs the greedy loop, whose pass sweeps W once (N x M);
// decode_flops() counts one decoder-guided pass (encoder + decoder g), the
// quantity Fig. 11 compares across decoder widths and against the CS/OMP
// decoder.
//
// Allocation: encode_bob(), syndrome(), correct() and decode_mismatch()
// work in fixed-size scratch: y_Bob, its cells and the residual are
// kCodeDim arrays, the beam's states are two fixed arrays of 8, and their
// per-key-bit values (flips as packed words, signs, dot products, each
// pass's scores) live in SmallBuffers that hold BitVec::kInlineBits of
// them inline, so none of them allocates at key widths up to 128 bits,
// whatever the number of passes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"
#include "core/bloom.h"
#include "nn/dense.h"

namespace vkey::core {

/// M: the encoder output width ("32 units"), so the number of cells in the
/// public syndrome y_Bob.
inline constexpr std::size_t kCodeDim = 32;
/// The syndrome frame's payload: one level index byte per cell.
inline constexpr std::size_t kSyndromeBytes = kCodeDim;

/// The public half the protocol runs; it holds no decoder.
class SyndromeCode {
 public:
  /// An N = `key_bits` code (N >= 8) whose encoder is the first draw from
  /// Rng(seed): the f1 of an AutoencoderReconciler with that seed.
  SyndromeCode(std::size_t key_bits, std::uint64_t seed);

  std::size_t key_bits() const { return bloom_.size(); }

  /// Bob's side: Bloom-map the key and encode; the result is the public
  /// syndrome y_Bob, each component the centre of its cell.
  std::array<double, kCodeDim> encode_bob(const BitVec& key_bob) const;

  struct DecodeResult {
    BitVec mismatch;         ///< estimated flips, original key space
    std::size_t iterations = 0;  ///< passes used
    /// Multiply-accumulates decode_mismatch() spent (see "Cost accounting");
    /// decode_guided() leaves it 0, Fig. 11 charges it decode_flops() a pass.
    std::size_t macs = 0;
  };

  /// Alice's side, the protocol's decode: recover the estimated mismatch
  /// (in original key space) by a beam search over her working keys,
  /// Alice-side only, with no extra communication. It starts from her key;
  /// each of at most 40 passes scores every single-bit flip of every state
  /// by the residual energy ||y_Bob - f1(K'_work)||^2 it would leave (with
  /// a linear encoder, flipping bit i moves h by -(1 - 2 w_i) W_col_i, so
  /// a score is one multiply-accumulate given the state's dot products and
  /// the Gram matrix) and keeps the 8 lowest-scored distinct keys, ties
  /// broken by score, then state, then bit, so the result is the same on
  /// every lane. No key strays more than key_bits * 7 / 32 flips from
  /// hers. The loop stops once a new best key passes the cell test; the
  /// best key reached is kept, and a decode that never passed the test and
  /// whose best key never fell below a quarter of the initial energy
  /// reports no correction. Inverts f1, the encoder that produced y_Bob.
  /// Allocates nothing up to 128-bit keys.
  DecodeResult decode_mismatch(const BitVec& key_alice,
                               std::span<const double> y_bob) const;

  /// Alice's side, full correction: returns K_Alice ^ mismatch, which equals
  /// K_Bob whenever the decode recovered every flip.
  BitVec reconcile(const BitVec& key_alice,
                   std::span<const double> y_bob) const;

  /// encode_bob() as the syndrome frame's payload, written into `out`
  /// (exactly kSyndromeBytes): each component's level index, 0..255.
  void syndrome(const BitVec& key_bob, std::span<std::uint8_t> out) const;

  /// reconcile() against the cell centres of syndrome() bytes; nullopt
  /// unless `syndrome` holds exactly kSyndromeBytes.
  std::optional<BitVec> correct(const BitVec& key_alice,
                                std::span<const std::uint8_t> syndrome) const;

 protected:
  /// Form f1's Gram matrix W^T W (N x N) and the syndrome's cells; again
  /// whenever f1 trains.
  void form_gram();

  /// h = y_Bob - f1(`work`) for a Bloom-mapped key of 0/1 bytes; returns
  /// ||h||^2.
  double residual(std::span<const std::uint8_t> work,
                  std::span<const double> y_bob,
                  std::span<double, kCodeDim> h) const;

  /// Whether a residual worked out from scratch leaves every component in
  /// its cell.
  bool in_cells(std::span<const double, kCodeDim> h) const;

  /// The cell test, for a decode's new best key `work` whose running
  /// energy is `norm2`: nullopt while that energy is above the cell
  /// energy; otherwise `work` is re-encoded from scratch (N x M, its
  /// residual into `h`, its energy into `norm2`) and the result is whether
  /// it falls in every received cell.
  std::optional<bool> cell_test(std::span<const std::uint8_t> work,
                                std::span<const double> y_bob,
                                std::span<double, kCodeDim> h,
                                double& norm2) const;

  /// The stream f1 was drawn from, where that draw left it: the trained
  /// half draws f2, its decoder and its epochs' shuffles from here.
  vkey::Rng rng_;
  PositionPreservingBloom bloom_;
  nn::Dense f1_;  ///< Bob's encoder, and Alice's when tied
  std::vector<double> gram_;  ///< W^T W of f1, row-major

 private:
  /// Bob's level index in each component.
  std::array<std::uint8_t, kCodeDim> cells(const BitVec& key_bob) const;
  /// The level each of `cell`'s indices names.
  std::array<double, kCodeDim> centres(
      std::span<const std::uint8_t, kCodeDim> cell) const;

  /// Each component's lowest level, the step between levels, and the
  /// farthest an encoding in the cell lies from its centre (half a step
  /// and a few ulps).
  std::array<double, kCodeDim> low_{}, step_{}, reach_{};
  /// The cell test's trigger: the residual energy of a key whose encoding
  /// sits at the edge of every cell.
  double cell_energy_ = 0.0;
};

struct ReconcilerConfig {
  std::size_t key_bits = 64;     ///< N (one BiLSTM fragment)
  std::size_t decoder_units = 64;///< hidden width of the 3 decoder layers
  /// Share one encoder between the two parties (f1 == f2). With untied
  /// linear encoders the decoder's input h = f1(K'_B) - f2(K'_A) contains
  /// a nuisance term (W1 - W2) K'_A that it cannot observe; tying removes
  /// it. Both iterative decodes invert f1, which produced y_Bob. The
  /// paper draws two encoder MLPs; tying is the weight-shared special case.
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

/// The paper's trained half: a SyndromeCode plus f2 and the decoder g.
class AutoencoderReconciler : public SyndromeCode {
 public:
  explicit AutoencoderReconciler(const ReconcilerConfig& config);

  const ReconcilerConfig& config() const { return cfg_; }

  /// Train on `num_samples` synthetic key pairs, Bloom-mapped once, for
  /// `epochs` epochs (Adam over 32-pair mini-batches of rows sized once per
  /// call: forward every member, then Dense::backward_batch layer by
  /// layer). Returns the final mean training loss.
  double train(std::size_t num_samples, std::size_t epochs);

  /// A greedy single-path decode with the decoder MLP choosing the
  /// candidates: each pass runs g on the residual, scores only its 16
  /// top-scored flips and commits the one that shrinks the residual most;
  /// a pass that cannot shrink it ends the loop, and the best state reached
  /// is kept (40-pass budget, cell test and quarter-energy gate as
  /// decode_mismatch's).
  /// Fig. 11's AE-16..AE-128 rows and ablation A5 run it to compare decoder
  /// widths; no protocol path does.
  DecodeResult decode_guided(const BitVec& key_alice,
                             std::span<const double> y_bob) const;

  /// Single decoder pass (the paper's original inference: one forward pass
  /// of g on y_Bob - f2(K'_Alice), logits thresholded at 0.5). Used by the
  /// security analysis to reproduce Fig. 15's eavesdropping attack exactly;
  /// the iterative reconcile() is strictly stronger for the legitimate
  /// party.
  BitVec reconcile_one_shot(const BitVec& key_alice,
                            std::span<const double> y_bob) const;

  /// Multiply-accumulate count of one decoder-guided pass (encoder +
  /// decoder g); Fig. 11 charges decode_guided() this times
  /// DecodeResult::iterations.
  std::size_t decode_flops() const;

  std::vector<nn::Parameter*> parameters();

 private:
  ReconcilerConfig cfg_;
  nn::Dense f2_;                    ///< Alice's encoder when untied
  std::vector<nn::Dense> decoder_;  ///< hidden layers + output (logits)
};

}  // namespace vkey::core
