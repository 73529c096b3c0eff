// Training/evaluation dataset assembly for the BiLSTM model.
//
// For each probe round the two parties extract index-aligned arRSSI
// sequences (Bob's from his reception of Alice's probe, Alice's from her
// reception of Bob's response). Concatenating over rounds gives two aligned
// streams; fixed-length windows of those streams form the model's samples:
//   input   : Alice's normalized window (seq_len values)
//   target y: Bob's normalized window   (seq_len values)
//   target z: Bob's multi-bit quantization of his window (key_bits bits)
//
// Normalization is per-window min-max to [0,1], computed independently by
// each party from its own values (no information exchange is needed).
//
// Eve is optional: a trace whose rounds carry no Eve observation (the
// generator's default, or a two-radio hardware capture) yields an empty
// Eve stream and samples with an empty eve_seq; a trace that mixes rounds
// with and without her is rejected. Extraction averages only the windows
// it keeps, straight from each reception's samples, and make_samples
// allocates a fixed number of blocks per window.
#pragma once

#include <cstddef>
#include <vector>

#include "channel/trace.h"
#include "common/bitvec.h"
#include "core/arrssi.h"
#include "core/quantizer.h"
#include "nn/param.h"

namespace vkey::core {

struct TrainingSample {
  nn::Vec alice_seq;  ///< normalized, length = seq_len
  nn::Vec bob_seq;    ///< normalized, length = seq_len
  BitVec bob_bits;    ///< quantized target, length = seq_len * bits_per_sample
  nn::Vec eve_seq;    ///< Eve's imitation window (normalized), for security
                      ///< eval; empty when the trace has no Eve
};

struct DatasetConfig {
  /// 64 arRSSI values feed one 64-bit key fragment (the paper's "map the
  /// predicted sequence to a 64-bit binary bit space").
  std::size_t seq_len = 64;
  /// Key-stream windows are finer than the 10% boundary-correlation optimum
  /// of Fig. 9: stream pairs sit up to (2k-1) windows apart, so smaller
  /// windows keep every pair inside the coherence time.
  ArRssiExtractor extractor{0.04};
  /// Bob's quantizer: one bit per arRSSI value (block-adaptive median
  /// threshold). Single-bit quantization keeps the fragment bit-disagreement
  /// rate inside the reconciler's correction radius; the multi-bit
  /// configuration remains available (and is what the baselines use).
  QuantizerConfig quantizer{.bits_per_sample = 1, .block_size = 16,
                            .guard_band_ratio = 0.0};
  std::size_t stride = 0;        ///< 0 = non-overlapping (stride = seq_len)
  /// Windows per packet taken from the reciprocal zone (see
  /// extract_streams). 0 = use every window of the packet.
  std::size_t reciprocal_windows = 4;
};

/// Aligned raw arRSSI streams extracted from a trace.
struct ArRssiStreams {
  std::vector<double> alice;
  std::vector<double> bob;
  std::vector<double> eve;  ///< Eve's imitation stream (Eve-Bob channel);
                            ///< empty when the trace has no Eve
};

/// Concatenate per-round arRSSI sequences into index-aligned streams using
/// *mirrored reciprocal-zone pairing*: Bob receives first (Alice's probe),
/// Alice second (Bob's response), so the windows closest in time are the
/// TAIL of Bob's packet and the HEAD of Alice's packet. For each round we
/// therefore take Alice's first `reciprocal_windows` windows in order, and
/// Bob's last `reciprocal_windows` windows REVERSED: index-aligned pairs are
/// then separated by only (turnaround + (2j+1) * window) seconds — inside or
/// near the channel coherence time for small j — instead of a full packet
/// airtime. Eve's stream mirrors Alice's construction (she hears Bob's
/// response through her own Eve-Bob channel at the same instants); it is
/// empty when no round carries her, and rounds that disagree on her
/// presence are rejected. `reciprocal_windows` = 0 uses every window of
/// the packet.
ArRssiStreams extract_streams(const std::vector<channel::ProbeRound>& rounds,
                              const ArRssiExtractor& extractor,
                              std::size_t reciprocal_windows = 4);

/// Cut aligned streams into model samples.
std::vector<TrainingSample> make_samples(const ArRssiStreams& streams,
                                         const DatasetConfig& cfg);

/// Per-window min-max normalization to [0,1] (constant windows -> 0.5).
nn::Vec normalize_window(const std::vector<double>& raw, std::size_t pos,
                         std::size_t len);

}  // namespace vkey::core
