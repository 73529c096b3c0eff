// Multi-bit adaptive quantization (Jana et al. [2], used by Bob in
// Vehicle-Key and by the LoRa-Key / Han et al. baselines).
//
// Measurements are processed in blocks. Within each block the 2^b quantile
// thresholds are computed so each level is equally likely, and each sample is
// Gray-coded into b bits. An optional guard band of ratio alpha (LoRa-Key
// uses alpha = 0.8) drops samples falling within alpha * (level width)
// around each threshold; the kept-sample indices are returned so the two
// parties can intersect them (index reconciliation), at the cost of key rate.
//
// Block adaptivity matters for security: thresholds track the local mean, so
// the emitted bits encode *relative* variation (small-scale + local
// shadowing) rather than absolute signal level — an eavesdropper who shares
// the coarse path loss but not the fine fading gains almost nothing.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/bitvec.h"
#include "common/small_buffer.h"

namespace vkey::core {

struct QuantizerConfig {
  int bits_per_sample = 2;       ///< b: 1..4
  std::size_t block_size = 32;   ///< samples per adaptive block
  double guard_band_ratio = 0.0;  ///< alpha in [0,1): 0 disables guard bands
};

struct QuantizationResult {
  BitVec bits;  ///< Gray-coded bits of kept samples
  /// Indices of samples kept: a key window's 64 live inline, a longer
  /// series' take one heap block.
  SmallBuffer<std::size_t, 64> kept;
};

class MultiBitQuantizer {
 public:
  explicit MultiBitQuantizer(const QuantizerConfig& config = {});

  const QuantizerConfig& config() const { return cfg_; }

  /// Quantize a measurement series. A trailing partial block shorter than
  /// half the block size is merged into the previous block.
  QuantizationResult quantize(std::span<const double> values) const;

  /// Quantize using only the samples listed in `indices` (after the two
  /// parties have exchanged kept-index lists and intersected them).
  /// Thresholds are recomputed over the restricted set, per block.
  BitVec quantize_at(std::span<const double> values,
                     std::span<const std::size_t> indices) const;

  /// Gray code of `level`; quantize() emits its low bits_per_sample bits
  /// most significant first (exposed for tests).
  static std::size_t gray_code(std::size_t level) {
    return level ^ (level >> 1);
  }

 private:
  QuantizerConfig cfg_;
};

/// Intersect two sorted index lists (helper for guard-band reconciliation).
std::vector<std::size_t> intersect_indices(
    std::span<const std::size_t> a, std::span<const std::size_t> b);

}  // namespace vkey::core
