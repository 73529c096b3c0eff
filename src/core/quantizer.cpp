#include "core/quantizer.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/small_buffer.h"

namespace vkey::core {

MultiBitQuantizer::MultiBitQuantizer(const QuantizerConfig& config)
    : cfg_(config) {
  VKEY_REQUIRE(cfg_.bits_per_sample >= 1 && cfg_.bits_per_sample <= 4,
               "bits per sample must be in 1..4");
  VKEY_REQUIRE(cfg_.block_size >= 4, "block size must be >= 4");
  VKEY_REQUIRE(cfg_.guard_band_ratio >= 0.0 && cfg_.guard_band_ratio < 1.0,
               "guard band ratio must be in [0,1)");
}

namespace {

/// A block's sorted copy: the default 32-sample block with the largest
/// tail merged into it (15 samples) fits inline.
using BlockScratch = SmallBuffer<double, 48>;
/// At most 2^4 - 1 thresholds: always inline.
using Thresholds = SmallBuffer<double, 15>;

/// Quantile thresholds splitting `block` into `levels` equal-mass bins
/// (levels-1 thresholds) into `th`; `sorted` is scratch.
void quantile_thresholds(std::span<const double> block, std::size_t levels,
                         BlockScratch& sorted, Thresholds& th) {
  sorted.assign(block);
  std::sort(sorted.begin(), sorted.end());
  th.resize(levels - 1);
  const std::size_t n = sorted.size();
  for (std::size_t k = 1; k < levels; ++k) {
    const double pos = static_cast<double>(k) * static_cast<double>(n) /
                       static_cast<double>(levels);
    const auto idx = static_cast<std::size_t>(pos);
    th[k - 1] = sorted[std::min(idx, n - 1)];
  }
}

std::size_t level_of(double v, const Thresholds& th) {
  std::size_t level = 0;
  while (level < th.size() && v >= th[level]) ++level;
  return level;
}

/// Append the `width`-bit Gray code of `level`, most significant bit first.
void push_gray(BitVec& bits, std::size_t level, int width) {
  const std::size_t gray = MultiBitQuantizer::gray_code(level);
  for (int i = width - 1; i >= 0; --i) bits.push_back(((gray >> i) & 1u) != 0);
}

}  // namespace

QuantizationResult MultiBitQuantizer::quantize(
    std::span<const double> values) const {
  VKEY_REQUIRE(values.size() >= cfg_.block_size,
               "need at least one full block");
  const std::size_t levels = 1u << cfg_.bits_per_sample;
  QuantizationResult out;
  out.bits.reserve(values.size() *
                   static_cast<std::size_t>(cfg_.bits_per_sample));
  out.kept.reserve(values.size());
  BlockScratch sorted;
  Thresholds th;

  std::size_t start = 0;
  while (start < values.size()) {
    std::size_t len = std::min(cfg_.block_size, values.size() - start);
    // Merge a short trailing block into this one.
    const std::size_t remaining = values.size() - start - len;
    if (remaining > 0 && remaining < cfg_.block_size / 2) {
      len += remaining;
    }
    const std::span<const double> block = values.subspan(start, len);
    quantile_thresholds(block, levels, sorted, th);

    // Guard band half-width: alpha * mean adjacent-threshold gap / 2.
    double guard = 0.0;
    if (cfg_.guard_band_ratio > 0.0 && th.size() >= 1) {
      double span_est;
      if (th.size() >= 2) {
        span_est = (th.back() - th[0]) / static_cast<double>(th.size() - 1);
      } else {
        const auto [mn, mx] = std::minmax_element(block.begin(), block.end());
        span_est = (*mx - *mn) / 2.0;
      }
      guard = cfg_.guard_band_ratio * span_est / 2.0;
    }

    for (std::size_t i = 0; i < len; ++i) {
      const double v = block[i];
      if (guard > 0.0) {
        bool in_guard = false;
        for (double t : th) {
          if (std::fabs(v - t) <= guard) {
            in_guard = true;
            break;
          }
        }
        if (in_guard) continue;
      }
      push_gray(out.bits, level_of(v, th), cfg_.bits_per_sample);
      out.kept.push_back(start + i);
    }
    start += len;
  }
  return out;
}

BitVec MultiBitQuantizer::quantize_at(
    std::span<const double> values,
    std::span<const std::size_t> indices) const {
  VKEY_REQUIRE(!indices.empty(), "no indices to quantize");
  const std::size_t levels = 1u << cfg_.bits_per_sample;
  BitVec out;
  out.reserve(indices.size() * static_cast<std::size_t>(cfg_.bits_per_sample));
  BlockScratch block, sorted;
  Thresholds th;

  std::size_t start = 0;
  while (start < indices.size()) {
    std::size_t len = std::min(cfg_.block_size, indices.size() - start);
    const std::size_t remaining = indices.size() - start - len;
    if (remaining > 0 && remaining < cfg_.block_size / 2) len += remaining;

    block.resize(len);
    for (std::size_t i = 0; i < len; ++i) {
      const std::size_t idx = indices[start + i];
      VKEY_REQUIRE(idx < values.size(), "index out of range");
      block[i] = values[idx];
    }
    quantile_thresholds(block, levels, sorted, th);
    for (std::size_t i = 0; i < len; ++i) {
      push_gray(out, level_of(block[i], th), cfg_.bits_per_sample);
    }
    start += len;
  }
  return out;
}

std::vector<std::size_t> intersect_indices(std::span<const std::size_t> a,
                                           std::span<const std::size_t> b) {
  std::vector<std::size_t> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::back_inserter(out));
  return out;
}

}  // namespace vkey::core
