#include "core/dataset.h"

#include <algorithm>
#include <span>

#include "common/error.h"
#include "common/stats.h"

namespace vkey::core {

ArRssiStreams extract_streams(const std::vector<channel::ProbeRound>& rounds,
                              const ArRssiExtractor& extractor,
                              std::size_t reciprocal_windows) {
  ArRssiStreams s;
  if (rounds.empty()) return s;
  const bool with_eve = !rounds.front().eve_rx_bob_tx.rrssi.empty();
  for (const auto& r : rounds) {
    VKEY_REQUIRE(r.eve_rx_bob_tx.rrssi.empty() != with_eve,
                 "trace mixes rounds with and without Eve");
    // Only the windows kept below are averaged, straight from the samples.
    const ArRssiExtractor::Windows a = extractor.windows(r.alice_rx.rrssi);
    const ArRssiExtractor::Windows b = extractor.windows(r.bob_rx.rrssi);
    // Keep the streams index-aligned even if sample counts differ by one
    // (defensive; packets share the same PHY so counts normally match).
    std::size_t n = std::min(a.count, b.count);
    ArRssiExtractor::Windows e;
    if (with_eve) {
      e = extractor.windows(r.eve_rx_bob_tx.rrssi);
      n = std::min(n, e.count);
    }
    if (n == 0) continue;
    const std::size_t k =
        reciprocal_windows == 0 ? n : std::min(reciprocal_windows, n);
    if (s.alice.empty()) {
      // Packets share one PHY: the first round's count sizes the streams.
      const std::size_t capacity = rounds.size() * k;
      s.alice.reserve(capacity);
      s.bob.reserve(capacity);
      if (with_eve) s.eve.reserve(capacity);
    }
    for (std::size_t j = 0; j < k; ++j) {
      // Alice: head of her reception window; Bob: tail of his, mirrored so
      // that index-aligned values are the temporally closest pairs.
      s.alice.push_back(a.mean(j));
      s.bob.push_back(b.mean(n - 1 - j));
      if (with_eve) s.eve.push_back(e.mean(j));
    }
  }
  return s;
}

nn::Vec normalize_window(const std::vector<double>& raw, std::size_t pos,
                         std::size_t len) {
  VKEY_REQUIRE(pos + len <= raw.size(), "window out of range");
  const std::span<const double> w(raw.data() + pos, len);
  return vkey::stats::minmax01(w);
}

std::vector<TrainingSample> make_samples(const ArRssiStreams& streams,
                                         const DatasetConfig& cfg) {
  VKEY_REQUIRE(cfg.seq_len >= 4, "sequence length too short");
  const std::size_t len = streams.alice.size();
  VKEY_REQUIRE(streams.bob.size() == len &&
                   (streams.eve.empty() || streams.eve.size() == len),
               "misaligned streams");
  const std::size_t stride = cfg.stride == 0 ? cfg.seq_len : cfg.stride;

  // Bob quantizes his raw (unnormalized) window; the quantizer is
  // block-adaptive so scale does not matter, but we pass raw values to
  // mirror the real protocol. Guard bands are disabled for Bob inside
  // Vehicle-Key (the BiLSTM head replaces index reconciliation).
  QuantizerConfig qc = cfg.quantizer;
  qc.guard_band_ratio = 0.0;
  qc.block_size = std::min(qc.block_size, cfg.seq_len);
  const MultiBitQuantizer q(qc);
  const std::span<const double> bob_raw(streams.bob);

  std::vector<TrainingSample> samples;
  if (len >= cfg.seq_len) samples.reserve((len - cfg.seq_len) / stride + 1);
  for (std::size_t pos = 0; pos + cfg.seq_len <= len; pos += stride) {
    TrainingSample s;
    s.alice_seq = normalize_window(streams.alice, pos, cfg.seq_len);
    s.bob_seq = normalize_window(streams.bob, pos, cfg.seq_len);
    if (!streams.eve.empty()) {
      s.eve_seq = normalize_window(streams.eve, pos, cfg.seq_len);
    }
    s.bob_bits = q.quantize(bob_raw.subspan(pos, cfg.seq_len)).bits;
    samples.push_back(std::move(s));
  }
  return samples;
}

}  // namespace vkey::core
