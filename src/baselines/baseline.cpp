#include "baselines/baseline.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "baselines/cascade.h"
#include "common/error.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/privacy.h"
#include "core/quantizer.h"
#include "cs/compressed_sensing.h"

namespace vkey::baselines {

namespace {

// Each baseline at the setting the paper's comparison uses.

/// LoRa-Key's 2-bit quantizer with guard-band ratio alpha = 0.8.
constexpr core::QuantizerConfig kLoRaKeyQuantizer{
    .bits_per_sample = 2, .block_size = 16, .guard_band_ratio = 0.8};
constexpr std::uint64_t kLoRaKeySensingSeed = 17;

/// Han et al.'s 2-bit quantizer, without guard bands.
constexpr core::QuantizerConfig kHanQuantizer{
    .bits_per_sample = 2, .block_size = 16, .guard_band_ratio = 0.0};
constexpr std::size_t kHanBlockBits = 256;  ///< Cascade block length
constexpr std::uint64_t kHanCascadeSeed = 41;

constexpr std::size_t kGaoInterval = 20;  ///< probe exchanges per round
constexpr std::size_t kGaoRounds = 50;    ///< rounds per key
constexpr double kGaoModelAlpha = 0.3;    ///< EWMA factor of the model
constexpr std::uint64_t kGaoSensingSeed = 59;

/// CS reconciliation shared by LoRa-Key and Gao: a 20 x 64 sensing matrix
/// and an OMP sparsity budget of 10 mismatches.
constexpr std::size_t kCsBlockBits = 64;
constexpr std::size_t kCsRows = 20;
constexpr std::size_t kCsMaxMismatches = 10;

/// What reconciling a baseline's blocks produced.
struct BlockScores {
  std::vector<double> kar;      ///< post-reconciliation agreement per block
  std::size_t exact = 0;        ///< blocks reconciled to Bob's bits exactly
  std::size_t leaked_bits = 0;  ///< reconciliation bits published, in total
};

/// Both parties quantize their pRSSI, exchange the kept indices and
/// re-quantize the samples both kept. Empty when fewer than one
/// quantizer block survives the intersection.
std::pair<BitVec, BitVec> quantize_pair(const PrssiSeries& series,
                                        const core::QuantizerConfig& qcfg) {
  const core::MultiBitQuantizer quant(qcfg);
  const auto kept = core::intersect_indices(quant.quantize(series.alice).kept,
                                            quant.quantize(series.bob).kept);
  if (kept.size() < qcfg.block_size) return {};
  return {quant.quantize_at(series.alice, kept),
          quant.quantize_at(series.bob, kept)};
}

/// CS-reconcile the first `blocks` 64-bit blocks: Bob publishes kCsRows
/// real measurements of each, and Alice corrects hers by OMP.
BlockScores cs_blocks(const BitVec& alice, const BitVec& bob,
                      std::size_t blocks, std::uint64_t sensing_seed) {
  const Matrix phi =
      cs::make_sensing_matrix(kCsRows, kCsBlockBits, sensing_seed);
  BlockScores s;
  for (std::size_t b = 0; b < blocks; ++b) {
    const BitVec ka = alice.slice(b * kCsBlockBits, kCsBlockBits);
    const BitVec kb = bob.slice(b * kCsBlockBits, kCsBlockBits);
    const auto rec =
        cs::cs_reconcile(phi, ka, cs::cs_syndrome(phi, kb), kCsMaxMismatches);
    s.kar.push_back(rec.corrected.agreement(kb));
    if (rec.corrected == kb) ++s.exact;
    s.leaked_bits += kCsRows;
  }
  return s;
}

/// The score every baseline reports, Vehicle-Key's own
/// (core::score_key_blocks) over the trace's probe time.
BaselineMetrics fold(std::string name, const BlockScores& s,
                     std::size_t block_bits, std::size_t probe_rounds,
                     double round_duration_s) {
  const core::KeyScore score = core::score_key_blocks(
      s.kar, s.exact, s.leaked_bits, block_bits,
      static_cast<double>(probe_rounds) * round_duration_s);
  BaselineMetrics m;
  m.name = std::move(name);
  m.blocks = s.kar.size();
  m.mean_kar = score.mean_kar;
  m.std_kar = score.std_kar;
  m.key_success_rate = score.exact_rate;
  m.kgr_bits_per_s = score.kgr_bits_per_s;
  return m;
}

/// Gao's model-based single-bit extraction: EWMA channel model, then each
/// residual against the median of the last kGaoInterval residuals.
std::vector<std::uint8_t> gao_bits(const std::vector<double>& x) {
  std::vector<std::uint8_t> bits;
  if (x.empty()) return bits;
  double model = x.front();
  std::vector<double> residuals;
  residuals.reserve(x.size());
  for (double v : x) {
    model = kGaoModelAlpha * v + (1.0 - kGaoModelAlpha) * model;
    residuals.push_back(v - model);
  }
  bits.reserve(x.size());
  for (std::size_t i = 0; i < residuals.size(); ++i) {
    const std::size_t lo = (i + 1 >= kGaoInterval) ? i + 1 - kGaoInterval : 0;
    std::vector<double> window(
        residuals.begin() + static_cast<std::ptrdiff_t>(lo),
        residuals.begin() + static_cast<std::ptrdiff_t>(i + 1));
    const double th = stats::median(window);
    bits.push_back(residuals[i] > th ? 1 : 0);
  }
  return bits;
}

}  // namespace

PrssiSeries extract_prssi(const std::vector<channel::ProbeRound>& rounds) {
  PrssiSeries s;
  s.alice.reserve(rounds.size());
  s.bob.reserve(rounds.size());
  for (const auto& r : rounds) {
    s.alice.push_back(r.alice_rx.prssi());
    s.bob.push_back(r.bob_rx.prssi());
  }
  return s;
}

BaselineMetrics lora_key(const std::vector<channel::ProbeRound>& rounds,
                         double round_duration_s) {
  VKEY_REQUIRE(!rounds.empty(), "empty trace");
  const auto [bits_a, bits_b] =
      quantize_pair(extract_prssi(rounds), kLoRaKeyQuantizer);
  return fold("LoRa-Key",
              cs_blocks(bits_a, bits_b, bits_a.size() / kCsBlockBits,
                        kLoRaKeySensingSeed),
              kCsBlockBits, rounds.size(), round_duration_s);
}

BaselineMetrics han_v2v(const std::vector<channel::ProbeRound>& rounds,
                        double round_duration_s) {
  VKEY_REQUIRE(!rounds.empty(), "empty trace");
  const auto [bits_a, bits_b] =
      quantize_pair(extract_prssi(rounds), kHanQuantizer);
  BlockScores s;
  const std::size_t nblocks = bits_a.size() / kHanBlockBits;
  for (std::size_t b = 0; b < nblocks; ++b) {
    const BitVec ka = bits_a.slice(b * kHanBlockBits, kHanBlockBits);
    const BitVec kb = bits_b.slice(b * kHanBlockBits, kHanBlockBits);
    const auto rec =
        cascade_reconcile(ka, kb, hash_combine64(kHanCascadeSeed, b));
    s.kar.push_back(rec.corrected.agreement(kb));
    s.leaked_bits += rec.leaked_bits;
    if (rec.corrected == kb) ++s.exact;
  }
  return fold("Han et al.", s, kHanBlockBits, rounds.size(),
              round_duration_s);
}

BaselineMetrics gao_model(const std::vector<channel::ProbeRound>& rounds,
                          double round_duration_s) {
  VKEY_REQUIRE(!rounds.empty(), "empty trace");
  const PrssiSeries series = extract_prssi(rounds);

  // The model-based rounds emit one bit per (interval / 10) probe
  // exchanges: average the pRSSI over each group first.
  const std::size_t group = std::max<std::size_t>(1, kGaoInterval / 10);
  auto grouped = [&](const std::vector<double>& x) {
    std::vector<double> out;
    for (std::size_t i = 0; i + group <= x.size(); i += group) {
      double s = 0.0;
      for (std::size_t j = 0; j < group; ++j) s += x[i + j];
      out.push_back(s / static_cast<double>(group));
    }
    return out;
  };
  const BitVec bits_a(gao_bits(grouped(series.alice)));
  const BitVec bits_b(gao_bits(grouped(series.bob)));

  // The protocol's probe budget, interval * rounds exchanges per key, caps
  // the blocks one trace yields.
  const std::size_t max_blocks_budget = std::max<std::size_t>(
      1, kGaoInterval * kGaoRounds / kCsBlockBits);
  const std::size_t nblocks =
      std::min(bits_a.size() / kCsBlockBits, max_blocks_budget * 64);
  return fold("Gao et al.",
              cs_blocks(bits_a, bits_b, nblocks, kGaoSensingSeed),
              kCsBlockBits, rounds.size(), round_duration_s);
}

}  // namespace vkey::baselines
