#include "core/dataset.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/stats.h"

namespace vkey::core {
namespace {

channel::TraceConfig trace_config() {
  channel::TraceConfig cfg;
  cfg.scenario = channel::make_scenario(channel::ScenarioKind::kV2VUrban, 50.0);
  cfg.seed = 5;
  return cfg;
}

/// trace_config() with Eve placed, for the tests that read her stream.
channel::TraceConfig eve_trace_config() {
  channel::TraceConfig cfg = trace_config();
  cfg.device_eve = channel::dragino_lora_shield();
  return cfg;
}

/// The rounds with every Eve observation cleared, as a two-radio capture
/// would record them.
std::vector<channel::ProbeRound> strip_eve(
    std::vector<channel::ProbeRound> rounds) {
  for (auto& r : rounds) {
    r.eve_rx_alice_tx = {};
    r.eve_rx_bob_tx = {};
  }
  return rounds;
}

TEST(Dataset, StreamsAreIndexAligned) {
  channel::TraceGenerator gen(eve_trace_config());
  const auto rounds = gen.generate(10);
  const ArRssiExtractor ex(0.04);
  const auto st = extract_streams(rounds, ex, 4);
  EXPECT_EQ(st.alice.size(), st.bob.size());
  EXPECT_EQ(st.alice.size(), st.eve.size());
  EXPECT_EQ(st.alice.size(), 40u);  // 4 reciprocal windows x 10 rounds
}

TEST(Dataset, ZeroReciprocalWindowsUsesAll) {
  channel::TraceGenerator gen(trace_config());
  const auto rounds = gen.generate(4);
  const ArRssiExtractor ex(0.10);
  const auto st = extract_streams(rounds, ex, 0);
  const auto per_packet = ex.values_per_packet(
      static_cast<std::size_t>(gen.phy().rssi_samples_per_packet()));
  EXPECT_EQ(st.alice.size(), 4u * per_packet);
}

TEST(Dataset, MirroredPairingImprovesCorrelation) {
  // The mirror pairing is the whole point: paired values must correlate
  // far better than naive same-position pairing.
  channel::TraceGenerator gen(trace_config());
  const auto rounds = gen.generate(150);
  const ArRssiExtractor ex(0.04);
  const auto mirrored = extract_streams(rounds, ex, 4);
  // Build the naive pairing manually: Alice head windows vs Bob head windows.
  std::vector<double> alice_naive, bob_naive;
  for (const auto& r : rounds) {
    const auto a = ex.sequence(r.alice_rx.rrssi);
    const auto b = ex.sequence(r.bob_rx.rrssi);
    for (std::size_t j = 0; j < 4; ++j) {
      alice_naive.push_back(a[j]);
      bob_naive.push_back(b[j]);
    }
  }
  const double mirrored_corr =
      vkey::stats::pearson(mirrored.alice, mirrored.bob);
  const double naive_corr = vkey::stats::pearson(alice_naive, bob_naive);
  EXPECT_GT(mirrored_corr, naive_corr + 0.1);
}

TEST(Dataset, SamplesHaveConsistentShapes) {
  channel::TraceGenerator gen(eve_trace_config());
  const auto rounds = gen.generate(100);
  DatasetConfig cfg;
  const auto samples =
      make_samples(extract_streams(rounds, cfg.extractor,
                                   cfg.reciprocal_windows),
                   cfg);
  ASSERT_FALSE(samples.empty());
  for (const auto& s : samples) {
    EXPECT_EQ(s.alice_seq.size(), cfg.seq_len);
    EXPECT_EQ(s.bob_seq.size(), cfg.seq_len);
    EXPECT_EQ(s.eve_seq.size(), cfg.seq_len);
    EXPECT_EQ(s.bob_bits.size(),
              cfg.seq_len * static_cast<std::size_t>(
                                cfg.quantizer.bits_per_sample));
  }
}

TEST(Dataset, EveLessTraceGivesTheSameLegitimateStreams) {
  // Stripping Eve from a trace leaves Alice's and Bob's streams, windows and
  // bits exactly as they were; only Eve's stream and windows go empty.
  channel::TraceGenerator gen(eve_trace_config());
  const auto rounds = gen.generate(40);
  const DatasetConfig cfg;
  const auto with = extract_streams(rounds, cfg.extractor,
                                    cfg.reciprocal_windows);
  const auto without = extract_streams(strip_eve(rounds), cfg.extractor,
                                       cfg.reciprocal_windows);
  EXPECT_EQ(without.alice, with.alice);
  EXPECT_EQ(without.bob, with.bob);
  EXPECT_EQ(with.eve.size(), with.alice.size());
  EXPECT_TRUE(without.eve.empty());

  const auto s_with = make_samples(with, cfg);
  const auto s_without = make_samples(without, cfg);
  ASSERT_EQ(s_without.size(), s_with.size());
  ASSERT_FALSE(s_with.empty());
  for (std::size_t i = 0; i < s_with.size(); ++i) {
    EXPECT_EQ(s_without[i].alice_seq, s_with[i].alice_seq);
    EXPECT_EQ(s_without[i].bob_seq, s_with[i].bob_seq);
    EXPECT_EQ(s_without[i].bob_bits, s_with[i].bob_bits);
    EXPECT_EQ(s_with[i].eve_seq.size(), cfg.seq_len);
    EXPECT_TRUE(s_without[i].eve_seq.empty());
  }
}

TEST(Dataset, TraceMixingRoundsWithAndWithoutEveRejected) {
  channel::TraceGenerator gen(eve_trace_config());
  const auto rounds = gen.generate(6);
  const ArRssiExtractor ex(0.04);
  auto mixed = rounds;
  mixed[3].eve_rx_bob_tx = {};
  EXPECT_THROW(extract_streams(mixed, ex, 4), vkey::Error);
  auto mixed_first = strip_eve(rounds);
  mixed_first[5] = rounds[5];
  EXPECT_THROW(extract_streams(mixed_first, ex, 4), vkey::Error);
}

TEST(Dataset, StrideControlsOverlap) {
  channel::TraceGenerator gen(trace_config());
  const auto rounds = gen.generate(100);
  DatasetConfig nonoverlap;
  nonoverlap.stride = 0;
  DatasetConfig overlap = nonoverlap;
  overlap.stride = 8;
  const auto st = extract_streams(rounds, nonoverlap.extractor,
                                  nonoverlap.reciprocal_windows);
  const auto s1 = make_samples(st, nonoverlap);
  const auto s2 = make_samples(st, overlap);
  EXPECT_GT(s2.size(), 4 * s1.size());
}

TEST(Dataset, NormalizedInputsInUnitInterval) {
  channel::TraceGenerator gen(trace_config());
  const auto rounds = gen.generate(80);
  DatasetConfig cfg;
  const auto samples = make_samples(
      extract_streams(rounds, cfg.extractor, cfg.reciprocal_windows), cfg);
  for (const auto& s : samples) {
    for (double v : s.alice_seq) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
    }
  }
}

TEST(Dataset, NormalizeWindowBounds) {
  const std::vector<double> raw{1.0, 2.0, 3.0, 4.0};
  const auto w = normalize_window(raw, 1, 3);
  EXPECT_DOUBLE_EQ(w[0], 0.0);
  EXPECT_DOUBLE_EQ(w[2], 1.0);
  EXPECT_THROW(normalize_window(raw, 2, 3), vkey::Error);
}

TEST(Dataset, MisalignedStreamsRejected) {
  ArRssiStreams st;
  st.alice = {1.0, 2.0};
  st.bob = {1.0};
  st.eve = {1.0, 2.0};
  EXPECT_THROW(make_samples(st, DatasetConfig{}), vkey::Error);
  st.bob = {1.0, 2.0};
  st.eve = {1.0};  // an Eve stream is either empty or aligned
  EXPECT_THROW(make_samples(st, DatasetConfig{}), vkey::Error);
}

TEST(Dataset, BobBitsComeFromBobStream) {
  // With identical streams, Alice's direct quantization of her window must
  // equal Bob's target bits (sanity link between quantizer and dataset).
  channel::TraceGenerator gen(trace_config());
  const auto rounds = gen.generate(80);
  DatasetConfig cfg;
  auto st = extract_streams(rounds, cfg.extractor, cfg.reciprocal_windows);
  st.alice = st.bob;  // force perfect reciprocity
  const auto samples = make_samples(st, cfg);
  QuantizerConfig qc = cfg.quantizer;
  qc.block_size = std::min<std::size_t>(qc.block_size, cfg.seq_len);
  MultiBitQuantizer q(qc);
  for (const auto& s : samples) {
    std::vector<double> alice_raw(s.alice_seq.begin(), s.alice_seq.end());
    EXPECT_EQ(q.quantize(alice_raw).bits, s.bob_bits);
  }
}

}  // namespace
}  // namespace vkey::core
