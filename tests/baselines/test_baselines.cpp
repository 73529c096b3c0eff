#include <gtest/gtest.h>

#include "baselines/baseline.h"
#include "common/error.h"
#include "channel/trace.h"

namespace vkey::baselines {
namespace {

std::vector<channel::ProbeRound> make_trace(std::size_t rounds,
                                            std::uint64_t seed = 77) {
  channel::TraceConfig cfg;
  cfg.scenario =
      channel::make_scenario(channel::ScenarioKind::kV2VUrban, 50.0);
  cfg.seed = seed;
  channel::TraceGenerator gen(cfg);
  return gen.generate(rounds);
}

double round_duration() {
  channel::TraceConfig cfg;
  cfg.scenario =
      channel::make_scenario(channel::ScenarioKind::kV2VUrban, 50.0);
  return channel::TraceGenerator(cfg).round_duration();
}

TEST(ExtractPrssi, OneValuePerRoundPerParty) {
  const auto rounds = make_trace(10);
  const auto s = extract_prssi(rounds);
  EXPECT_EQ(s.alice.size(), 10u);
  EXPECT_EQ(s.bob.size(), 10u);
}

TEST(LoRaKeyBaseline, ProducesReasonableMetrics) {
  const auto rounds = make_trace(400);
  const auto m = lora_key(rounds, round_duration());
  EXPECT_EQ(m.name, "LoRa-Key");
  EXPECT_GT(m.blocks, 0u);
  EXPECT_GT(m.mean_kar, 0.5);
  EXPECT_LE(m.mean_kar, 1.0);
  EXPECT_GT(m.kgr_bits_per_s, 0.0);
}

TEST(LoRaKeyBaseline, EmptyTraceRejected) {
  EXPECT_THROW(lora_key({}, 1.0), vkey::Error);
}

TEST(HanBaseline, ProducesReasonableMetrics) {
  const auto rounds = make_trace(400);
  const auto m = han_v2v(rounds, round_duration());
  EXPECT_EQ(m.name, "Han et al.");
  EXPECT_GT(m.blocks, 0u);
  // Cascade is interactive and strong, but the LoRa interaction budget
  // (200 parity messages per block) caps what it can fix.
  EXPECT_GT(m.mean_kar, 0.7);
}

TEST(HanBaseline, CascadeLeakageLowersNetRate) {
  // Han's KGR (net of parity leakage) must be below the gross quantized
  // bit rate of 256 bits per Cascade block.
  const auto rounds = make_trace(400);
  const auto m = han_v2v(rounds, round_duration());
  const double gross = static_cast<double>(m.blocks) * 256.0 /
                       (static_cast<double>(rounds.size()) * round_duration());
  EXPECT_LT(m.kgr_bits_per_s, gross);
}

TEST(GaoBaseline, ProducesReasonableMetrics) {
  const auto rounds = make_trace(600);
  const auto m = gao_model(rounds, round_duration());
  EXPECT_EQ(m.name, "Gao et al.");
  EXPECT_GT(m.blocks, 0u);
  EXPECT_GT(m.mean_kar, 0.5);
}

TEST(Baselines, AllUsePrssiSoKgrIsLow) {
  // The structural claim behind Fig. 13: one pRSSI per probe exchange caps
  // every baseline's KGR around (bits_per_block / block_rounds) /
  // round_duration — single-digit bits per second at most.
  const auto rounds = make_trace(500);
  const double dur = round_duration();
  for (double kgr : {lora_key(rounds, dur).kgr_bits_per_s,
                     han_v2v(rounds, dur).kgr_bits_per_s,
                     gao_model(rounds, dur).kgr_bits_per_s}) {
    EXPECT_LT(kgr, 1.0);
  }
}

// Exact scores on one fixed trace, each double to the last bit. They pin
// the paper settings (quantizer, block width, CS matrix and seeds, Cascade
// passes, Gao's interval and round budget), the order of every sum in the
// score fold, and Gao's block cap min(n, budget * 64): the 2100-round
// trace gives Gao 16 blocks, one more than the budget of 15 alone.
TEST(BaselineGolden, ScoresOnAFixedTrace) {
  channel::TraceConfig cfg;
  cfg.scenario =
      channel::make_scenario(channel::ScenarioKind::kV2IRural, 5.0);
  cfg.seed = 77;
  channel::TraceGenerator gen(cfg);
  const auto rounds = gen.generate(2100);
  const double dur = gen.round_duration();

  const BaselineMetrics lk = lora_key(rounds, dur);
  EXPECT_EQ(lk.blocks, 12u);
  EXPECT_EQ(lk.mean_kar, 0.74479166666666663);
  EXPECT_EQ(lk.std_kar, 0.066736173519768155);
  EXPECT_EQ(lk.key_success_rate, 0.0);
  EXPECT_EQ(lk.kgr_bits_per_s, 0.053806933961727178);

  const BaselineMetrics han = han_v2v(rounds, dur);
  EXPECT_EQ(han.blocks, 16u);
  EXPECT_EQ(han.mean_kar, 0.946044921875);
  EXPECT_EQ(han.std_kar, 0.027995170176704699);
  EXPECT_EQ(han.key_success_rate, 0.0625);
  EXPECT_EQ(han.kgr_bits_per_s, 0.11598165000888826);

  const BaselineMetrics gao = gao_model(rounds, dur);
  EXPECT_EQ(gao.blocks, 16u);
  EXPECT_EQ(gao.mean_kar, 0.7900390625);
  EXPECT_EQ(gao.std_kar, 0.1058154025369771);
  EXPECT_EQ(gao.key_success_rate, 0.0625);
  EXPECT_EQ(gao.kgr_bits_per_s, 0.076101065690624636);
}

}  // namespace
}  // namespace vkey::baselines
