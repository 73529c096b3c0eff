#include "channel/trace.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/stats.h"
#include "core/arrssi.h"

namespace vkey::channel {
namespace {

TraceConfig default_config(ScenarioKind kind = ScenarioKind::kV2VUrban,
                           double speed = 50.0, std::uint64_t seed = 42) {
  TraceConfig cfg;
  cfg.scenario = make_scenario(kind, speed);
  cfg.seed = seed;
  return cfg;
}

/// default_config() with Eve placed, for the tests that read her.
TraceConfig eve_config() {
  TraceConfig cfg = default_config();
  cfg.device_eve = dragino_lora_shield();
  return cfg;
}

TEST(TraceGenerator, RoundHasAllObservations) {
  TraceGenerator gen(eve_config());
  const ProbeRound round = gen.next_round();
  const auto n = static_cast<std::size_t>(gen.phy().rssi_samples_per_packet());
  EXPECT_EQ(round.bob_rx.rrssi.size(), n);
  EXPECT_EQ(round.alice_rx.rrssi.size(), n);
  EXPECT_EQ(round.eve_rx_alice_tx.rrssi.size(), n);
  EXPECT_EQ(round.eve_rx_bob_tx.rrssi.size(), n);
}

TEST(TraceGenerator, EveNeverMovesTheLegitimateLink) {
  // Eve observes, she does not perturb: an Eve who is not simulated still
  // makes her draws from the streams she shares with Alice and Bob, so
  // every legitimate sample, timestamp and distance is bit-identical with
  // or without her.
  for (const ScenarioKind kind :
       {ScenarioKind::kV2IUrban, ScenarioKind::kV2IRural,
        ScenarioKind::kV2VUrban, ScenarioKind::kV2VRural}) {
    for (const int sf : {7, 12}) {
      for (const std::uint64_t seed : {3u, 17u}) {
        TraceConfig without = default_config(kind, 50.0, seed);
        without.phy.spreading_factor = sf;
        TraceConfig with = without;
        with.device_eve = dragino_lora_shield();
        ASSERT_FALSE(without.device_eve.has_value());
        const auto a = TraceGenerator(with).generate(64);
        const auto b = TraceGenerator(without).generate(64);
        for (std::size_t r = 0; r < a.size(); ++r) {
          SCOPED_TRACE(to_string(kind) + " SF" + std::to_string(sf) +
                       " seed " + std::to_string(seed) + " round " +
                       std::to_string(r));
          for (const auto obs : {&ProbeRound::alice_rx, &ProbeRound::bob_rx}) {
            const PacketObservation& x = a[r].*obs;
            const PacketObservation& y = b[r].*obs;
            EXPECT_EQ(x.rrssi, y.rrssi);
            EXPECT_EQ(x.t_start, y.t_start);
            EXPECT_EQ(x.t_end, y.t_end);
          }
          EXPECT_EQ(a[r].distance_m, b[r].distance_m);
          EXPECT_EQ(a[r].t_round_start, b[r].t_round_start);
          EXPECT_FALSE(a[r].eve_rx_bob_tx.rrssi.empty());
          EXPECT_TRUE(b[r].eve_rx_alice_tx.rrssi.empty());
          EXPECT_TRUE(b[r].eve_rx_bob_tx.rrssi.empty());
        }
      }
    }
  }
}

TEST(TraceGenerator, TimelineIsOrdered) {
  TraceGenerator gen(default_config());
  const ProbeRound r1 = gen.next_round();
  // Bob receives the probe before Alice receives the response.
  EXPECT_LT(r1.bob_rx.t_start, r1.alice_rx.t_start);
  EXPECT_LE(r1.bob_rx.t_end, r1.alice_rx.t_start);
  const ProbeRound r2 = gen.next_round();
  EXPECT_GT(r2.t_round_start, r1.t_round_start);
}

TEST(TraceGenerator, DeterministicForSameSeed) {
  TraceGenerator a(default_config()), b(default_config());
  const auto ra = a.generate(5);
  const auto rb = b.generate(5);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(ra[i].bob_rx.rrssi, rb[i].bob_rx.rrssi);
    EXPECT_EQ(ra[i].alice_rx.rrssi, rb[i].alice_rx.rrssi);
  }
}

TEST(TraceGenerator, DifferentSeedsDiffer) {
  TraceGenerator a(default_config(ScenarioKind::kV2VUrban, 50.0, 1));
  TraceGenerator b(default_config(ScenarioKind::kV2VUrban, 50.0, 2));
  EXPECT_NE(a.next_round().bob_rx.rrssi, b.next_round().bob_rx.rrssi);
}

TEST(TraceGenerator, RssiInPlausibleRange) {
  TraceGenerator gen(default_config());
  for (const auto& round : gen.generate(20)) {
    for (double v : round.bob_rx.rrssi) {
      EXPECT_GT(v, -137.0);
      EXPECT_LT(v, -20.0);
    }
  }
}

TEST(TraceGenerator, PrssiIsMeanOfRegisters) {
  TraceGenerator gen(default_config());
  const auto round = gen.next_round();
  EXPECT_NEAR(round.bob_rx.prssi(),
              vkey::stats::mean(round.bob_rx.rrssi), 1e-12);
}

TEST(TraceGenerator, RoundDurationCoversTwoAirtimes) {
  TraceGenerator gen(default_config());
  EXPECT_GT(gen.round_duration(), 2.0 * gen.phy().airtime());
}

TEST(TraceGenerator, CoherenceTimeShrinksWithSpeed) {
  TraceGenerator slow(default_config(ScenarioKind::kV2VUrban, 20.0));
  TraceGenerator fast(default_config(ScenarioKind::kV2VUrban, 80.0));
  EXPECT_GT(slow.coherence_time_s(), fast.coherence_time_s());
}

// --- the paper's central channel phenomena, as properties ---

TEST(TraceProperties, BoundaryArRssiBeatsPacketRssi) {
  // Fig. 3: the coherence-adjacent arRSSI correlates much better between
  // the parties than the packet average does.
  TraceGenerator gen(default_config());
  const auto rounds = gen.generate(250);
  std::vector<double> pa, pb, aa, ab;
  const core::ArRssiExtractor ex(0.10);
  for (const auto& r : rounds) {
    pa.push_back(r.alice_rx.prssi());
    pb.push_back(r.bob_rx.prssi());
    const auto bp = ex.boundary_pair(r);
    aa.push_back(bp.alice_arrssi);
    ab.push_back(bp.bob_arrssi);
  }
  const double prssi_corr = vkey::stats::pearson(pa, pb);
  const double arrssi_corr = vkey::stats::pearson(aa, ab);
  EXPECT_GT(arrssi_corr, prssi_corr + 0.15);
  EXPECT_GT(arrssi_corr, 0.85);
}

TEST(TraceProperties, CorrelationDropsWithSpeed) {
  // Fig. 2(b).
  auto corr_at = [](double speed) {
    TraceGenerator gen(default_config(ScenarioKind::kV2VUrban, speed, 9));
    std::vector<double> a, b;
    for (const auto& r : gen.generate(220)) {
      a.push_back(r.alice_rx.prssi());
      b.push_back(r.bob_rx.prssi());
    }
    return vkey::stats::pearson(a, b);
  };
  EXPECT_GT(corr_at(10.0), corr_at(80.0) + 0.2);
}

TEST(TraceProperties, CorrelationDropsWithAirtime) {
  // Fig. 2(a): lower data rate -> longer airtime -> lower correlation.
  auto corr_for = [](double bitrate) {
    TraceConfig cfg = default_config(ScenarioKind::kV2VUrban, 50.0, 11);
    cfg.phy = LoRaPhy::params_for_bitrate(bitrate);
    TraceGenerator gen(cfg);
    std::vector<double> a, b;
    for (const auto& r : gen.generate(220)) {
      a.push_back(r.alice_rx.prssi());
      b.push_back(r.bob_rx.prssi());
    }
    return vkey::stats::pearson(a, b);
  };
  EXPECT_GT(corr_for(1172.0), corr_for(92.0) + 0.3);
}

TEST(TraceProperties, EveBoundaryDecorrelated) {
  // Eve is > lambda/2 from both parties: her small-scale fading is
  // independent, so her boundary arRSSI barely correlates with Alice's.
  TraceGenerator gen(eve_config());
  const auto rounds = gen.generate(250);
  std::vector<double> aa, ae;
  const core::ArRssiExtractor ex(0.10);
  for (const auto& r : rounds) {
    aa.push_back(ex.boundary_pair(r).alice_arrssi);
    ae.push_back(ex.eve_boundary(r));
  }
  EXPECT_LT(vkey::stats::pearson(aa, ae), 0.5);
}

TEST(TraceProperties, DistanceReportedPerRound) {
  TraceGenerator gen(default_config());
  const auto r = gen.next_round();
  EXPECT_GT(r.distance_m, 0.0);
}

TEST(TraceGenerator, V2IStaticEndpointWorks) {
  // Bob is an infrastructure node (speed 0): the trace must still be valid
  // and reciprocal, with fading driven by Alice's motion alone.
  TraceGenerator gen(default_config(ScenarioKind::kV2IUrban));
  const auto rounds = gen.generate(60);
  std::vector<double> aa, ab;
  const core::ArRssiExtractor ex(0.10);
  for (const auto& r : rounds) {
    const auto bp = ex.boundary_pair(r);
    aa.push_back(bp.alice_arrssi);
    ab.push_back(bp.bob_arrssi);
  }
  EXPECT_GT(vkey::stats::pearson(aa, ab), 0.8);
}

TEST(TraceProperties, EveObservationsDifferFromBobs) {
  // Even though Eve overhears the very same transmissions, her register
  // readings go through her own link and never equal Bob's.
  TraceGenerator gen(eve_config());
  const auto round = gen.next_round();
  EXPECT_NE(round.eve_rx_alice_tx.rrssi, round.bob_rx.rrssi);
  EXPECT_NE(round.eve_rx_bob_tx.rrssi, round.alice_rx.rrssi);
}

TEST(TraceProperties, RuralPrssiCorrelatesMoreThanUrban) {
  // Fig. 3's environment ordering: LOS-rich rural links keep more packet-
  // level correlation than urban NLOS links.
  auto corr_of = [](ScenarioKind kind) {
    TraceGenerator gen(default_config(kind, 50.0, 77));
    std::vector<double> a, b;
    for (const auto& r : gen.generate(220)) {
      a.push_back(r.alice_rx.prssi());
      b.push_back(r.bob_rx.prssi());
    }
    return vkey::stats::pearson(a, b);
  };
  EXPECT_GT(corr_of(ScenarioKind::kV2IRural),
            corr_of(ScenarioKind::kV2IUrban) - 0.05);
}

}  // namespace
}  // namespace vkey::channel
