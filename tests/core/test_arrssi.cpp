#include "core/arrssi.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vkey::core {
namespace {

channel::PacketObservation make_obs(std::vector<double> rssi) {
  channel::PacketObservation obs;
  obs.rrssi = std::move(rssi);
  return obs;
}

TEST(ArRssi, WindowFractionValidated) {
  EXPECT_THROW(ArRssiExtractor(0.0), vkey::Error);
  EXPECT_THROW(ArRssiExtractor(1.5), vkey::Error);
  EXPECT_NO_THROW(ArRssiExtractor(1.0));
}

TEST(ArRssi, WindowLenRoundsAndClamps) {
  ArRssiExtractor ex(0.10);
  EXPECT_EQ(ex.window_len(52), 5u);
  EXPECT_EQ(ex.window_len(5), 1u);   // never zero
  EXPECT_EQ(ex.window_len(100), 10u);
}

TEST(ArRssi, SequenceIsNonOverlappingMeans) {
  ArRssiExtractor ex(0.5);  // window of 2 on 4 samples
  const auto seq = ex.sequence(make_obs({1.0, 3.0, 5.0, 7.0}).rrssi);
  ASSERT_EQ(seq.size(), 2u);
  EXPECT_DOUBLE_EQ(seq[0], 2.0);
  EXPECT_DOUBLE_EQ(seq[1], 6.0);
}

TEST(ArRssi, SequenceDropsPartialTail) {
  ArRssiExtractor ex(0.4);  // window of 2 on 5 samples -> 2 windows
  const auto seq = ex.sequence(make_obs({1.0, 1.0, 2.0, 2.0, 9.0}).rrssi);
  EXPECT_EQ(seq.size(), 2u);
}

TEST(ArRssi, ValuesPerPacket) {
  ArRssiExtractor ex(0.10);
  EXPECT_EQ(ex.values_per_packet(52), 10u);
  EXPECT_EQ(ex.values_per_packet(10), 10u);  // window 1
}

TEST(ArRssi, BoundaryPairUsesAdjacentWindows) {
  ArRssiExtractor ex(0.25);  // window of 2 on 8 samples
  channel::ProbeRound round;
  round.bob_rx = make_obs({1, 1, 1, 1, 1, 1, 10.0, 20.0});   // tail = 15
  round.alice_rx = make_obs({30.0, 40.0, 1, 1, 1, 1, 1, 1}); // head = 35
  round.eve_rx_bob_tx.rrssi = {50.0, 60.0, 1, 1, 1, 1, 1, 1};
  const auto bp = ex.boundary_pair(round);
  EXPECT_DOUBLE_EQ(bp.bob_arrssi, 15.0);
  EXPECT_DOUBLE_EQ(bp.alice_arrssi, 35.0);
  EXPECT_DOUBLE_EQ(ex.eve_boundary(round), 55.0);
}

TEST(ArRssi, EmptyObservationRejected) {
  ArRssiExtractor ex(0.1);
  EXPECT_THROW(ex.sequence(make_obs({}).rrssi), vkey::Error);
  channel::ProbeRound round;
  EXPECT_THROW(ex.boundary_pair(round), vkey::Error);
}

TEST(ArRssi, FullWindowEqualsPrssi) {
  ArRssiExtractor ex(1.0);
  const auto obs = make_obs({-80.0, -82.0, -78.0, -90.0});
  const auto seq = ex.sequence(obs.rrssi);
  ASSERT_EQ(seq.size(), 1u);
  EXPECT_DOUBLE_EQ(seq[0], obs.prssi());
}

// Averaging property: wider windows reduce sample noise variance.
TEST(ArRssi, WiderWindowSmoothsNoise) {
  vkey::Rng rng(3);
  std::vector<double> noisy(1000);
  for (auto& v : noisy) v = rng.gaussian(-80.0, 3.0);
  ArRssiExtractor narrow(0.001);  // window 1
  ArRssiExtractor wide(0.02);     // window 20
  const auto sn = narrow.sequence(noisy);
  const auto sw = wide.sequence(noisy);
  auto var = [](const std::vector<double>& x) {
    double m = 0.0, s = 0.0;
    for (double v : x) m += v;
    m /= static_cast<double>(x.size());
    for (double v : x) s += (v - m) * (v - m);
    return s / static_cast<double>(x.size());
  };
  EXPECT_LT(var(sw), var(sn) / 4.0);
}

}  // namespace
}  // namespace vkey::core
