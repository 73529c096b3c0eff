#include "channel/mobility.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.h"

namespace vkey::channel {
namespace {

TEST(SpeedProcess, StartsAtBaseSpeed) {
  SpeedProcess sp(50.0, 5.0, 30.0, vkey::Rng(1));
  EXPECT_NEAR(sp.at(0.0), 50.0 / 3.6, 1e-9);
}

TEST(SpeedProcess, StaysNearBaseSpeed) {
  SpeedProcess sp(50.0, 5.0, 30.0, vkey::Rng(2));
  double sum = 0.0;
  const int n = 2000;
  for (int i = 1; i <= n; ++i) sum += sp.at(i * 0.5);
  const double mean_kmh = sum / n * 3.6;
  EXPECT_NEAR(mean_kmh, 50.0, 5.0);
}

TEST(SpeedProcess, NeverNegative) {
  SpeedProcess sp(3.0, 10.0, 5.0, vkey::Rng(3));
  for (int i = 1; i <= 1000; ++i) EXPECT_GE(sp.at(i * 0.1), 0.0);
}

TEST(SpeedProcess, ZeroJitterIsConstant) {
  SpeedProcess sp(60.0, 0.0, 30.0, vkey::Rng(4));
  for (int i = 1; i <= 10; ++i) {
    EXPECT_DOUBLE_EQ(sp.at(i * 1.0), 60.0 / 3.6);
  }
}

TEST(SpeedProcess, RejectsBackwardTime) {
  SpeedProcess sp(50.0, 5.0, 30.0, vkey::Rng(5));
  sp.at(10.0);
  EXPECT_THROW(sp.at(5.0), vkey::Error);
}

TEST(DistanceProcess, StartsAtInitialDistance) {
  const ScenarioConfig cfg = make_scenario(ScenarioKind::kV2VUrban, 50.0);
  DistanceProcess dp(cfg, vkey::Rng(1));
  EXPECT_NEAR(dp.at(0.0), cfg.initial_distance_m, 1e-9);
}

TEST(DistanceProcess, StaysWithinBounds) {
  const ScenarioConfig cfg = make_scenario(ScenarioKind::kV2VUrban, 50.0);
  DistanceProcess dp(cfg, vkey::Rng(2));
  for (int i = 1; i <= 20000; ++i) {
    const double d = dp.at(i * 0.1);
    EXPECT_GE(d, kMinDistanceM);
    EXPECT_LE(d, cfg.max_distance_m);
  }
}

TEST(DistanceProcess, MeanRevertsToNominal) {
  const ScenarioConfig cfg = make_scenario(ScenarioKind::kV2VUrban, 50.0);
  DistanceProcess dp(cfg, vkey::Rng(3));
  double sum = 0.0;
  const int n = 50000;
  for (int i = 1; i <= n; ++i) sum += dp.at(i * 0.1);
  EXPECT_NEAR(sum / n, cfg.initial_distance_m, cfg.distance_sigma_m * 3.0);
}

TEST(DistanceProcess, RadialSpeedIsPhysicallyBounded) {
  const ScenarioConfig cfg = make_scenario(ScenarioKind::kV2VUrban, 50.0);
  DistanceProcess dp(cfg, vkey::Rng(4));
  for (int i = 1; i <= 10000; ++i) {
    dp.at(i * 0.03);
    // Radial speed must stay well below highway speeds — this is what keeps
    // the LOS Doppler sane.
    EXPECT_LT(std::fabs(dp.radial_speed()), 15.0);
  }
}

TEST(DistanceProcess, TravelledAccumulates) {
  const ScenarioConfig cfg = make_scenario(ScenarioKind::kV2VUrban, 50.0);
  DistanceProcess dp(cfg, vkey::Rng(5));
  dp.at(10.0);
  const double t10 = dp.travelled();
  dp.at(20.0);
  EXPECT_GT(dp.travelled(), t10);
  // Average ground speed ~ 50 km/h = 13.9 m/s for both vehicles.
  EXPECT_NEAR(dp.travelled(), 20.0 * 50.0 / 3.6, 1.0);
}

TEST(DistanceProcess, V2IEnvironmentSpeedIsHalved) {
  // For V2I only Alice moves; the pair's environment speed is the average.
  const ScenarioConfig cfg = make_scenario(ScenarioKind::kV2IUrban, 50.0);
  DistanceProcess dp(cfg, vkey::Rng(6));
  dp.at(10.0);
  EXPECT_NEAR(dp.travelled(), 10.0 * 25.0 / 3.6, 0.5);
}

}  // namespace
}  // namespace vkey::channel
