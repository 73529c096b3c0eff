#include "channel/mobility.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace vkey::channel {

SpeedProcess::SpeedProcess(double base_kmh, double jitter_kmh, double tau_s,
                           vkey::Rng rng)
    : base_mps_(base_kmh / 3.6),
      sigma_mps_(jitter_kmh / 3.6),
      tau_s_(tau_s),
      value_mps_(base_kmh / 3.6),
      rng_(rng) {
  VKEY_REQUIRE(base_kmh >= 0.0, "speed must be non-negative");
  VKEY_REQUIRE(tau_s > 0.0, "tau must be positive");
}

double SpeedProcess::at(double t) {
  VKEY_REQUIRE(t >= last_t_, "SpeedProcess sampled backwards in time");
  const double dt = t - last_t_;
  last_t_ = t;
  if (dt > 0.0 && sigma_mps_ > 0.0) {
    const double rho = std::exp(-dt / tau_s_);
    value_mps_ = base_mps_ + rho * (value_mps_ - base_mps_) +
                 std::sqrt(std::max(0.0, 1.0 - rho * rho)) * sigma_mps_ *
                     rng_.gaussian();
  }
  return std::max(0.0, value_mps_);
}

DistanceProcess::DistanceProcess(const ScenarioConfig& cfg, vkey::Rng rng)
    : max_m_(cfg.max_distance_m),
      nominal_m_(cfg.initial_distance_m),
      sigma_m_(cfg.distance_sigma_m),
      tau_s_(cfg.distance_tau_s),
      distance_m_(cfg.initial_distance_m),
      env_speed_mps_((cfg.speed_a_kmh + cfg.speed_b_kmh) / 3.6 / 2.0),
      rng_(rng) {
  VKEY_REQUIRE(max_m_ > kMinDistanceM, "bad distance bounds");
  VKEY_REQUIRE(distance_m_ >= kMinDistanceM && distance_m_ <= max_m_,
               "initial distance outside bounds");
  VKEY_REQUIRE(sigma_m_ >= 0.0 && tau_s_ > 0.0, "bad OU parameters");
}

double DistanceProcess::at(double t) {
  VKEY_REQUIRE(t >= last_t_, "DistanceProcess sampled backwards in time");
  const double dt = t - last_t_;
  last_t_ = t;
  if (dt <= 0.0) return distance_m_;

  // Smooth second-order gap dynamics: the radial speed is a mean-reverting
  // process (so the instantaneous Doppler is physically bounded and
  // continuous) with a weak spring pulling the gap back to its nominal
  // value. A direct OU step on the position would give the gap a
  // white-noise derivative — an unbounded instantaneous radial speed that
  // would wreck the LOS Doppler.
  if (sigma_m_ > 0.0) {
    constexpr double kSpeedTau = 20.0;  // radial-speed relaxation [s]
    // Stationary radial-speed std chosen so the gap wanders with roughly
    // the configured distance_sigma over its relaxation time.
    const double v_sigma = sigma_m_ / tau_s_ * 2.0;
    const double rho = std::exp(-dt / kSpeedTau);
    radial_speed_mps_ = rho * radial_speed_mps_ +
                        std::sqrt(std::max(0.0, 1.0 - rho * rho)) * v_sigma *
                            rng_.gaussian();
    // Weak spring toward the nominal gap.
    radial_speed_mps_ -= (distance_m_ - nominal_m_) / (tau_s_ * tau_s_) * dt;
    distance_m_ += radial_speed_mps_ * dt;
  }
  if (distance_m_ < kMinDistanceM || distance_m_ > max_m_) {
    distance_m_ = std::clamp(distance_m_, kMinDistanceM, max_m_);
    radial_speed_mps_ = -radial_speed_mps_;  // bounce off the bound
  }

  travelled_m_ += env_speed_mps_ * dt;
  return distance_m_;
}

}  // namespace vkey::channel
