// Vehicle mobility processes.
//
// Key generation only cares about two aspects of the geometry: the
// Alice-Bob separation d(t) (drives path loss and shadowing decorrelation)
// and each endpoint's speed (drives the Doppler spread of small-scale
// fading). Both are modeled as smooth random processes: speeds are
// mean-reverting around the scenario speed, and the separation performs a
// bounded random walk driven by the relative radial speed, reflecting at
// [min_distance, max_distance] — matching the paper's "travel randomly, the
// distance varies from hundreds of meters to several kilometers".
#pragma once

#include "channel/scenario.h"
#include "common/rng.h"

namespace vkey::channel {

/// Mean-reverting (Ornstein-Uhlenbeck) speed process around a base speed.
class SpeedProcess {
 public:
  /// `base_kmh` target speed, `jitter_kmh` std-dev of variation,
  /// `tau_s` mean-reversion time constant.
  SpeedProcess(double base_kmh, double jitter_kmh, double tau_s,
               vkey::Rng rng);

  /// Advance to absolute time `t` (monotonically non-decreasing calls) and
  /// return the speed [m/s]. Speeds are clamped at >= 0.
  double at(double t);

 private:
  double base_mps_ = 0.0;
  double sigma_mps_ = 0.0;
  double tau_s_ = 0.0;
  double value_mps_ = 0.0;
  double last_t_ = 0.0;
  vkey::Rng rng_;
};

/// Mean-reverting (Ornstein-Uhlenbeck) Alice-Bob separation around the
/// scenario's nominal gap, clamped to [min_distance, max_distance].
class DistanceProcess {
 public:
  DistanceProcess(const ScenarioConfig& cfg, vkey::Rng rng);

  /// Advance to absolute time `t` (monotone) and return separation [m].
  double at(double t);

  /// Cumulative absolute distance travelled by the pair relative to the
  /// environment [m] — used as the spatial axis for shadowing decorrelation.
  double travelled() const { return travelled_m_; }

  /// Current relative radial speed [m/s] (rate of change of separation);
  /// drives the LOS Doppler of the link.
  double radial_speed() const { return radial_speed_mps_; }

 private:
  double max_m_ = 0.0;
  double nominal_m_ = 0.0;
  double sigma_m_ = 0.0;
  double tau_s_ = 0.0;
  double distance_m_ = 0.0;
  double radial_speed_mps_ = 0.0;
  double env_speed_mps_ = 0.0;  ///< ground speed vs the scatter environment
  double travelled_m_ = 0.0;
  double last_t_ = 0.0;
  vkey::Rng rng_;
};

}  // namespace vkey::channel
