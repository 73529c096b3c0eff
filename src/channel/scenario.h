// IoV scenario presets: the four environments of the paper's evaluation.
//
// V2V/V2I x urban/rural differ in path-loss exponent, shadowing strength and
// decorrelation distance, multipath richness (Rician K: rural drives have a
// LOS component, urban is NLOS/Rayleigh) and which endpoints move. These
// parameters are standard values from the vehicular channel-modeling
// literature the paper cites (Rayleigh fast fading [12], log-normal shadow
// fading [13]).
#pragma once

#include <cstdint>
#include <string>

namespace vkey::channel {

enum class ScenarioKind : std::uint8_t {
  kV2IUrban,
  kV2IRural,
  kV2VUrban,
  kV2VRural,
};

/// Human-readable name ("V2I-Urban", ...).
std::string to_string(ScenarioKind kind);

/// All four, in the paper's reporting order.
inline constexpr ScenarioKind kAllScenarios[] = {
    ScenarioKind::kV2IUrban, ScenarioKind::kV2IRural,
    ScenarioKind::kV2VUrban, ScenarioKind::kV2VRural};

// What every scenario shares.
/// Slow random speed variation amplitude [km/h].
inline constexpr double kSpeedJitterKmh = 5.0;
inline constexpr double kMinDistanceM = 100.0;  ///< closest separation [m]
/// PL at d0 = 1 m: free-space 20*log10(4*pi*d0/lambda) = 25.2 dB at
/// 434 MHz (lambda = 69.12 cm).
inline constexpr double kRefPathLossDb = 25.2;
inline constexpr int kSosRays = 24;  ///< sum-of-sinusoids rays per mobile end
/// Fraction of diffuse power in the fast component. Kept small: because
/// envelope-power correlation is the squared field correlation, even a
/// 10% fast-power share caps the reciprocal-window correlation near 0.8.
inline constexpr double kFastFadingWeight = 0.005;
/// Asymmetric interference power std-dev [dB] (differs per direction;
/// Sec. II-A item 4).
inline constexpr double kInterferenceAsymSigmaDb = 0.4;

struct ScenarioConfig {
  ScenarioKind kind = ScenarioKind::kV2VUrban;

  // --- mobility ---
  double speed_a_kmh = 50.0;  ///< Alice (always a vehicle)
  double speed_b_kmh = 50.0;  ///< Bob (0 for V2I infrastructure)
  double initial_distance_m = 800.0;
  double max_distance_m = 4000.0;
  /// The separation is mean-reverting around initial_distance_m (two
  /// vehicles holding a varying gap / a vehicle circling an RSU):
  /// stationary std-dev and relaxation time of the gap.
  double distance_sigma_m = 40.0;
  double distance_tau_s = 60.0;

  // --- large-scale propagation ---
  double path_loss_exponent = 3.2;
  double shadow_sigma_db = 6.0;     ///< log-normal shadowing std-dev
  double shadow_decorr_m = 30.0;    ///< Gudmundson decorrelation distance

  // --- small-scale propagation ---
  /// Rician K-factor [dB]; -infinity (use <= -40) means pure Rayleigh.
  double rician_k_db = -100.0;
  /// The diffuse field is split into a fast component at the geometric
  /// Doppler v/lambda (drives the packet-airtime decorrelation of Fig. 2)
  /// and a slow component from large, distant scatterers whose aspect angle
  /// changes much more slowly (effective Doppler = slow_doppler_scale *
  /// v/lambda). The slow component is link-specific — independent for any
  /// observer more than lambda/2 away — and carries the reciprocal entropy
  /// Vehicle-Key hashes into keys.
  double slow_doppler_scale = 0.005;

  bool is_v2v() const {
    return kind == ScenarioKind::kV2VUrban || kind == ScenarioKind::kV2VRural;
  }
  bool is_urban() const {
    return kind == ScenarioKind::kV2IUrban || kind == ScenarioKind::kV2VUrban;
  }
};

/// Preset for one of the four scenarios with the given vehicle speed
/// (applied to Alice, and to Bob too when V2V).
ScenarioConfig make_scenario(ScenarioKind kind, double speed_kmh = 50.0);

}  // namespace vkey::channel
