// Radio propagation building blocks: path loss, correlated log-normal
// shadowing and small-scale (Rayleigh/Rician) fading with Doppler.
//
// Design notes
// ------------
// * Reciprocity is modeled by construction: there is ONE fading state per
//   link, and both directions sample it. Non-reciprocity in the *measurements*
//   then comes only from the paper's four causes (Sec. II-A): sampling-time
//   offset, hardware imperfection, additive noise and asymmetric interference
//   — the first being dominant for LoRa, exactly as the paper argues.
// * Small-scale fading uses phase-accumulating sum-of-sinusoids rings (Jakes
//   spectrum). A V2V link multiplies two rings (double-mobility /
//   double-Rayleigh model), so fading is faster when both ends move — this is
//   what makes V2V key-generation rates exceed V2I in Fig. 12/13.
// * Shadowing follows Gudmundson's exponentially-correlated model over the
//   distance travelled. Eve's shadowing can be built correlated with the
//   legitimate link's (she follows Alice's route and sees similar large-scale
//   effects, Fig. 16) while her small-scale fading is independent (> lambda/2
//   separation).
#pragma once

#include <complex>

#include "channel/scenario.h"
#include "common/rng.h"
#include "common/small_buffer.h"

namespace vkey::channel {

/// Free-space/log-distance path loss [dB] at distance d >= 1 m.
double path_loss_db(double distance_m, double exponent, double ref_loss_db);

/// Phase-accumulating sum-of-sinusoids diffuse scatter ring.
///
/// g(t) = (1/sqrt(R)) * sum_r exp(j * phi_r(t)),
/// phi_r advanced by 2*pi*fd*cos(alpha_r)*dt per step, supporting
/// time-varying Doppler fd (vehicle speeds change along the trace). The
/// simulator's kSosRays rays live inside the ring; more take a heap block.
class SumOfSinusoidsRing {
 public:
  SumOfSinusoidsRing(int rays, vkey::Rng& rng);

  /// Advance all ray phases by `dt` seconds under max Doppler `doppler_hz`
  /// and return the complex gain. For a static endpoint pass doppler 0:
  /// the ring freezes (its gain is a constant unit-power complex number).
  std::complex<double> advance(double dt, double doppler_hz);

  /// Current gain without advancing.
  std::complex<double> current() const;

 private:
  SmallBuffer<double, kSosRays> cos_alpha_;
  SmallBuffer<double, kSosRays> phase_;
};

/// Small-scale complex gain for one link.
///
/// The diffuse field is a two-timescale mixture: a *fast* component at the
/// geometric Doppler (nearby scatterers — this is what decorrelates packet
/// RSSI over LoRa's long airtime, Sec. II-A) and a *slow* component from
/// large distant scatterers whose aspect angle drifts far more slowly
/// (effective Doppler scaled down by `slow_scale`). Each component is a
/// product of two endpoint rings (double-mobility model), so fading speeds
/// up when both ends move. An optional LOS path with Rician factor K is
/// added on top. Every component is link-specific: an observer more than
/// lambda/2 away sees independent realizations of all of them.
struct SmallScaleConfig {
  int rays = 24;
  double rician_k_db = -100.0;  ///< <= -40 selects pure Rayleigh
  double slow_scale = 0.05;     ///< slow-component Doppler scale
  double fast_weight = 0.25;    ///< diffuse power fraction in fast component
};

class SmallScaleFading {
 public:
  SmallScaleFading(const SmallScaleConfig& config, vkey::Rng rng);

  /// Advance by dt under the two endpoint Dopplers (fd = v/c * f0) and the
  /// LOS Doppler (relative radial speed), returning the envelope gain [dB].
  double advance_db(double dt, double fd_a_hz, double fd_b_hz,
                    double fd_los_hz);

 private:
  std::complex<double> diffuse(double dt, double fd_a_hz, double fd_b_hz);

  SmallScaleConfig cfg_;
  SumOfSinusoidsRing fast_a_;
  SumOfSinusoidsRing fast_b_;
  SumOfSinusoidsRing slow_a_;
  SumOfSinusoidsRing slow_b_;
  double k_linear_ = 0.0;  ///< Rician K (linear); 0 for Rayleigh
  double los_phase_ = 0.0;
  vkey::Rng rng_;
};

/// Gudmundson spatially-correlated log-normal shadowing.
///
/// S is a zero-mean Gaussian [dB] with autocorrelation
/// E[S(p)S(p+d)] = sigma^2 * exp(-|d|/decorr).
class ShadowingProcess {
 public:
  ShadowingProcess(double sigma_db, double decorr_m, vkey::Rng rng);

  /// Advance the position by `delta_pos_m` >= 0 metres and return S [dB].
  double advance(double delta_pos_m);

 private:
  double sigma_db_ = 0.0;
  double decorr_m_ = 0.0;
  double value_db_ = 0.0;
  vkey::Rng rng_;
};

/// A shadowing process correlated with a reference one:
/// S_out = rho * S_ref + sqrt(1-rho^2) * S_own. Used for Eve, who follows
/// Alice's route (highly correlated large-scale, Fig. 16) without sharing the
/// small-scale channel.
class CorrelatedShadowing {
 public:
  /// `rho` in [0,1]: spatial correlation with the reference link.
  CorrelatedShadowing(double rho, double sigma_db, double decorr_m,
                      vkey::Rng rng);

  /// Advance own component and combine with the reference link's current
  /// shadowing value (already advanced by the caller).
  double advance(double delta_pos_m, double reference_value_db);

 private:
  double rho_ = 0.0;
  ShadowingProcess own_;
};

}  // namespace vkey::channel
