#include "channel/trace.h"

#include <algorithm>
#include <cmath>
#include <optional>

namespace vkey::channel {

namespace {
constexpr double kSpeedOfLight = 299792458.0;
/// Idle gap between the end of one exchange and the next probe [s].
constexpr double kProbeIntervalS = 0.05;

/// Quantize an RSSI reading to the register step and clamp to the SX127x
/// reporting range.
double quantize_rssi(double rssi_dbm, double step_db) {
  const double q = std::round(rssi_dbm / step_db) * step_db;
  return std::clamp(q, -137.0, 0.0);
}

/// One link's small-scale fading configuration under scenario `s`.
SmallScaleConfig small_scale(const ScenarioConfig& s) {
  return SmallScaleConfig{kSosRays, s.rician_k_db, s.slow_doppler_scale,
                          kFastFadingWeight};
}
}  // namespace

struct TraceGenerator::Impl {
  /// Eve's links, built only when the config places her. Each process runs
  /// on a stream of its own, so leaving them out moves no other sample.
  struct Eve {
    SmallScaleFading fade_ea;  // Eve-Alice channel
    SmallScaleFading fade_eb;  // Eve-Bob channel
    CorrelatedShadowing shadow_ea;
    CorrelatedShadowing shadow_eb;
    double last_fade_t_ea = 0.0;
    double last_fade_t_eb = 0.0;
  };

  TraceConfig cfg;
  LoRaPhy phy;

  SpeedProcess speed_a;
  SpeedProcess speed_b;
  DistanceProcess distance;

  SmallScaleFading fade_ab;   // the reciprocal Alice-Bob channel
  ShadowingProcess shadow_ab;
  std::optional<Eve> eve;

  // Per-receiver slowly-varying interference offsets (asymmetric between
  // directions: Sec. II-A cause 4).
  double interf_alice = 0.0;
  double interf_bob = 0.0;
  double interf_eve = 0.0;

  // Fixed per-unit hardware gain offsets (cause 2).
  double hw_alice;
  double hw_bob;
  double hw_eve;

  vkey::Rng rng_noise;
  vkey::Rng rng_interf;

  double now = 0.0;
  double last_fade_t_ab = 0.0;
  double last_shadow_pos = 0.0;

  explicit Impl(const TraceConfig& c)
      : cfg(c),
        phy(c.phy),
        speed_a(c.scenario.speed_a_kmh, kSpeedJitterKmh, 30.0,
                vkey::Rng(vkey::hash_combine64(c.seed, 0x01))),
        speed_b(c.scenario.speed_b_kmh,
                c.scenario.speed_b_kmh > 0 ? kSpeedJitterKmh : 0.0, 30.0,
                vkey::Rng(vkey::hash_combine64(c.seed, 0x02))),
        distance(c.scenario, vkey::Rng(vkey::hash_combine64(c.seed, 0x03))),
        fade_ab(small_scale(c.scenario),
                vkey::Rng(vkey::hash_combine64(c.seed, 0x04))),
        shadow_ab(c.scenario.shadow_sigma_db, c.scenario.shadow_decorr_m,
                  vkey::Rng(vkey::hash_combine64(c.seed, 0x07))),
        rng_noise(vkey::hash_combine64(c.seed, 0x0a)),
        rng_interf(vkey::hash_combine64(c.seed, 0x0b)) {
    if (c.device_eve) {
      const double rho = std::exp(-kEveOffsetM / c.scenario.shadow_decorr_m);
      eve.emplace(Eve{
          SmallScaleFading(small_scale(c.scenario),
                           vkey::Rng(vkey::hash_combine64(c.seed, 0x05))),
          SmallScaleFading(small_scale(c.scenario),
                           vkey::Rng(vkey::hash_combine64(c.seed, 0x06))),
          CorrelatedShadowing(rho, c.scenario.shadow_sigma_db,
                              c.scenario.shadow_decorr_m,
                              vkey::Rng(vkey::hash_combine64(c.seed, 0x08))),
          CorrelatedShadowing(rho, c.scenario.shadow_sigma_db,
                              c.scenario.shadow_decorr_m,
                              vkey::Rng(vkey::hash_combine64(c.seed, 0x09)))});
    }
    vkey::Rng hw_rng(vkey::hash_combine64(c.seed, 0x0c));
    hw_alice = hw_rng.gaussian(0.0, c.device_alice.gain_offset_sigma_db);
    hw_bob = hw_rng.gaussian(0.0, c.device_bob.gain_offset_sigma_db);
    // Drawn with or without Eve, like all her shared-stream draws.
    hw_eve = hw_rng.gaussian(
        0.0, c.device_eve ? c.device_eve->gain_offset_sigma_db : 0.0);
  }

  double doppler_hz(double speed_mps) const {
    return speed_mps / kSpeedOfLight * cfg.phy.carrier_hz;
  }

  /// Advance the slowly varying interference offsets once per round.
  void advance_interference() {
    constexpr double kRho = 0.9;  // round-to-round correlation
    const double w = std::sqrt(1.0 - kRho * kRho) * kInterferenceAsymSigmaDb;
    interf_alice = kRho * interf_alice + w * rng_interf.gaussian();
    interf_bob = kRho * interf_bob + w * rng_interf.gaussian();
    interf_eve = kRho * interf_eve + w * rng_interf.gaussian();
  }

  /// One receiver of a transmission window and its per-packet state.
  template <typename Obs>
  struct Listener {
    const DeviceModel* dev;  ///< nullptr: Eve, not simulated
    double offset_db;  ///< rx hardware gain offset + current interference
    Obs* out;
    double drift_db = 0.0;  ///< per-packet receiver gain drift
    double floor_mw = 0.0;  ///< noise-floor power, once per packet
  };

  /// Start `l`'s reception of a window at `t0`. Draws its per-packet gain
  /// drift (see DeviceModel::gain_drift_db_per_s15) — an Eve who is not
  /// simulated still makes the draw, and nothing else.
  template <typename Obs>
  void open(Listener<Obs>& l, double t0, int n_sym) {
    if (l.dev == nullptr) {
      (void)rng_noise.gaussian();
      return;
    }
    l.out->t_start = t0;
    l.out->t_end = t0 + phy.airtime();
    l.out->rrssi.clear();
    l.out->rrssi.reserve(static_cast<std::size_t>(n_sym));
    l.drift_db = rng_noise.gaussian(
        0.0, l.dev->gain_drift_db_per_s15 * std::pow(phy.airtime(), 1.5));
    l.floor_mw = std::pow(10.0, l.dev->noise_floor_dbm / 10.0);
  }

  /// Latch one register sample of `l` for a channel gain of `gain_db`.
  template <typename Obs>
  void latch(const Listener<Obs>& l, double tx_power_dbm, double gain_db) {
    const double noise = rng_noise.gaussian(0.0, l.dev->rssi_noise_sigma_db);
    const double rssi_signal = tx_power_dbm + gain_db + noise + l.offset_db;
    // The register reports signal + thermal floor power: deep fades are
    // soft-clamped at the receiver noise floor.
    const double rssi =
        10.0 * std::log10(std::pow(10.0, rssi_signal / 10.0) + l.floor_mw);
    l.out->rrssi.push_back(quantize_rssi(rssi, l.dev->rssi_quant_step_db));
  }

  /// Sample one transmission window of `n_sym` symbols starting at `t0`:
  /// the legitimate receiver over the reciprocal link, and Eve (`ev`) over
  /// her link to the transmitter (Eve-Alice when `alice_tx`, else
  /// Eve-Bob). Geometry (speeds, separation, shadowing position) advances
  /// exactly once per symbol instant; each link's fading process advances
  /// by its own elapsed time, so the same window is observed through
  /// statistically distinct links.
  void transmit_phase(double t0, double tx_power_dbm,
                      Listener<PacketObservation> legit,
                      Listener<EveObservation> ev, bool alice_tx) {
    const int n_sym = phy.rssi_samples_per_packet();
    const double tsym = phy.symbol_time();
    open(legit, t0, n_sym);
    open(ev, t0, n_sym);

    for (int i = 0; i < n_sym; ++i) {
      const double t = t0 + (i + 0.5) * tsym;
      const double va = speed_a.at(t);
      const double vb = speed_b.at(t);
      const double d_ab = distance.at(t);
      const double pos = distance.travelled();
      const double dpos = std::max(0.0, pos - last_shadow_pos);
      last_shadow_pos = pos;

      const double fd_a = doppler_hz(va);
      const double fd_b = doppler_hz(vb);
      // The LOS beat against the diffuse field drifts with the dominant
      // (slow) aspect-angle dynamics, like the slow scatter rings.
      const double fd_los = doppler_hz(std::fabs(distance.radial_speed())) *
                            cfg.scenario.slow_doppler_scale * 10.0;

      // The legitimate link's shadowing advances at every sample instant.
      const double s_ab = shadow_ab.advance(dpos);
      {
        const double dt = std::max(0.0, t - last_fade_t_ab);
        last_fade_t_ab = t;
        double gain_db = legit.drift_db;
        gain_db += -path_loss_db(d_ab, cfg.scenario.path_loss_exponent,
                                 kRefPathLossDb) +
                   s_ab + fade_ab.advance_db(dt, fd_a, fd_b, fd_los);
        latch(legit, tx_power_dbm, gain_db);
      }
      if (!eve) {
        (void)rng_noise.gaussian();  // Eve's sample noise
        continue;
      }
      // Both of Eve's processes blend their own component with the
      // legitimate link's shadowing, at every sample instant.
      const double s_ea = eve->shadow_ea.advance(dpos, s_ab);
      const double s_eb = eve->shadow_eb.advance(dpos, s_ab);
      double gain_db = ev.drift_db;
      if (alice_tx) {
        // Eve trails Alice at a fixed small offset: short, stable link.
        const double dt = std::max(0.0, t - eve->last_fade_t_ea);
        eve->last_fade_t_ea = t;
        gain_db += -path_loss_db(kEveOffsetM, cfg.scenario.path_loss_exponent,
                                 kRefPathLossDb) +
                   s_ea + eve->fade_ea.advance_db(dt, fd_a, 0.0, 0.0);
      } else {
        // Eve-Bob separation tracks the Alice-Bob separation (she follows
        // Alice's route), offset laterally.
        const double dt = std::max(0.0, t - eve->last_fade_t_eb);
        eve->last_fade_t_eb = t;
        const double d_eb = std::hypot(d_ab, kEveOffsetM);
        gain_db += -path_loss_db(d_eb, cfg.scenario.path_loss_exponent,
                                 kRefPathLossDb) +
                   s_eb + eve->fade_eb.advance_db(dt, fd_a, fd_b, fd_los);
      }
      latch(ev, tx_power_dbm, gain_db);
    }
  }

  ProbeRound next_round() {
    advance_interference();
    ProbeRound round;
    round.t_round_start = now;
    round.distance_m = distance.at(now);

    const double airtime = phy.airtime();
    const DeviceModel* eve_dev = cfg.device_eve ? &*cfg.device_eve : nullptr;

    // Phase 1: Alice transmits; Bob and Eve listen.
    const double t1 = now;
    transmit_phase(
        t1, cfg.device_alice.tx_power_dbm,
        {&cfg.device_bob, hw_bob + interf_bob, &round.bob_rx},
        {eve_dev, hw_eve + interf_eve, &round.eve_rx_alice_tx},
        /*alice_tx=*/true);

    // Phase 2: Bob turns around and responds; Alice and Eve listen.
    const double t2 = t1 + airtime + cfg.device_bob.turnaround_delay_s;
    transmit_phase(
        t2, cfg.device_bob.tx_power_dbm,
        {&cfg.device_alice, hw_alice + interf_alice, &round.alice_rx},
        {eve_dev, hw_eve + interf_eve, &round.eve_rx_bob_tx},
        /*alice_tx=*/false);

    now = t2 + airtime + kProbeIntervalS;
    // One probe exchange = two packets on the air (probe + response).
    phy.account_airtime(AirtimeUse::kProbe, 2);
    return round;
  }
};

TraceGenerator::TraceGenerator(const TraceConfig& config)
    : impl_(std::make_unique<Impl>(config)) {}

TraceGenerator::~TraceGenerator() = default;
TraceGenerator::TraceGenerator(TraceGenerator&&) noexcept = default;
TraceGenerator& TraceGenerator::operator=(TraceGenerator&&) noexcept =
    default;

ProbeRound TraceGenerator::next_round() { return impl_->next_round(); }

std::vector<ProbeRound> TraceGenerator::generate(std::size_t n) {
  std::vector<ProbeRound> rounds;
  rounds.reserve(n);
  for (std::size_t i = 0; i < n; ++i) rounds.push_back(impl_->next_round());
  return rounds;
}

double TraceGenerator::round_duration() const {
  return 2.0 * impl_->phy.airtime() +
         impl_->cfg.device_bob.turnaround_delay_s + kProbeIntervalS;
}

const LoRaPhy& TraceGenerator::phy() const { return impl_->phy; }

double TraceGenerator::coherence_time_s() const {
  const double va = impl_->cfg.scenario.speed_a_kmh / 3.6;
  const double vb = impl_->cfg.scenario.speed_b_kmh / 3.6;
  const double v = std::max(std::fabs(va - vb), std::max(va, vb) * 0.5);
  const double fd = impl_->doppler_hz(std::max(v, 0.1));
  return 0.423 / fd;
}

}  // namespace vkey::channel
