// Probe-exchange trace generation: the synthetic stand-in for the paper's
// 20+ hours of real-world driving data.
//
// One ProbeRound reproduces the paper's probing protocol:
//   1. Alice transmits a probe packet. While it is on air, Bob's radio
//      latches one rRSSI register sample per symbol (the instantaneous
//      "register RSSI" of Sec. II-C). Eve, following Alice, overhears the
//      same transmission through her own Eve-Alice channel.
//   2. After Bob's turnaround delay (milliseconds), Bob transmits the
//      response; Alice samples her rRSSIs, and Eve overhears through the
//      Eve-Bob channel.
// Because the packet airtime at SF12 is ~1.5 s while the coherence time at
// 50 km/h is ~20 ms, the two parties' packet-averaged RSSIs decorrelate, but
// the boundary samples (end of Bob's window, start of Alice's window, only a
// turnaround delay apart) remain inside the coherence time — exactly the
// asymmetry Vehicle-Key exploits.
//
// Eve is simulated only when TraceConfig::device_eve places her; otherwise
// her observations stay empty and none of her links is built. Either way
// she makes the same draws from the random streams she shares with Alice
// and Bob (per-packet gain drift and per-sample noise, interference, the
// hardware offsets), so every legitimate sample is bit-identical with or
// without her.
//
// A legitimate reception of the paper's packet holds its samples inline
// (kInlineRrssiSamples), and the fading rings hold their rays inline: a
// generator allocates only its state, and generate(n) only the vector it
// returns.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "channel/device.h"
#include "channel/fading.h"
#include "channel/lora_phy.h"
#include "channel/mobility.h"
#include "channel/scenario.h"
#include "common/rng.h"
#include "common/small_buffer.h"
#include "common/stats.h"

namespace vkey::channel {

/// rRSSI observations of one received packet, its samples held in
/// `Samples`.
template <typename Samples>
struct Observation {
  double t_start = 0.0;  ///< reception start [s]
  double t_end = 0.0;    ///< reception end [s]
  Samples rrssi;         ///< one register RSSI per symbol [dBm]

  /// Packet RSSI: the average the paper calls pRSSI.
  double prssi() const { return vkey::stats::mean(rrssi); }
};

/// Register samples a legitimate reception holds inline: the paper's
/// probe (SF12 by LoRaParams' default, kProbePayloadBytes) latches 52. A
/// longer packet moves its samples to one heap block.
inline constexpr std::size_t kInlineRrssiSamples = 52;

/// A legitimate party's reception: its samples live inside the round.
using PacketObservation =
    Observation<SmallBuffer<double, kInlineRrssiSamples>>;
/// Eve's reception keeps its samples on the heap, so a round without her
/// (the generator's default) stays small.
using EveObservation = Observation<std::vector<double>>;

/// All observations of one probe/response exchange.
struct ProbeRound {
  double t_round_start = 0.0;
  PacketObservation bob_rx;        ///< Bob's view of Alice's probe
  PacketObservation alice_rx;      ///< Alice's view of Bob's response
  EveObservation eve_rx_alice_tx;  ///< Eve overhears the probe
  EveObservation eve_rx_bob_tx;    ///< Eve overhears the response
                                   ///< (both empty without Eve)
  double distance_m = 0.0;         ///< Alice-Bob separation at round start
};

/// Eve's lateral offset from Alice [m]; sets her shadowing correlation
/// with the legitimate link (exp(-offset/decorr)) and her Eve-Alice
/// distance. > lambda/2, so her small-scale fading is independent.
inline constexpr double kEveOffsetM = 15.0;

struct TraceConfig {
  ScenarioConfig scenario;
  LoRaParams phy;
  DeviceModel device_alice = dragino_lora_shield();
  DeviceModel device_bob = dragino_lora_shield();
  /// Eve's radio. Empty (the default) simulates no eavesdropper: her
  /// observations stay empty and only her shared-stream draws are made.
  std::optional<DeviceModel> device_eve;
  std::uint64_t seed = 1;
};

/// Deterministic generator of probe rounds for one scenario/configuration.
class TraceGenerator {
 public:
  explicit TraceGenerator(const TraceConfig& config);
  ~TraceGenerator();
  TraceGenerator(TraceGenerator&&) noexcept;
  TraceGenerator& operator=(TraceGenerator&&) noexcept;

  /// Produce the next probe exchange (advances simulated time).
  ProbeRound next_round();

  /// Produce `n` consecutive rounds.
  std::vector<ProbeRound> generate(std::size_t n);

  /// Wall-clock duration of one complete exchange including the 50 ms idle
  /// gap before the next probe [s] — the denominator of every
  /// key-generation-rate figure.
  double round_duration() const;

  const LoRaPhy& phy() const;

  /// Doppler-derived coherence time at the configured scenario speed
  /// (T_c ~ 0.423 / f_d), for diagnostics and the Sec. II analysis bench.
  double coherence_time_s() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace vkey::channel
