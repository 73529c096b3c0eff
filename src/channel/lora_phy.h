// LoRa physical-layer timing model (SX127x-style).
//
// The paper's core difficulty is that LoRa's airtime is long relative to the
// channel coherence time: Rb = SF * (BW / 2^SF) * CR, so at SF12/BW125/CR4-8
// the bit rate is 183 bps and a 16-byte packet stays on air for ~1.5 s.
// This module computes symbol time, bit rate, payload symbol count and total
// airtime from the standard Semtech formulas; the trace generator uses it to
// place every rRSSI register sample on the time axis, and the protocol link
// to price every frame from its byte count.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vkey::channel {

/// The most payload one SX127x LoRa packet carries (its FIFO and payload
/// length register hold 255 bytes). Every frame the protocol makes fits in
/// it: the syndrome frame, its largest agreement frame, by a static_assert
/// in session.cpp, and a sealed data frame by KeySchedule::seal's limit.
inline constexpr std::size_t kMaxLoRaPayloadBytes = 255;

/// What a transmission carried, for the per-use airtime breakdown.
enum class AirtimeUse : std::uint8_t {
  kProbe,  ///< channel probing ("phy.airtime_ms.probe")
  kWire,   ///< protocol wire frames ("phy.airtime_ms.wire")
};

/// Carrier frequency f0 of the paper's SX127x radios [Hz].
inline constexpr double kCarrierHz = 434e6;

/// Payload of one channel probe packet, the paper's 16 bytes.
inline constexpr std::size_t kProbePayloadBytes = 16;

/// The radio settings the paper varies. Defaults are its evaluation
/// settings (BW = 125 kHz, SF = 12, CR = 4/8). Every packet has an
/// 8-symbol preamble, an explicit header and a payload CRC.
struct LoRaParams {
  int spreading_factor = 12;   ///< SF, 6..12
  double bandwidth_hz = 125e3;  ///< BW: 7.8k .. 500k
  int coding_rate_denom = 8;   ///< CR = 4/denom, denom in 5..8
};

/// Derived timing quantities of one packet of `payload_bytes` bytes sent
/// with `params`.
class LoRaPhy {
 public:
  LoRaPhy(const LoRaParams& params, std::size_t payload_bytes);

  /// Chirp symbol duration: 2^SF / BW [s].
  double symbol_time() const { return symbol_time_; }

  /// Effective bit rate: SF * BW / 2^SF * (4/CR_denom) [bit/s]. Matches the
  /// paper's Rb formula (183 bps for the default configuration).
  double bit_rate() const { return bit_rate_; }

  /// Number of payload symbols (Semtech AN1200.13 formula, including header
  /// and CRC overhead and low-data-rate optimization for SF >= 11).
  int payload_symbols() const { return payload_symbols_; }

  /// Total symbols on air including preamble (+4.25 sync/SFD symbols).
  double total_symbols() const { return total_symbols_; }

  /// Packet time-on-air [s].
  double airtime() const { return airtime_; }

  /// Number of rRSSI register samples a receiver can latch during one packet
  /// (one per symbol, preamble included — the radio's RSSI register updates
  /// continuously while the packet is being received).
  int rssi_samples_per_packet() const { return rssi_samples_; }

  /// Pick an SF/BW/CR configuration whose bit rate is closest to
  /// `target_bps`, searching SF 7..12, BW {15.6k, 31.25k, 62.5k, 125k} and
  /// CR denominators 5..8. Used by the Fig. 2(a) data-rate sweep.
  static LoRaParams params_for_bitrate(double target_bps);

  /// Observability hook: account `packets` transmissions of this
  /// configuration in the global metrics registry — total packet count and
  /// accumulated on-air milliseconds, plus a per-use breakdown
  /// ("phy.airtime_ms.probe" / "phy.airtime_ms.wire"). Every gauge is
  /// looked up once per process, on its first use.
  void account_airtime(AirtimeUse use, std::size_t packets = 1) const;

 private:
  double symbol_time_ = 0.0;
  double bit_rate_ = 0.0;
  int payload_symbols_ = 0;
  double total_symbols_ = 0.0;
  double airtime_ = 0.0;
  int rssi_samples_ = 0;
};

}  // namespace vkey::channel
