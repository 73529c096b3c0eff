// LoRa transceiver device models.
//
// The paper evaluates three radios (Table I): Arduino + Dragino LoRa Shield
// (SX1278), MultiTech xDot (SX1272) and MultiTech mDot (SX1272). Hardware
// imperfection is one of the four sources of measurement non-reciprocity
// (Sec. II-A), so each device model carries a fixed per-unit gain offset, a
// noise figure contribution and the RSSI register quantization step.
#pragma once

#include <string_view>

namespace vkey::channel {

struct DeviceModel {
  std::string_view name;  ///< a literal: copying a model allocates nothing
  /// Systematic RX gain offset [dB] relative to nominal (per-unit factory
  /// spread; constant over a trace, drawn once per device instance).
  double gain_offset_sigma_db = 1.0;
  /// Additional thermal/front-end measurement noise on each rRSSI sample
  /// [dB, std-dev].
  double rssi_noise_sigma_db = 0.8;
  /// RSSI register granularity [dB] (SX127x reports integer dB).
  double rssi_quant_step_db = 1.0;
  /// Receiver noise floor [dBm]: the RSSI register reports
  /// 10*log10(P_signal + P_floor), which soft-clamps deep fades — the
  /// measured dB series has no Rayleigh-null tails below this level.
  double noise_floor_dbm = -112.0;
  /// Turnaround / operation delay between RX completion and the response
  /// transmission [s] ("hardware operation delay is in milliseconds").
  double turnaround_delay_s = 0.004;
  /// Transmit power [dBm].
  double tx_power_dbm = 14.0;
  /// Receiver gain drift over a reception: AGC/PLL/temperature ramping adds
  /// a per-packet random offset whose std grows superlinearly with airtime
  /// (a drift-rate random walk: sigma = coeff * airtime^1.5)
  /// [dB / s^1.5]. Negligible for sub-second packets; at the 10-second
  /// airtimes of the lowest LoRa rates it adds dBs of receiver-specific
  /// (hence non-reciprocal) error.
  double gain_drift_db_per_s15 = 0.06;
};

/// The three radios from Table I.
DeviceModel dragino_lora_shield();
DeviceModel multitech_xdot();
DeviceModel multitech_mdot();

}  // namespace vkey::channel
