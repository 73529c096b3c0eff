#include "channel/lora_phy.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vkey::channel {
namespace {

TEST(LoRaPhy, PaperBitRate183bps) {
  // BW = 125 kHz, SF = 12, CR = 4/8 -> Rb = 12 * 125000/4096 * 0.5 = 183.1.
  LoRaPhy phy(LoRaParams{}, kProbePayloadBytes);
  EXPECT_NEAR(phy.bit_rate(), 183.1, 0.1);
}

TEST(LoRaPhy, SymbolTimeSf12Bw125) {
  LoRaPhy phy(LoRaParams{}, kProbePayloadBytes);
  EXPECT_NEAR(phy.symbol_time(), 4096.0 / 125000.0, 1e-9);
}

TEST(LoRaPhy, AirtimeIsHundredsOfMsAtSf12) {
  // The theoretical analysis in Sec. II-A: a 16-byte packet at 183 bps
  // stays on air for over a second.
  LoRaPhy phy(LoRaParams{}, kProbePayloadBytes);
  EXPECT_GT(phy.airtime(), 1.0);
  EXPECT_LT(phy.airtime(), 3.0);
}

TEST(LoRaPhy, BitRateScalesWithBandwidth) {
  LoRaParams narrow;
  narrow.bandwidth_hz = 62.5e3;
  LoRaPhy p_narrow(narrow, kProbePayloadBytes);
  LoRaPhy p_wide(LoRaParams{}, kProbePayloadBytes);
  EXPECT_NEAR(p_wide.bit_rate() / p_narrow.bit_rate(), 2.0, 1e-9);
}

TEST(LoRaPhy, LowerSfIsFaster) {
  LoRaParams sf7;
  sf7.spreading_factor = 7;
  const LoRaPhy fast(sf7, kProbePayloadBytes);
  const LoRaPhy slow(LoRaParams{}, kProbePayloadBytes);
  EXPECT_GT(fast.bit_rate(), slow.bit_rate());
  EXPECT_LT(fast.airtime(), slow.airtime());
}

TEST(LoRaPhy, PayloadSymbolsGrowWithPayload) {
  EXPECT_LT(LoRaPhy(LoRaParams{}, 8).payload_symbols(),
            LoRaPhy(LoRaParams{}, 64).payload_symbols());
}

TEST(LoRaPhy, MinimumEightPayloadSymbols) {
  EXPECT_GE(LoRaPhy(LoRaParams{}, 1).payload_symbols(), 8);
}

TEST(LoRaPhy, PricesProtocolFramesExactly) {
  // AN1200.13 at BW125/CR4-8 for the frames the protocol sends with
  // two-byte session ids: an ack, a probe, a session confirm, a
  // key-schedule confirm and a syndrome. SF12 turns on low-data-rate
  // optimization.
  struct Frame {
    std::size_t bytes;
    int sf7_symbols;
    int sf12_symbols;
    double sf7_ms;
    double sf12_s;
  };
  const Frame frames[] = {
      {9, 40, 24, 53.504, 1.18784},
      {16, 56, 40, 69.888, 1.712128},
      {41, 112, 80, 127.232, 3.022848},
      {47, 120, 88, 135.424, 3.284992},
      {73, 184, 128, 200.96, 4.595712},
  };
  LoRaParams sf7;
  sf7.spreading_factor = 7;
  for (const Frame& f : frames) {
    const LoRaPhy fast(sf7, f.bytes);
    const LoRaPhy slow(LoRaParams{}, f.bytes);
    EXPECT_EQ(fast.payload_symbols(), f.sf7_symbols) << f.bytes << " bytes";
    EXPECT_EQ(slow.payload_symbols(), f.sf12_symbols) << f.bytes << " bytes";
    EXPECT_DOUBLE_EQ(fast.airtime() * 1000.0, f.sf7_ms) << f.bytes << " bytes";
    EXPECT_DOUBLE_EQ(slow.airtime(), f.sf12_s) << f.bytes << " bytes";
  }
  EXPECT_EQ(LoRaPhy(LoRaParams{}, kProbePayloadBytes).rssi_samples_per_packet(),
            52);
}

TEST(LoRaPhy, RssiSamplesMatchSymbolCount) {
  LoRaPhy phy(LoRaParams{}, kProbePayloadBytes);
  EXPECT_EQ(phy.rssi_samples_per_packet(),
            static_cast<int>(phy.total_symbols()));
  EXPECT_GT(phy.rssi_samples_per_packet(), 40);
}

TEST(LoRaPhy, ParamsForBitrateApproximatesTarget) {
  for (double target : {23.0, 46.0, 91.0, 183.0, 293.0, 586.0, 1172.0}) {
    const LoRaParams p = LoRaPhy::params_for_bitrate(target);
    const LoRaPhy phy(p, kProbePayloadBytes);
    // Within a factor of 1.5 of the requested rate.
    EXPECT_GT(phy.bit_rate(), target / 1.5) << "target " << target;
    EXPECT_LT(phy.bit_rate(), target * 1.5) << "target " << target;
  }
}

TEST(LoRaPhy, ParamsForBitrateMonotoneAirtime) {
  const double a_slow =
      LoRaPhy(LoRaPhy::params_for_bitrate(23.0), kProbePayloadBytes).airtime();
  const double a_fast =
      LoRaPhy(LoRaPhy::params_for_bitrate(1172.0), kProbePayloadBytes)
          .airtime();
  EXPECT_GT(a_slow, 10.0 * a_fast);
}

TEST(LoRaPhy, InvalidConfigRejected) {
  LoRaParams bad;
  bad.spreading_factor = 5;
  EXPECT_THROW((LoRaPhy{bad, kProbePayloadBytes}), vkey::Error);
  bad = LoRaParams{};
  bad.coding_rate_denom = 9;
  EXPECT_THROW((LoRaPhy{bad, kProbePayloadBytes}), vkey::Error);
  EXPECT_THROW((LoRaPhy{LoRaParams{}, 0}), vkey::Error);
  EXPECT_THROW(LoRaPhy::params_for_bitrate(0.0), vkey::Error);
}

}  // namespace
}  // namespace vkey::channel
