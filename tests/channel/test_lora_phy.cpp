#include "channel/lora_phy.h"

#include <gtest/gtest.h>

#include "common/error.h"

namespace vkey::channel {
namespace {

TEST(LoRaPhy, PaperBitRate183bps) {
  // BW = 125 kHz, SF = 12, CR = 4/8 -> Rb = 12 * 125000/4096 * 0.5 = 183.1.
  LoRaPhy phy(LoRaParams{});
  EXPECT_NEAR(phy.bit_rate(), 183.1, 0.1);
}

TEST(LoRaPhy, SymbolTimeSf12Bw125) {
  LoRaPhy phy(LoRaParams{});
  EXPECT_NEAR(phy.symbol_time(), 4096.0 / 125000.0, 1e-9);
}

TEST(LoRaPhy, AirtimeIsHundredsOfMsAtSf12) {
  // The theoretical analysis in Sec. II-A: a 16-byte packet at 183 bps
  // stays on air for over a second.
  LoRaPhy phy(LoRaParams{});
  EXPECT_GT(phy.airtime(), 1.0);
  EXPECT_LT(phy.airtime(), 3.0);
}

TEST(LoRaPhy, BitRateScalesWithBandwidth) {
  LoRaParams narrow;
  narrow.bandwidth_hz = 62.5e3;
  LoRaPhy p_narrow(narrow);
  LoRaPhy p_wide(LoRaParams{});
  EXPECT_NEAR(p_wide.bit_rate() / p_narrow.bit_rate(), 2.0, 1e-9);
}

TEST(LoRaPhy, LowerSfIsFaster) {
  LoRaParams sf7;
  sf7.spreading_factor = 7;
  EXPECT_GT(LoRaPhy(sf7).bit_rate(), LoRaPhy(LoRaParams{}).bit_rate());
  EXPECT_LT(LoRaPhy(sf7).airtime(), LoRaPhy(LoRaParams{}).airtime());
}

TEST(LoRaPhy, PayloadSymbolsGrowWithPayload) {
  LoRaParams small;
  small.payload_bytes = 8;
  LoRaParams big;
  big.payload_bytes = 64;
  EXPECT_LT(LoRaPhy(small).payload_symbols(), LoRaPhy(big).payload_symbols());
}

TEST(LoRaPhy, MinimumEightPayloadSymbols) {
  LoRaParams tiny;
  tiny.payload_bytes = 1;
  tiny.spreading_factor = 12;
  EXPECT_GE(LoRaPhy(tiny).payload_symbols(), 8);
}

TEST(LoRaPhy, RssiSamplesMatchSymbolCount) {
  LoRaPhy phy(LoRaParams{});
  EXPECT_EQ(phy.rssi_samples_per_packet(),
            static_cast<int>(phy.total_symbols()));
  EXPECT_GT(phy.rssi_samples_per_packet(), 40);
}

TEST(LoRaPhy, ParamsForBitrateApproximatesTarget) {
  for (double target : {23.0, 46.0, 91.0, 183.0, 293.0, 586.0, 1172.0}) {
    const LoRaParams p = LoRaPhy::params_for_bitrate(target);
    const LoRaPhy phy(p);
    // Within a factor of 1.5 of the requested rate.
    EXPECT_GT(phy.bit_rate(), target / 1.5) << "target " << target;
    EXPECT_LT(phy.bit_rate(), target * 1.5) << "target " << target;
  }
}

TEST(LoRaPhy, ParamsForBitrateMonotoneAirtime) {
  const double a_slow = LoRaPhy(LoRaPhy::params_for_bitrate(23.0)).airtime();
  const double a_fast =
      LoRaPhy(LoRaPhy::params_for_bitrate(1172.0)).airtime();
  EXPECT_GT(a_slow, 10.0 * a_fast);
}

TEST(LoRaPhy, InvalidConfigRejected) {
  LoRaParams bad;
  bad.spreading_factor = 5;
  EXPECT_THROW(LoRaPhy{bad}, vkey::Error);
  bad = LoRaParams{};
  bad.coding_rate_denom = 9;
  EXPECT_THROW(LoRaPhy{bad}, vkey::Error);
  bad = LoRaParams{};
  bad.payload_bytes = 0;
  EXPECT_THROW(LoRaPhy{bad}, vkey::Error);
  EXPECT_THROW(LoRaPhy::params_for_bitrate(0.0), vkey::Error);
}

}  // namespace
}  // namespace vkey::channel
