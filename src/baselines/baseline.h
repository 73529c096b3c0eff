// The state-of-the-art baselines compared in Fig. 12 / Fig. 13, each at the
// paper's tuned setting: LoRa-Key, Han et al. and Gao et al.
//
// All baselines operate on packet RSSI (pRSSI) — one measurement per packet
// and per direction — which is precisely why their key generation rates trail
// Vehicle-Key's arRSSI stream by roughly an order of magnitude.
//
// Each baseline is one function over a trace: `round_duration_s` is the
// wall-clock cost of one probe exchange (from the trace generator), the
// denominator of the key rate. Every scheme, Vehicle-Key included, scores
// its reconciled blocks through core::score_key_blocks: KAR mean and sample
// std over the blocks, the exact-block rate, and the net KGR, which
// subtracts the bits each block's reconciliation publishes (privacy
// amplification shrinks the key by them).
#pragma once

#include <string>
#include <vector>

#include "channel/trace.h"

namespace vkey::baselines {

struct BaselineMetrics {
  std::string name;
  double mean_kar = 0.0;          ///< post-reconciliation bit agreement
  double std_kar = 0.0;
  double key_success_rate = 0.0;  ///< exact 64-bit block agreement
  double kgr_bits_per_s = 0.0;    ///< net secret bits per second (leaked
                                  ///< reconciliation bits subtracted)
  std::size_t blocks = 0;
};

/// Paired pRSSI series measured by the two parties over a trace.
struct PrssiSeries {
  std::vector<double> alice;
  std::vector<double> bob;
};

/// Extract per-round pRSSI pairs from a trace.
PrssiSeries extract_prssi(const std::vector<channel::ProbeRound>& rounds);

/// LoRa-Key (Xu et al., IEEE IoT-J 2018): a 2-bit quantile quantizer with
/// guard-band ratio alpha = 0.8 (the parties exchange their kept sample
/// indices and intersect them; the lists leak timing only), then compressed
/// sensing reconciliation of each 64-bit block with a 20 x 64 random matrix
/// and an OMP decoder. The 20 published measurements are the block's leak.
BaselineMetrics lora_key(const std::vector<channel::ProbeRound>& rounds,
                         double round_duration_s);

/// Han et al. (Sensors 2020), "LoRa-based physical layer key generation for
/// secure V2V/V2I communications": a 2-bit quantile quantizer without guard
/// bands, then Cascade over 256-bit blocks (Cascade amortizes its parity
/// leakage over long blocks) with group length k = 3 and 4 iterations.
/// Each disclosed parity is one leaked bit; the multi-round interaction is
/// the overhead the paper criticizes.
BaselineMetrics han_v2v(const std::vector<channel::ProbeRound>& rounds,
                        double round_duration_s);

/// Gao et al. (IPSN 2021), "A novel model-based security scheme for LoRa
/// key generation", at the paper's "interval = 20 and round number = 50":
/// pRSSI averaged over groups of interval / 10 exchanges is smoothed by an
/// EWMA channel model (alpha 0.3), each residual is thresholded at the
/// median of the last `interval` residuals (one bit per group), and the
/// bits are CS-reconciled in 64-bit blocks like LoRa-Key's. The
/// per-interval bit budget limits its key rate (the paper measures
/// Vehicle-Key at ~14x its KGR), and its model filter, designed for static
/// nodes, degrades its agreement under mobility.
BaselineMetrics gao_model(const std::vector<channel::ProbeRound>& rounds,
                          double round_duration_s);

}  // namespace vkey::baselines
