// arRSSI feature extraction (paper Sec. II-C).
//
// The register RSSI (rRSSI) gives one instantaneous sample per symbol, but a
// single sample is noisy. Vehicle-Key averages windows of adjacent samples —
// the "adjacent register RSSI" (arRSSI). Two granularities are used:
//
//  * boundary_pair(): one arRSSI per party per probe round, built from the
//    window adjacent to the other party's window (the last w% of the first
//    receiver's samples and the first w% of the second receiver's samples).
//    These two windows are separated only by the turnaround delay, i.e. they
//    fall inside the channel coherence time. This is the quantity swept in
//    Fig. 9 (the correlation peaks near w = 10%).
//
//  * sequence(): the full per-packet arRSSI sequence — non-overlapping
//    window means across all rRSSI samples of a packet. This is the key
//    material stream feeding the BiLSTM model; its length (~ samples/window
//    per packet) is what gives Vehicle-Key its 9-14x key-generation-rate
//    advantage over pRSSI-based schemes (one value per packet). windows()
//    reads the same values one at a time, so a caller that keeps a few of
//    them (extract_streams) computes only those.
#pragma once

#include <span>
#include <vector>

#include "channel/trace.h"

namespace vkey::core {

class ArRssiExtractor {
 public:
  /// `window_fraction` in (0, 1]: window size as a fraction of the packet's
  /// rRSSI sample count (paper optimum: 0.10).
  explicit ArRssiExtractor(double window_fraction = 0.10);

  /// Window length in samples for a packet with `samples_per_packet` rRSSIs.
  std::size_t window_len(std::size_t samples_per_packet) const;

  struct BoundaryPair {
    double bob_arrssi = 0.0;  ///< mean of the tail window of Bob's reception
    /// Mean of the head window of Alice's reception.
    double alice_arrssi = 0.0;
  };

  /// The coherence-time-adjacent pair for one probe round: Bob receives
  /// first (during Alice's probe), so his *last* window is adjacent to the
  /// *first* window of Alice's reception of the response.
  BoundaryPair boundary_pair(const channel::ProbeRound& round) const;

  /// Eve's imitation of Alice's boundary value: the head window of her
  /// observation of Bob's response over the Eve-Bob channel.
  double eve_boundary(const channel::ProbeRound& round) const;

  /// A packet's non-overlapping windows of rRSSI samples: a view, valid
  /// while the samples it was made from are.
  struct Windows {
    std::span<const double> rrssi;
    std::size_t len = 0;    ///< samples per window
    std::size_t count = 0;  ///< whole windows: sequence()'s length

    /// Mean of window `j` < count: sequence()[j], bit for bit.
    double mean(std::size_t j) const;
  };

  /// The windows of a packet's rRSSI samples (any trailing partial window
  /// is dropped).
  Windows windows(std::span<const double> rrssi) const;

  /// Non-overlapping window means over a packet's rRSSI samples: every
  /// window's mean, in order.
  std::vector<double> sequence(std::span<const double> rrssi) const;

  /// Number of arRSSI values sequence() yields for a packet of `n` samples.
  std::size_t values_per_packet(std::size_t n) const;

 private:
  double window_fraction_ = 0.0;
};

}  // namespace vkey::core
