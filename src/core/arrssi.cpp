#include "core/arrssi.h"

#include <cmath>

#include "common/error.h"
#include "common/stats.h"

namespace vkey::core {

ArRssiExtractor::ArRssiExtractor(double window_fraction)
    : window_fraction_(window_fraction) {
  VKEY_REQUIRE(window_fraction > 0.0 && window_fraction <= 1.0,
               "window fraction must be in (0, 1]");
}

std::size_t ArRssiExtractor::window_len(std::size_t n) const {
  VKEY_REQUIRE(n >= 1, "empty packet");
  const auto w = static_cast<std::size_t>(
      std::round(window_fraction_ * static_cast<double>(n)));
  return std::max<std::size_t>(1, std::min(w, n));
}

ArRssiExtractor::BoundaryPair ArRssiExtractor::boundary_pair(
    const channel::ProbeRound& round) const {
  const auto& bob = round.bob_rx.rrssi;
  const auto& alice = round.alice_rx.rrssi;
  VKEY_REQUIRE(!bob.empty() && !alice.empty(), "round missing observations");
  const std::size_t wb = window_len(bob.size());
  const std::size_t wa = window_len(alice.size());
  BoundaryPair p;
  p.bob_arrssi = vkey::stats::mean(
      std::span<const double>(bob.data() + bob.size() - wb, wb));
  p.alice_arrssi =
      vkey::stats::mean(std::span<const double>(alice.data(), wa));
  return p;
}

double ArRssiExtractor::eve_boundary(const channel::ProbeRound& round) const {
  const auto& eve = round.eve_rx_bob_tx.rrssi;
  VKEY_REQUIRE(!eve.empty(), "round missing Eve observation");
  const std::size_t we = window_len(eve.size());
  return vkey::stats::mean(std::span<const double>(eve.data(), we));
}

double ArRssiExtractor::Windows::mean(std::size_t j) const {
  return vkey::stats::mean(rrssi.subspan(j * len, len));
}

ArRssiExtractor::Windows ArRssiExtractor::windows(
    std::span<const double> rrssi) const {
  VKEY_REQUIRE(!rrssi.empty(), "empty packet observation");
  const std::size_t w = window_len(rrssi.size());
  return {rrssi, w, rrssi.size() / w};
}

std::vector<double> ArRssiExtractor::sequence(
    std::span<const double> rrssi) const {
  const Windows w = windows(rrssi);
  std::vector<double> out;
  out.reserve(w.count);
  for (std::size_t j = 0; j < w.count; ++j) out.push_back(w.mean(j));
  return out;
}

std::size_t ArRssiExtractor::values_per_packet(std::size_t n) const {
  return n / window_len(n);
}

}  // namespace vkey::core
