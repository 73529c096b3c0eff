#include "channel/trace_io.h"

#include <charconv>
#include <cmath>
#include <fstream>
#include <map>
#include <sstream>
#include <type_traits>

#include "common/error.h"

namespace vkey::channel {

namespace {

const char* kHeader = "round,observer,symbol,t_start,rssi_dbm";

const char* observer_name(int idx) {
  switch (idx) {
    case 0: return "bob_rx";
    case 1: return "alice_rx";
    case 2: return "eve_rx_alice_tx";
    case 3: return "eve_rx_bob_tx";
  }
  throw vkey::Error("bad observer index");
}

/// Parse all of `token` as a T: from_chars must consume every character
/// (no sign for unsigned fields, no trailing unit or junk), and a double
/// must be finite.
template <typename T>
T parse_field(const std::string& token, std::size_t line_no) {
  T value{};
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value);
  bool ok = ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  VKEY_REQUIRE(ok, "non-numeric field '" + token + "' in trace CSV at line " +
                       std::to_string(line_no));
  return value;
}

PacketObservation& observation_of(ProbeRound& round,
                                  const std::string& name) {
  if (name == "bob_rx") return round.bob_rx;
  if (name == "alice_rx") return round.alice_rx;
  if (name == "eve_rx_alice_tx") return round.eve_rx_alice_tx;
  if (name == "eve_rx_bob_tx") return round.eve_rx_bob_tx;
  throw vkey::Error("unknown observer '" + name + "' in trace CSV");
}

}  // namespace

void write_trace_csv(std::ostream& out,
                     const std::vector<ProbeRound>& rounds) {
  // Full round-trip fidelity for the timestamps.
  out.precision(17);
  out << kHeader << "\n";
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    const PacketObservation* obs[] = {
        &rounds[r].bob_rx, &rounds[r].alice_rx, &rounds[r].eve_rx_alice_tx,
        &rounds[r].eve_rx_bob_tx};
    for (int o = 0; o < 4; ++o) {
      for (std::size_t s = 0; s < obs[o]->rrssi.size(); ++s) {
        out << r << ',' << observer_name(o) << ',' << s << ','
            << obs[o]->t_start << ',' << obs[o]->rrssi[s] << "\n";
      }
    }
  }
  VKEY_REQUIRE(out.good(), "trace CSV write failed");
}

void save_trace_csv(const std::string& path,
                    const std::vector<ProbeRound>& rounds) {
  std::ofstream f(path);
  VKEY_REQUIRE(f.good(), "cannot open for writing: " + path);
  write_trace_csv(f, rounds);
}

std::vector<ProbeRound> read_trace_csv(std::istream& in) {
  std::string line;
  VKEY_REQUIRE(static_cast<bool>(std::getline(in, line)),
               "empty trace CSV");
  VKEY_REQUIRE(line == kHeader, "unexpected trace CSV header: " + line);

  std::map<std::size_t, ProbeRound> rounds;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::istringstream row(line);
    std::string round_s, observer, symbol_s, t_s, rssi_s;
    const bool ok = static_cast<bool>(std::getline(row, round_s, ',')) &&
                    static_cast<bool>(std::getline(row, observer, ',')) &&
                    static_cast<bool>(std::getline(row, symbol_s, ',')) &&
                    static_cast<bool>(std::getline(row, t_s, ',')) &&
                    static_cast<bool>(std::getline(row, rssi_s));
    VKEY_REQUIRE(ok, "malformed trace CSV at line " +
                         std::to_string(line_no));
    const auto round_idx = parse_field<std::size_t>(round_s, line_no);
    const auto symbol = parse_field<std::size_t>(symbol_s, line_no);
    const auto t_start = parse_field<double>(t_s, line_no);
    const auto rssi = parse_field<double>(rssi_s, line_no);
    ProbeRound& round = rounds[round_idx];
    PacketObservation& obs = observation_of(round, observer);
    VKEY_REQUIRE(symbol == obs.rrssi.size(),
                 "out-of-order symbol index at line " +
                     std::to_string(line_no));
    if (symbol == 0) obs.t_start = t_start;
    obs.rrssi.push_back(rssi);
  }

  std::vector<ProbeRound> out;
  out.reserve(rounds.size());
  for (auto& [idx, round] : rounds) {
    VKEY_REQUIRE(!round.bob_rx.rrssi.empty() &&
                     !round.alice_rx.rrssi.empty(),
                 "round " + std::to_string(idx) +
                     " is missing legitimate observations");
    round.t_round_start = round.bob_rx.t_start;
    out.push_back(std::move(round));
  }
  return out;
}

std::vector<ProbeRound> load_trace_csv(const std::string& path) {
  std::ifstream f(path);
  VKEY_REQUIRE(f.good(), "cannot open for reading: " + path);
  return read_trace_csv(f);
}

}  // namespace vkey::channel
