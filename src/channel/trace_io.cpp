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

/// Call `fn(name, observation)` for each of `round`'s four observers, in
/// the schema's order (legitimate and Eve's observations differ in type).
template <typename Round, typename Fn>
void for_each_observer(Round& round, Fn&& fn) {
  fn("bob_rx", round.bob_rx);
  fn("alice_rx", round.alice_rx);
  fn("eve_rx_alice_tx", round.eve_rx_alice_tx);
  fn("eve_rx_bob_tx", round.eve_rx_bob_tx);
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

}  // namespace

void write_trace_csv(std::ostream& out,
                     const std::vector<ProbeRound>& rounds) {
  // Full round-trip fidelity for the timestamps.
  out.precision(17);
  out << kHeader << "\n";
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    for_each_observer(rounds[r], [&](const char* name, const auto& obs) {
      for (std::size_t s = 0; s < obs.rrssi.size(); ++s) {
        out << r << ',' << name << ',' << s << ',' << obs.t_start << ','
            << obs.rrssi[s] << "\n";
      }
    });
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
    auto round = rounds.find(round_idx);
    if (round == rounds.end()) {
      VKEY_REQUIRE(rounds.size() < kMaxTraceRounds,
                   "trace CSV names more than " +
                       std::to_string(kMaxTraceRounds) + " rounds at line " +
                       std::to_string(line_no));
      round = rounds.emplace(round_idx, ProbeRound{}).first;
    }
    bool known = false;
    for_each_observer(round->second, [&](const char* name, auto& obs) {
      if (known || observer != name) return;
      known = true;
      VKEY_REQUIRE(symbol == obs.rrssi.size(),
                   "out-of-order symbol index at line " +
                       std::to_string(line_no));
      if (symbol == 0) obs.t_start = t_start;
      obs.rrssi.push_back(rssi);
    });
    VKEY_REQUIRE(known, "unknown observer '" + observer + "' in trace CSV");
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
