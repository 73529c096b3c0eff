#include "channel/trace_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace vkey::channel {
namespace {

/// Generated rounds with all four observers (Eve placed), so the CSV
/// carries her rows too.
std::vector<ProbeRound> make_rounds(std::size_t n) {
  TraceConfig cfg;
  cfg.scenario = make_scenario(ScenarioKind::kV2VUrban, 50.0);
  cfg.device_eve = dragino_lora_shield();
  cfg.seed = 12;
  TraceGenerator gen(cfg);
  return gen.generate(n);
}

TEST(TraceIo, RoundTripPreservesObservations) {
  const auto rounds = make_rounds(5);
  std::stringstream buf;
  write_trace_csv(buf, rounds);
  const auto back = read_trace_csv(buf);
  ASSERT_EQ(back.size(), rounds.size());
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    EXPECT_EQ(back[r].bob_rx.rrssi, rounds[r].bob_rx.rrssi);
    EXPECT_EQ(back[r].alice_rx.rrssi, rounds[r].alice_rx.rrssi);
    EXPECT_EQ(back[r].eve_rx_alice_tx.rrssi, rounds[r].eve_rx_alice_tx.rrssi);
    EXPECT_EQ(back[r].eve_rx_bob_tx.rrssi, rounds[r].eve_rx_bob_tx.rrssi);
    EXPECT_FALSE(back[r].eve_rx_bob_tx.rrssi.empty());
    EXPECT_DOUBLE_EQ(back[r].bob_rx.t_start, rounds[r].bob_rx.t_start);
  }
}

TEST(TraceIo, FileRoundTrip) {
  const auto rounds = make_rounds(3);
  const std::string path = std::string(::testing::TempDir()) + "/trace.csv";
  save_trace_csv(path, rounds);
  const auto back = load_trace_csv(path);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back[2].alice_rx.rrssi, rounds[2].alice_rx.rrssi);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsEmptyInput) {
  std::stringstream buf;
  EXPECT_THROW(read_trace_csv(buf), vkey::Error);
}

TEST(TraceIo, RejectsWrongHeader) {
  std::stringstream buf("time,rssi\n0,1\n");
  EXPECT_THROW(read_trace_csv(buf), vkey::Error);
}

TEST(TraceIo, RejectsMalformedRow) {
  std::stringstream buf("round,observer,symbol,t_start,rssi_dbm\n0,bob_rx\n");
  EXPECT_THROW(read_trace_csv(buf), vkey::Error);
}

TEST(TraceIo, RejectsNonNumericFields) {
  std::stringstream buf(
      "round,observer,symbol,t_start,rssi_dbm\n0,bob_rx,zero,0.0,-80\n");
  EXPECT_THROW(read_trace_csv(buf), vkey::Error);
}

TEST(TraceIo, RejectsUnknownObserver) {
  std::stringstream buf(
      "round,observer,symbol,t_start,rssi_dbm\n0,mallory_rx,0,0.0,-80\n");
  EXPECT_THROW(read_trace_csv(buf), vkey::Error);
}

TEST(TraceIo, RejectsOutOfOrderSymbols) {
  std::stringstream buf(
      "round,observer,symbol,t_start,rssi_dbm\n0,bob_rx,1,0.0,-80\n");
  EXPECT_THROW(read_trace_csv(buf), vkey::Error);
}

TEST(TraceIo, RejectsRoundMissingLegitimateObserver) {
  std::stringstream buf(
      "round,observer,symbol,t_start,rssi_dbm\n0,bob_rx,0,0.0,-80\n");
  EXPECT_THROW(read_trace_csv(buf), vkey::Error);
}

TEST(TraceIo, HardwareCaptureWithoutEveIsAccepted) {
  // A capture tool without an Eve receiver produces rounds with only the
  // two legitimate observers — those are accepted (Eve observations empty).
  std::stringstream buf(
      "round,observer,symbol,t_start,rssi_dbm\n"
      "0,bob_rx,0,0.0,-80\n0,bob_rx,1,0.0,-81\n"
      "0,alice_rx,0,1.7,-79\n0,alice_rx,1,1.7,-80\n");
  const auto rounds = read_trace_csv(buf);
  ASSERT_EQ(rounds.size(), 1u);
  EXPECT_EQ(rounds[0].bob_rx.rrssi.size(), 2u);
  EXPECT_TRUE(rounds[0].eve_rx_bob_tx.rrssi.empty());
}

/// One round with both legitimate observers; the tokens fill Bob's row.
std::string one_round(const std::string& round, const std::string& t_start,
                      const std::string& rssi) {
  return "round,observer,symbol,t_start,rssi_dbm\n" + round + ",bob_rx,0," +
         t_start + "," + rssi + "\n" + round + ",alice_rx,0,1.7,-79\n";
}

TEST(TraceIo, RejectsPartialAndNonFiniteNumbers) {
  std::stringstream control(one_round("12", "0.5", "-80"));
  EXPECT_EQ(read_trace_csv(control).size(), 1u);
  // Each field must parse completely; a number with trailing junk, a sign
  // on an unsigned field or a non-finite double is malformed.
  for (const std::string& csv :
       {one_round("12abc", "0.5", "-80"), one_round("-1", "0.5", "-80"),
        one_round("12", "0.5", "-80dBm"), one_round("12", "0.5", "nan"),
        one_round("12", "inf", "-80")}) {
    std::stringstream buf(csv);
    EXPECT_THROW(read_trace_csv(buf), vkey::Error) << csv;
  }
}

// Seeded mutation fuzz of the CSV reader, in the style of the frame-codec
// fuzzer: bit flips, truncations and whole-field rewrites with edge-case
// tokens. Every read either throws vkey::Error or returns rounds whose
// values are all finite and whose legitimate observations are non-empty.
TEST(TraceIo, MutatedCsvIsRejectedOrFinite) {
  auto rounds = make_rounds(2);
  for (ProbeRound& r : rounds) {
    for (PacketObservation* o : {&r.bob_rx, &r.alice_rx}) o->rrssi.resize(3);
    for (EveObservation* o : {&r.eve_rx_alice_tx, &r.eve_rx_bob_tx}) {
      o->rrssi.resize(3);
    }
  }
  std::stringstream valid;
  write_trace_csv(valid, rounds);
  const std::string csv = valid.str();

  // [begin, end) of every numeric field (round, symbol, t_start, rssi).
  std::vector<std::pair<std::size_t, std::size_t>> fields;
  for (std::size_t pos = csv.find('\n') + 1; pos < csv.size();) {
    const std::size_t eol = csv.find('\n', pos);
    for (int f = 0; pos <= eol; ++f) {
      const std::size_t end = std::min(csv.find(',', pos), eol);
      if (f != 1) fields.emplace_back(pos, end);
      pos = end + 1;
    }
  }
  const char* const kTokens[] = {"nan",   "inf",    "-inf", "1e999", "-1",
                                 "12abc", "-80dBm", "",     " 7",    "0x1p3"};

  constexpr int kCases = 20'000;
  vkey::Rng rng(0x7ace5);
  int accepted = 0;
  for (int trial = 0; trial < kCases; ++trial) {
    std::string bytes = csv;
    switch (rng.uniform_int(3)) {
      case 0:  // 1..4 bit flips anywhere
        for (std::uint64_t f = 0, n = 1 + rng.uniform_int(4); f < n; ++f) {
          bytes[rng.uniform_int(bytes.size())] ^=
              static_cast<char>(1u << rng.uniform_int(8));
        }
        break;
      case 1:  // truncate (or keep whole, exercising the accept path)
        bytes.resize(rng.uniform_int(bytes.size() + 1));
        break;
      default: {  // rewrite one numeric field
        const auto [begin, end] = fields[rng.uniform_int(fields.size())];
        bytes.replace(begin, end - begin,
                      kTokens[rng.uniform_int(std::size(kTokens))]);
        break;
      }
    }
    std::stringstream in(bytes);
    std::vector<ProbeRound> back;
    try {
      back = read_trace_csv(in);
    } catch (const vkey::Error&) {
      continue;
    }
    ++accepted;
    for (const ProbeRound& r : back) {
      ASSERT_FALSE(r.bob_rx.rrssi.empty()) << "trial " << trial;
      ASSERT_FALSE(r.alice_rx.rrssi.empty()) << "trial " << trial;
      ASSERT_TRUE(std::isfinite(r.t_round_start)) << "trial " << trial;
      const auto finite = [](const auto& o) {
        return std::isfinite(o.t_start) &&
               std::all_of(o.rrssi.begin(), o.rrssi.end(),
                           [](double v) { return std::isfinite(v); });
      };
      ASSERT_TRUE(finite(r.bob_rx) && finite(r.alice_rx) &&
                  finite(r.eve_rx_alice_tx) && finite(r.eve_rx_bob_tx))
          << "trial " << trial;
    }
  }
  EXPECT_GT(accepted, 0);  // the accept path is exercised too
}

// A hostile CSV naming 10^5 distinct rounds, one bob_rx sample each, in a
// seeded shuffled order: the reader stops at the line naming round
// kMaxTraceRounds + 1 instead of holding ~1 KiB for every line, and the
// rest of the stream stays unread.
TEST(TraceIo, CsvNamingTooManyRoundsFailsFast) {
  constexpr std::size_t kLines = 100'000;
  static_assert(kLines > kMaxTraceRounds);
  std::vector<std::size_t> order(kLines);
  for (std::size_t i = 0; i < kLines; ++i) order[i] = i;
  vkey::Rng rng(0x70da7a);
  for (std::size_t i = kLines; i > 1; --i) {
    std::swap(order[i - 1], order[rng.uniform_int(i)]);
  }
  std::string csv = "round,observer,symbol,t_start,rssi_dbm\n";
  for (const std::size_t round : order) {
    csv += std::to_string(round) + ",bob_rx,0,0.5,-80\n";
  }
  std::stringstream in(csv);
  try {
    (void)read_trace_csv(in);
    FAIL() << "a CSV of " << kLines << " rounds was accepted";
  } catch (const vkey::Error& e) {
    // Line 1 is the header, so round kMaxTraceRounds + 1 is on the line
    // after that number.
    EXPECT_NE(std::string(e.what()).find(
                  "at line " + std::to_string(kMaxTraceRounds + 2)),
              std::string::npos)
        << e.what();
  }
  EXPECT_LT(static_cast<std::size_t>(in.tellg()), csv.size());
}

}  // namespace
}  // namespace vkey::channel
