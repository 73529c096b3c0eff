// trace_tool — generate, export, import and analyze probe traces.
//
// The bridge between the simulator and real hardware captures:
//
//   # generate a simulated trace and export it
//   ./build/examples/trace_tool generate --scenario v2v-urban --rounds 200
//       ... --seed 7 --out trace.csv
//
//   # analyze any trace in the CSV schema (simulated or captured)
//   ./build/examples/trace_tool analyze --in trace.csv
//
// `analyze` prints the statistics Vehicle-Key cares about: pRSSI and
// boundary-arRSSI correlations, stream correlation under mirrored pairing,
// and the direct 1-bit quantization agreement — enough to judge whether a
// capture will produce usable keys before training anything.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "channel/trace_io.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/dataset.h"

using namespace vkey;
using namespace vkey::channel;
using namespace vkey::core;

namespace {

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s generate [--scenario v2i-urban|v2i-rural|"
               "v2v-urban|v2v-rural] [--speed KMH] [--rounds N] [--seed N] "
               "--out FILE\n"
               "       %s analyze --in FILE\n",
               argv0, argv0);
  std::exit(2);
}

ScenarioKind parse_scenario(const std::string& s, const char* argv0) {
  if (s == "v2i-urban") return ScenarioKind::kV2IUrban;
  if (s == "v2i-rural") return ScenarioKind::kV2IRural;
  if (s == "v2v-urban") return ScenarioKind::kV2VUrban;
  if (s == "v2v-rural") return ScenarioKind::kV2VRural;
  usage(argv0);
}

/// Strict numeric flag parsing: `std::atof`/`std::atoll` return 0 on
/// garbage, so `--speed banana` would silently run at speed 0. Require the
/// whole token to parse or bail out through usage().
double parse_double(const char* flag, const char* s, const char* argv0) {
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "%s expects a number, got '%s'\n", flag, s);
    usage(argv0);
  }
  return v;
}

std::uint64_t parse_u64(const char* flag, const char* s, const char* argv0) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') {
    std::fprintf(stderr, "%s expects a non-negative integer, got '%s'\n",
                 flag, s);
    usage(argv0);
  }
  return static_cast<std::uint64_t>(v);
}

int cmd_generate(int argc, char** argv) {
  ScenarioKind kind = ScenarioKind::kV2VUrban;
  double speed = 50.0;
  std::size_t rounds = 200;
  std::uint64_t seed = 1;
  std::string out;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    if (arg == "--scenario") kind = parse_scenario(next(), argv[0]);
    else if (arg == "--speed") speed = parse_double("--speed", next(), argv[0]);
    else if (arg == "--rounds") rounds = static_cast<std::size_t>(parse_u64("--rounds", next(), argv[0]));
    else if (arg == "--seed") seed = parse_u64("--seed", next(), argv[0]);
    else if (arg == "--out") out = next();
    else usage(argv[0]);
  }
  if (out.empty() || rounds == 0 || speed <= 0.0) usage(argv[0]);

  TraceConfig cfg;
  cfg.scenario = make_scenario(kind, speed);
  cfg.device_eve = dragino_lora_shield();  // the CSV keeps Eve's rows
  cfg.seed = seed;
  TraceGenerator gen(cfg);
  const auto trace = gen.generate(rounds);
  save_trace_csv(out, trace);
  std::printf("wrote %zu rounds (%d rRSSI samples per packet, %.2f s per "
              "round) to %s\n",
              trace.size(), gen.phy().rssi_samples_per_packet(),
              gen.round_duration(), out.c_str());
  return 0;
}

int cmd_analyze(int argc, char** argv) {
  std::string in;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--in" && i + 1 < argc) in = argv[++i];
    else usage(argv[0]);
  }
  if (in.empty()) usage(argv[0]);

  const auto rounds = load_trace_csv(in);
  std::printf("loaded %zu rounds from %s\n\n", rounds.size(), in.c_str());
  if (rounds.size() < 8) {
    std::printf("too few rounds for statistics\n");
    return 1;
  }

  std::vector<double> pa, pb, aa, ab;
  const ArRssiExtractor boundary(0.10);
  const bool has_eve = !rounds.front().eve_rx_bob_tx.rrssi.empty();
  std::vector<double> ae;
  for (const auto& r : rounds) {
    pa.push_back(r.alice_rx.prssi());
    pb.push_back(r.bob_rx.prssi());
    const auto bp = boundary.boundary_pair(r);
    aa.push_back(bp.alice_arrssi);
    ab.push_back(bp.bob_arrssi);
    if (has_eve) ae.push_back(boundary.eve_boundary(r));
  }

  Table t({"statistic", "value"});
  t.add_row({"pRSSI correlation (Alice-Bob)",
             Table::fmt(stats::pearson(pa, pb), 3)});
  t.add_row({"boundary arRSSI correlation (10% window)",
             Table::fmt(stats::pearson(aa, ab), 3)});
  if (has_eve) {
    t.add_row({"boundary arRSSI correlation (Bob-Eve)",
               Table::fmt(stats::pearson(ab, ae), 3)});
  }

  // Key-material view: mirrored reciprocal-zone stream.
  DatasetConfig dc;
  const ArRssiStreams st =
      extract_streams(rounds, dc.extractor, dc.reciprocal_windows);
  t.add_row({"key-stream correlation (mirrored pairing)",
             Table::fmt(stats::pearson(st.alice, st.bob), 3)});
  MultiBitQuantizer q(dc.quantizer);
  t.add_row({"direct 1-bit agreement",
             Table::pct(q.quantize(st.alice).bits.agreement(
                 q.quantize(st.bob).bits))});
  t.print("trace quality");

  std::printf("\nRule of thumb: key-stream agreement above ~85%% "
              "reconciles cleanly with AE-64; below ~80%% expect failed "
              "blocks.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  // A file the reader rejects (missing, malformed row) or a round count no
  // vector can hold is bad input: report it in one line. std::exception
  // covers both the reader's vkey::Error and the vector's std::length_error.
  try {
    if (std::strcmp(argv[1], "generate") == 0) return cmd_generate(argc, argv);
    if (std::strcmp(argv[1], "analyze") == 0) return cmd_analyze(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "trace_tool: %s\n", e.what());
    return 2;
  }
  usage(argv[0]);
}
