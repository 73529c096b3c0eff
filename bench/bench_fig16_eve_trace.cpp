// Fig. 16 — arRSSI traces of Alice, Bob and Eve.
//
// Prints aligned arRSSI streams for urban and rural environments. Paper
// shape: Eve's *overall pattern* (path loss + shadowing) tracks the
// legitimate trace, but the small-scale variation — the entropy the key is
// mined from — is completely different. Quantified below each trace by the
// Pearson correlations of the raw streams and of their short-window
// differences (the small-scale component).
#include <cstdio>
#include <vector>

#include "channel/trace.h"
#include "common/bench_io.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/dataset.h"

using namespace vkey;
using namespace vkey::channel;
using namespace vkey::core;

namespace {

void dump(ScenarioKind kind, std::uint64_t seed, std::size_t rounds_n,
          Table& corr) {
  TraceConfig cfg;
  cfg.scenario = make_scenario(kind, 50.0);
  cfg.device_eve = dragino_lora_shield();
  cfg.seed = seed;
  TraceGenerator gen(cfg);
  const auto rounds = gen.generate(rounds_n);
  const ArRssiExtractor ex(0.04);
  const auto st = extract_streams(rounds, ex, 4);

  std::printf("# %s: index, alice_arrssi, bob_arrssi, eve_arrssi\n",
              to_string(kind).c_str());
  for (std::size_t i = 0; i < st.alice.size(); i += 4) {
    std::printf("%4zu, %7.2f, %7.2f, %7.2f\n", i, st.alice[i], st.bob[i],
                st.eve[i]);
  }

  // Small-scale component: first differences kill the shared slow trend.
  auto diff = [](const std::vector<double>& x) {
    std::vector<double> d;
    for (std::size_t i = 1; i < x.size(); ++i) d.push_back(x[i] - x[i - 1]);
    return d;
  };
  const double raw_ab = stats::pearson(st.alice, st.bob);
  const double raw_ae = stats::pearson(st.alice, st.eve);
  const double ss_ab = stats::pearson(diff(st.alice), diff(st.bob));
  const double ss_ae = stats::pearson(diff(st.alice), diff(st.eve));
  std::printf("raw corr:        alice-bob %.3f, alice-eve %.3f\n", raw_ab,
              raw_ae);
  std::printf("small-scale corr: alice-bob %.3f, alice-eve %.3f\n\n", ss_ab,
              ss_ae);
  corr.add_row({to_string(kind), Table::fmt(raw_ab, 3), Table::fmt(raw_ae, 3),
                Table::fmt(ss_ab, 3), Table::fmt(ss_ae, 3)});
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("fig16_eve_trace", argc, argv);
  std::printf("Fig. 16: arRSSI traces of Alice, Bob and Eve (Eve follows "
              "Alice's route, %0.0f m offset)\n\n",
              kEveOffsetM);
  Table corr({"scenario", "raw alice-bob", "raw alice-eve",
              "small-scale alice-bob", "small-scale alice-eve"});
  const std::size_t rounds = report.scaled(120, 40);
  dump(ScenarioKind::kV2VUrban, 16, rounds, corr);
  dump(ScenarioKind::kV2VRural, 17, rounds, corr);
  report.add_table("fig16_eve_corr",
                   "Fig. 16: Eve's trace correlation (raw vs small-scale "
                   "component)",
                   corr);
  report.write();
  return 0;
}
