// Fig. 2 — preliminary study (Sec. II-B, "Experimental verification").
//
// (a) Pearson correlation between Alice's and Bob's packet RSSI as a
//     function of the LoRa data rate (vehicle speed fixed at 50 km/h).
//     Paper shape: correlation falls as the data rate drops; below
//     ~293 bps it sinks under 0.6, making direct pRSSI keying hopeless.
// (b) Correlation versus vehicle speed at 183 bps. Paper shape: monotone
//     decrease; below 0.6 beyond ~30 km/h.
#include <cstdio>
#include <vector>

#include "channel/trace.h"
#include "common/bench_io.h"
#include "common/stats.h"
#include "common/table.h"

using namespace vkey;
using namespace vkey::channel;

namespace {

double prssi_correlation(const TraceConfig& cfg, std::size_t rounds) {
  TraceGenerator gen(cfg);
  std::vector<double> a, b;
  for (const auto& r : gen.generate(rounds)) {
    a.push_back(r.alice_rx.prssi());
    b.push_back(r.bob_rx.prssi());
  }
  return stats::pearson(a, b);
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("fig2_preliminary", argc, argv);
  const std::size_t kRounds = report.scaled(300, 60);

  {
    Table t({"data rate (bps)", "SF", "BW (kHz)", "CR", "airtime (s)",
             "correlation"});
    for (double rate : {23.0, 46.0, 91.0, 183.0, 293.0, 586.0, 1172.0}) {
      TraceConfig cfg;
      cfg.scenario = make_scenario(ScenarioKind::kV2VUrban, 50.0);
      cfg.phy = LoRaPhy::params_for_bitrate(rate);
      cfg.seed = 21;
      const LoRaPhy phy(cfg.phy, kProbePayloadBytes);
      t.add_row({Table::fmt(phy.bit_rate(), 0),
                 std::to_string(cfg.phy.spreading_factor),
                 Table::fmt(cfg.phy.bandwidth_hz / 1e3, 1),
                 "4/" + std::to_string(cfg.phy.coding_rate_denom),
                 Table::fmt(phy.airtime(), 2),
                 Table::fmt(prssi_correlation(cfg, kRounds), 3)});
    }
    const std::string caption =
        "Fig. 2(a): pRSSI correlation vs data rate (V2V urban, 50 km/h)";
    t.print(caption);
    report.add_table("fig2a_data_rate", caption, t);
  }

  std::printf("\n");

  {
    Table t({"speed (km/h)", "coherence time (ms)", "correlation"});
    for (double speed : {10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0}) {
      TraceConfig cfg;
      cfg.scenario = make_scenario(ScenarioKind::kV2VUrban, speed);
      cfg.seed = 22;
      TraceGenerator gen(cfg);
      t.add_row({Table::fmt(speed, 0),
                 Table::fmt(gen.coherence_time_s() * 1e3, 1),
                 Table::fmt(prssi_correlation(cfg, kRounds), 3)});
    }
    const std::string caption =
        "Fig. 2(b): pRSSI correlation vs vehicle speed (183 bps)";
    t.print(caption);
    report.add_table("fig2b_speed", caption, t);
  }
  report.write();
  return 0;
}
