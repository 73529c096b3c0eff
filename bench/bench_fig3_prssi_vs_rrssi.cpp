// Fig. 3 — preliminary study: packet RSSI vs register-RSSI-derived arRSSI
// correlation in the four experiments (V2V/V2I x rural/urban).
//
// Paper shape: pRSSI correlation is below ~0.5 in most scenarios (only the
// rural LOS cases are higher), while the coherence-adjacent arRSSI
// correlation is dramatically higher everywhere — the observation that
// motivates Vehicle-Key.
#include <cstdio>
#include <vector>

#include "channel/trace.h"
#include "common/bench_io.h"
#include "common/stats.h"
#include "common/table.h"
#include "core/arrssi.h"

using namespace vkey;
using namespace vkey::channel;

int main(int argc, char** argv) {
  BenchReport report("fig3_prssi_vs_rrssi", argc, argv);
  const std::size_t kRounds = report.scaled(400, 80);
  const core::ArRssiExtractor extractor(0.10);

  Table t({"experiment", "pRSSI corr", "arRSSI corr", "Eve arRSSI corr"});
  int exp_no = 1;
  // Paper order: Exp.1 V2V rural, Exp.2 V2I rural, Exp.3 V2V urban,
  // Exp.4 V2I urban.
  const ScenarioKind order[] = {ScenarioKind::kV2VRural,
                                ScenarioKind::kV2IRural,
                                ScenarioKind::kV2VUrban,
                                ScenarioKind::kV2IUrban};
  for (const auto kind : order) {
    TraceConfig cfg;
    cfg.scenario = make_scenario(kind, 50.0);
    cfg.device_eve = dragino_lora_shield();  // the Eve column reads her
    cfg.seed = 31;
    TraceGenerator gen(cfg);
    std::vector<double> pa, pb, aa, ab, ae;
    for (const auto& r : gen.generate(kRounds)) {
      pa.push_back(r.alice_rx.prssi());
      pb.push_back(r.bob_rx.prssi());
      const auto bp = extractor.boundary_pair(r);
      aa.push_back(bp.alice_arrssi);
      ab.push_back(bp.bob_arrssi);
      ae.push_back(extractor.eve_boundary(r));
    }
    t.add_row({"Exp." + std::to_string(exp_no++) + " " + to_string(kind),
               Table::fmt(stats::pearson(pa, pb), 3),
               Table::fmt(stats::pearson(aa, ab), 3),
               Table::fmt(stats::pearson(ab, ae), 3)});
  }
  const std::string caption =
      "Fig. 3: pRSSI vs arRSSI correlation per experiment (50 km/h)";
  t.print(caption);
  report.add_table("fig3_correlation", caption, t);
  report.write();
  return 0;
}
