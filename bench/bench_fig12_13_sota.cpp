// Fig. 12 + Fig. 13 — comparison with the state of the art.
//
// Vehicle-Key vs LoRa-Key (Xu et al.), Han et al. and Gao et al. across the
// four scenarios, using each baseline's paper-tuned parameters (LoRa-Key
// alpha = 0.8 and a 20x64 CS matrix; Han k = 3, 4 cascade iterations; Gao
// interval = 20, 50 rounds).
//
// Paper shape (Fig. 12): Vehicle-Key has the best KAR everywhere with the
// smallest variance. (Fig. 13): Vehicle-Key's KGR is roughly an order of
// magnitude above every baseline (they extract one pRSSI per probe
// exchange; Vehicle-Key mines the per-symbol register RSSI), with rural
// below urban and V2I below V2V.
#include <vector>

#include "baselines/baseline.h"
#include "channel/trace.h"
#include "common/bench_io.h"
#include "common/table.h"
#include "core/pipeline.h"

using namespace vkey;
using namespace vkey::channel;

namespace {

struct Row {
  double kar = 0.0;
  double kar_std = 0.0;
  double kgr = 0.0;
};

Row run_vehicle_key(const BenchReport& report, ScenarioKind kind,
                    std::uint64_t seed) {
  core::PipelineConfig cfg;
  cfg.trace.scenario = make_scenario(kind, 50.0);
  cfg.trace.seed = seed;
  cfg.predictor.hidden = 32;
  cfg.predictor_epochs = report.scaled(25, 6);
  core::KeyGenPipeline pipeline(cfg);
  const auto m =
      pipeline.run(report.scaled(700, 120), report.scaled(500, 120));
  return {m.mean_kar_post, m.std_kar_post, m.kgr_bits_per_s};
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("fig12_13_sota", argc, argv);
  Table kar_table({"scenario", "Vehicle-Key", "LoRa-Key", "Han et al.",
                   "Gao et al."});
  Table kgr_table({"scenario", "Vehicle-Key", "LoRa-Key", "Han et al.",
                   "Gao et al."});

  for (const auto kind : kAllScenarios) {
    const std::uint64_t seed = 40 + static_cast<std::uint64_t>(kind);

    // Baselines all consume the same probe trace.
    TraceConfig tc;
    tc.scenario = make_scenario(kind, 50.0);
    tc.seed = seed;
    TraceGenerator gen(tc);
    const auto rounds = gen.generate(report.scaled(1200, 250));
    const double dur = gen.round_duration();

    const Row vk = run_vehicle_key(report, kind, seed);
    const auto lk = baselines::lora_key(rounds, dur);
    const auto han = baselines::han_v2v(rounds, dur);
    const auto gao = baselines::gao_model(rounds, dur);

    kar_table.add_row(
        {to_string(kind),
         Table::pct(vk.kar) + " ± " + Table::pct(vk.kar_std, 1),
         Table::pct(lk.mean_kar) + " ± " + Table::pct(lk.std_kar, 1),
         Table::pct(han.mean_kar) + " ± " + Table::pct(han.std_kar, 1),
         Table::pct(gao.mean_kar) + " ± " + Table::pct(gao.std_kar, 1)});
    kgr_table.add_row({to_string(kind), Table::fmt(vk.kgr, 3),
                       Table::fmt(lk.kgr_bits_per_s, 3),
                       Table::fmt(han.kgr_bits_per_s, 3),
                       Table::fmt(gao.kgr_bits_per_s, 3)});
  }

  const std::string kar_caption =
      "Fig. 12: key agreement rate vs state of the art";
  const std::string kgr_caption =
      "Fig. 13: key generation rate (net secret bit/s)";
  kar_table.print(kar_caption);
  std::printf("\n");
  kgr_table.print(kgr_caption);
  report.add_table("fig12_kar", kar_caption, kar_table);
  report.add_table("fig13_kgr", kgr_caption, kgr_table);
  report.write();
  return 0;
}
