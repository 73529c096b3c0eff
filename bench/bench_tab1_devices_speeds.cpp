// Table I — key agreement rate across devices and speeds.
//
// Three radio models (Dragino LoRa Shield, MultiTech xDot, MultiTech mDot)
// x three speeds (30 / 60 / 90 km/h), post-reconciliation KAR of the full
// pipeline. Paper shape: all cells high and close; a slight monotone
// degradation with speed; near-identical behaviour across devices.
#include <functional>
#include <vector>

#include "channel/device.h"
#include "common/bench_io.h"
#include "common/table.h"
#include "core/pipeline.h"

using namespace vkey;
using namespace vkey::channel;
using namespace vkey::core;

namespace {

double kar_for(const BenchReport& report, const DeviceModel& device,
               double speed, std::uint64_t seed) {
  PipelineConfig cfg;
  cfg.trace.scenario = make_scenario(ScenarioKind::kV2VUrban, speed);
  cfg.trace.device_alice = device;
  cfg.trace.device_bob = device;
  cfg.trace.device_eve = device;
  cfg.trace.seed = seed;
  cfg.use_prediction = false;  // isolates channel/device effects
  KeyGenPipeline pipeline(cfg);
  return pipeline.run(report.scaled(150, 40), report.scaled(500, 150))
      .mean_kar_post;
}

}  // namespace

int main(int argc, char** argv) {
  BenchReport report("tab1_devices_speeds", argc, argv);
  const std::vector<std::pair<const char*, DeviceModel>> devices = {
      {"Dragino LoRa Shield", dragino_lora_shield()},
      {"MultiTech xDot", multitech_xdot()},
      {"MultiTech mDot", multitech_mdot()},
  };
  const double speeds[] = {30.0, 60.0, 90.0};

  Table t({"device", "30 km/h", "60 km/h", "90 km/h", "mean"});
  std::vector<double> col_sum(3, 0.0);
  for (const auto& [name, device] : devices) {
    std::vector<std::string> row{name};
    double sum = 0.0;
    for (int si = 0; si < 3; ++si) {
      const double kar = kar_for(report, device, speeds[si],
                                 100 + static_cast<std::uint64_t>(si));
      row.push_back(Table::pct(kar));
      sum += kar;
      col_sum[static_cast<std::size_t>(si)] += kar;
    }
    row.push_back(Table::pct(sum / 3.0));
    t.add_row(std::move(row));
  }
  t.add_row({"Mean", Table::pct(col_sum[0] / 3.0),
             Table::pct(col_sum[1] / 3.0), Table::pct(col_sum[2] / 3.0),
             Table::pct((col_sum[0] + col_sum[1] + col_sum[2]) / 9.0)});
  const std::string caption =
      "Table I: key agreement rate per device and speed "
      "(post-reconciliation)";
  t.print(caption);
  report.add_table("tab1_kar", caption, t);
  report.write();
  return 0;
}
