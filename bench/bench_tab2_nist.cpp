// Table II — NIST SP 800-22 randomness battery on the generated keys.
//
// Runs the full pipeline, concatenates the privacy-amplified session keys
// into one bit stream and applies the Table II tests. Paper shape: every
// p-value above the 1% rejection threshold.
#include <cstdio>

#include "common/bench_io.h"
#include "common/table.h"
#include "core/pipeline.h"
#include "nist/nist.h"

using namespace vkey;
using namespace vkey::channel;
using namespace vkey::core;

int main(int argc, char** argv) {
  BenchReport report("tab2_nist", argc, argv);
  // Harvest keys from two scenarios to get a long stream.
  BitVec stream;
  for (const auto kind :
       {ScenarioKind::kV2VUrban, ScenarioKind::kV2IRural}) {
    PipelineConfig cfg;
    cfg.trace.scenario = make_scenario(kind, 50.0);
    cfg.trace.seed = 90 + static_cast<std::uint64_t>(kind);
    cfg.use_prediction = false;  // fastest path to many key blocks
    KeyGenPipeline pipeline(cfg);
    pipeline.run(report.scaled(150, 40), report.scaled(1200, 300));
    stream.append(pipeline.amplified_key_stream());
  }
  std::printf("collected %zu amplified key bits\n\n", stream.size());

  Table t({"NIST test", "p-value", "verdict"});
  for (const auto& r : nist::run_suite(stream)) {
    if (!r.p_value.has_value()) {
      t.add_row({r.name, "n/a (stream too short)", "skipped"});
      continue;
    }
    t.add_row({r.name, Table::fmt(*r.p_value, 6),
               r.pass() ? "pass" : "FAIL"});
  }
  const std::string caption =
      "Table II: NIST statistical test suite on amplified keys "
      "(reject if p < 0.01)";
  t.print(caption);
  report.add_table("tab2_nist", caption, t);
  report.add_scalar("amplified_key_bits", static_cast<double>(stream.size()));
  report.write();
  return 0;
}
