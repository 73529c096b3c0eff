// V2V convoy scenario: two vehicles travelling together rekey periodically.
//
// Demonstrates:
//  * running the pipeline once to train models for the environment,
//  * deriving a fresh session key from consecutive key blocks (periodic
//    rekeying — the IoV pattern where short-lived links rotate keys),
//  * how the key agreement rate behaves across convoy speeds.
//
// Build & run:  ./build/examples/v2v_convoy
#include <cstdio>

#include "common/table.h"
#include "core/pipeline.h"
#include "protocol/session.h"

using namespace vkey;
using namespace vkey::channel;
using namespace vkey::core;

int main() {
  // --- speed sweep: how robust is the convoy link? ------------------------
  Table t({"convoy speed (km/h)", "KAR", "KGR (bit/s)", "usable blocks"});
  for (double speed : {30.0, 60.0, 90.0}) {
    PipelineConfig cfg;
    cfg.trace.scenario = make_scenario(ScenarioKind::kV2VRural, speed);
    cfg.trace.seed = 1234 + static_cast<std::uint64_t>(speed);
    cfg.use_prediction = false;  // keep the example quick
    KeyGenPipeline pipeline(cfg);
    const auto m = pipeline.run(150, 300);
    std::size_t usable = 0;
    for (const auto& blk : pipeline.blocks()) usable += blk.success;
    t.add_row({Table::fmt(speed, 0), Table::pct(m.mean_kar_post),
               Table::fmt(m.kgr_bits_per_s, 2), std::to_string(usable)});
  }
  t.print("V2V convoy (rural highway): key quality vs speed");

  // --- periodic rekeying over one trace -----------------------------------
  PipelineConfig cfg;
  cfg.trace.scenario = make_scenario(ScenarioKind::kV2VRural, 60.0);
  cfg.trace.seed = 99;
  cfg.use_prediction = false;
  KeyGenPipeline pipeline(cfg);
  pipeline.run(150, 400);

  std::printf("\nPeriodic rekeying: each usable block becomes one session "
              "key.\n");
  const PrivacyAmplifier amplifier(128);
  int session = 0;
  for (const auto& blk : pipeline.blocks()) {
    if (!blk.success || session >= 5) continue;
    const BitVec key = amplifier.amplify(blk.alice_corrected,
                                         static_cast<std::uint64_t>(session));
    const auto bytes = key.to_bytes();
    std::printf("  session %d key: %02x%02x%02x%02x... (128 bits)\n",
                session, bytes[0], bytes[1], bytes[2], bytes[3]);
    ++session;
  }
  if (session == 0) {
    std::printf("  (no usable blocks in this short demo trace)\n");
    return 1;
  }
  std::printf("Rekeyed %d times without any pre-shared secret.\n", session);
  return 0;
}
