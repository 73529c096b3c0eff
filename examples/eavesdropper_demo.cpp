// Eavesdropper demo: everything Eve can do, and why none of it works.
//
// Eve follows Alice's car a few metres behind, records every radio frame
// and every protocol message, and knows the protocol, the trained models
// and the session parameters. This demo walks through her three options:
//   1. quantize her own observations (imitating attack),
//   2. feed the overheard syndrome + her material to the protocol's public
//      decode (eavesdropping attack; stronger than the paper's Fig. 15a
//      one-shot decoder, which bench_fig15_security reports),
//   3. actively tamper with the syndrome in flight (MITM),
//   4. replay frames Bob already accepted.
//
// Build & run:  ./build/examples/eavesdropper_demo
#include <cstdio>

#include "core/pipeline.h"
#include "protocol/attacks.h"
#include "protocol/reliability.h"

using namespace vkey;
using namespace vkey::channel;
using namespace vkey::core;

int main() {
  PipelineConfig cfg;
  cfg.trace.scenario = make_scenario(ScenarioKind::kV2VUrban, 50.0);
  cfg.trace.seed = 5150;
  cfg.use_prediction = false;
  KeyGenPipeline pipeline(cfg);
  const auto metrics = pipeline.run(150, 400);

  std::printf("Legitimate link:    %.2f%% bit agreement after "
              "reconciliation\n",
              100.0 * metrics.mean_kar_post);
  std::printf("1. Imitating attack: Eve drives the same route and runs the "
              "same pipeline:\n");
  std::printf("   -> %.2f%% agreement with Bob's key "
              "(coin-flipping scores 50%%)\n",
              100.0 * metrics.mean_eve_kar_iterative);
  std::printf("   Her receiver is > lambda/2 (%.2f m) from both cars: the "
              "multipath fading she records is statistically independent.\n",
              0.6912 / 2.0);

  std::printf("2. Eavesdropping attack: she decodes the overheard syndrome "
              "with her own material:\n");
  std::printf("   -> the protocol's own decode %.2f%% — the syndrome only "
              "expresses *differences* from Bob's key, useless without "
              "correlated material.\n",
              100.0 * metrics.mean_eve_kar_iterative);

  // 3. Active MITM on a live session.
  const KeyBlockResult* block = nullptr;
  for (const auto& blk : pipeline.blocks()) {
    if (blk.success && blk.alice_raw != blk.bob_key) {
      block = &blk;
      break;
    }
  }
  if (block == nullptr) {
    std::printf("(no usable block in this short trace; rerun)\n");
    return 1;
  }
  // Alice starts from her raw key, as in a real exchange; one block of
  // probe material, so one attempt.
  protocol::ReliabilityConfig link_cfg;
  link_cfg.max_session_attempts = 1;
  protocol::PublicChannel channel;
  protocol::install_syndrome_tamper(channel);
  const auto report = protocol::run_reliable_key_agreement(
      channel, pipeline.reconciler(), link_cfg, [block](std::size_t) {
        return std::make_pair(block->alice_raw, block->bob_key);
      });
  std::printf("3. MITM tampering with the syndrome in flight:\n");
  std::printf("   -> session %s (Alice's verdict: %s)\n",
              report.established ? "ESTABLISHED (!!)" : "aborted",
              to_string(report.attempt_log.front().alice_reject).c_str());

  // 4. Bob's nonce window: a bit-identical copy of a frame he accepted, then
  // a forged frame under the same nonce.
  protocol::SessionConfig scfg;
  protocol::BobSession bob(scfg, pipeline.reconciler(), block->bob_key);
  protocol::Message req;
  req.type = protocol::MessageType::kKeyGenRequest;
  req.session_id = scfg.session_id;
  req.nonce = 1;
  bob.handle(req);
  const bool copy_answered = bob.handle(req).has_value();
  const protocol::RejectReason copy_reason = bob.last_reject();
  protocol::Message forged = req;
  forged.payload = {0xde, 0xad};
  const bool forged_answered = bob.handle(forged).has_value();
  std::printf("4. Replaying a request Bob already accepted:\n");
  std::printf("   -> bit-identical copy: %s (%s), Bob still %s\n",
              copy_answered ? "cached accept re-sent" : "ignored",
              to_string(copy_reason).c_str(),
              to_string(bob.state()).c_str());
  std::printf("   -> forged frame under the seen nonce: %s (%s)\n",
              forged_answered ? "ANSWERED (!!)" : "rejected",
              to_string(bob.last_reject()).c_str());
  std::printf("\nEve leaves empty-handed.\n");
  return 0;
}
