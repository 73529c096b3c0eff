// Quickstart: establish a shared 128-bit key between two simulated
// LoRa-equipped vehicles and use it to protect a payload.
//
// The five-minute tour of the public API:
//   1. KeyGenPipeline simulates channel probing, trains the BiLSTM
//      prediction/quantization model, and reconciles key blocks with the
//      public syndrome code.
//   2. run_reliable_key_agreement drives AliceSession/BobSession through the
//      authenticated agreement protocol (syndrome + MAC, key confirmation,
//      replay protection) over an ARQ link, the path every workload runs.
//   3. KeySchedule derives directional AES-128-CTR + HMAC traffic keys from
//      the established key; each side seals with its own direction.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "core/pipeline.h"
#include "protocol/key_schedule.h"
#include "protocol/reliability.h"

int main() {
  using namespace vkey;

  // --- 1. channel probing + key generation -------------------------------
  core::PipelineConfig cfg;
  cfg.trace.scenario =
      channel::make_scenario(channel::ScenarioKind::kV2IRural, /*speed=*/50.0);
  cfg.trace.seed = 2025;
  cfg.predictor.hidden = 16;   // small model: quickstart favours speed
  cfg.predictor_epochs = 10;

  std::printf("Probing the channel and training Vehicle-Key models...\n");
  core::KeyGenPipeline pipeline(cfg);
  const auto metrics = pipeline.run(/*train_rounds=*/300, /*test_rounds=*/200);

  std::printf("  key agreement rate: %.2f%% (pre-reconciliation %.2f%%)\n",
              100.0 * metrics.mean_kar_post, 100.0 * metrics.mean_kar_pre);
  std::printf("  key generation rate: %.2f bit/s over %.0f s of probing\n",
              metrics.kgr_bits_per_s, metrics.test_duration_s);
  std::printf("  eavesdropper agreement: %.2f%% (chance = 50%%)\n",
              100.0 * metrics.mean_eve_kar_iterative);

  // --- 2. authenticated key agreement over the public channel ------------
  // A block the pipeline reconciled, with errors for the session to fix.
  const core::KeyBlockResult* block = nullptr;
  for (const auto& blk : pipeline.blocks()) {
    if (blk.success && blk.alice_raw != blk.bob_key) {
      block = &blk;
      break;
    }
  }
  if (block == nullptr) {
    std::printf("no reconcilable block in this short demo trace; rerun\n");
    return 1;
  }

  // Alice starts from her raw key; the session reconciles it against Bob's
  // syndrome. One block of probe material, so one attempt.
  protocol::ReliabilityConfig link_cfg;
  link_cfg.max_session_attempts = 1;
  protocol::PublicChannel channel;
  const auto report = protocol::run_reliable_key_agreement(
      channel, pipeline.reconciler(), link_cfg, [block](std::size_t) {
        return std::make_pair(block->alice_raw, block->bob_key);
      });
  if (!report) {
    std::printf("key agreement failed (%s)\n",
                to_string(report.failure).c_str());
    return 1;
  }
  const std::uint64_t session_id = report.attempt_log.back().session_id;
  std::printf("Protocol complete: Alice reconciled %zu differing bits and "
              "both sides confirmed the same key (%zu frames on the air, "
              "ARQ acks included).\n",
              block->alice_raw.hamming_distance(block->bob_key),
              report.link.sent);

  // --- 3. protected V2V traffic ------------------------------------------
  using Role = protocol::KeySchedule::Role;
  protocol::KeySchedule alice_link(report.key, session_id, Role::kInitiator);
  protocol::KeySchedule bob_link(report.key, session_id, Role::kResponder);
  const std::vector<std::uint8_t> warning{'I', 'C', 'Y', ' ', 'R', 'O',
                                          'A', 'D', ' ', 'A', 'H', 'E',
                                          'A', 'D'};
  const auto sealed = alice_link.seal(/*nonce=*/100, warning);
  const auto opened = bob_link.open(sealed, /*now_ms=*/0.0);
  if (!opened || *opened != warning) {
    std::printf("payload protection failed\n");
    return 1;
  }
  std::printf("Bob decrypted Alice's warning: \"%.*s\"\n",
              static_cast<int>(opened->size()),
              reinterpret_cast<const char*>(opened->data()));
  std::printf("Quickstart OK.\n");
  return 0;
}
