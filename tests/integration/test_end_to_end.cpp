// Full-stack integration: channel simulation -> key material -> protocol
// session -> AES-protected payload exchange, exactly the workflow the
// quickstart example demonstrates.
#include <gtest/gtest.h>

#include "core/dataset.h"
#include "core/pipeline.h"
#include "protocol/attacks.h"
#include "protocol/key_schedule.h"
#include "protocol/reliability.h"

namespace vkey {
namespace {

class EndToEnd : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    core::PipelineConfig cfg;
    cfg.trace.scenario =
        channel::make_scenario(channel::ScenarioKind::kV2IRural, 50.0);
    cfg.trace.seed = 31337;
    cfg.predictor.hidden = 8;
    cfg.predictor_epochs = 4;
    cfg.use_prediction = false;  // keep the suite fast
    pipeline_ = new core::KeyGenPipeline(cfg);
    metrics_ = pipeline_->run(120, 250);
  }
  static void TearDownTestSuite() {
    delete pipeline_;
    pipeline_ = nullptr;
  }

  /// The first block the pipeline reconciled exactly from a raw key that
  /// differed from Bob's, so the session's reconciler has bits to fix.
  static const core::KeyBlockResult* reconcilable_block() {
    for (const auto& blk : pipeline_->blocks()) {
      if (blk.success && blk.alice_raw != blk.bob_key) return &blk;
    }
    return nullptr;
  }

  /// Run the agreement protocol over a fault-free link, Alice starting
  /// from her raw (pre-reconciliation) key and Bob from his.
  static protocol::AgreementReport agree(const core::KeyBlockResult& block,
                                         protocol::PublicChannel& ch,
                                         std::uint64_t session_id = 1) {
    protocol::ReliabilityConfig cfg;
    cfg.base_session_id = session_id;
    cfg.max_session_attempts = 1;
    return protocol::run_reliable_key_agreement(
        ch, pipeline_->reconciler(), cfg, [&block](std::size_t) {
          return std::make_pair(block.alice_raw, block.bob_key);
        });
  }

  static core::KeyGenPipeline* pipeline_;
  static core::PipelineMetrics metrics_;
};

core::KeyGenPipeline* EndToEnd::pipeline_ = nullptr;
core::PipelineMetrics EndToEnd::metrics_;

TEST_F(EndToEnd, ChannelMaterialReachesProtocolGrade) {
  EXPECT_GT(metrics_.mean_kar_post, 0.90);
}

TEST_F(EndToEnd, SessionOverRealKeyMaterial) {
  // Pick a reconcilable block from the pipeline and run the full message
  // protocol over it.
  const core::KeyBlockResult* block = reconcilable_block();
  ASSERT_NE(block, nullptr) << "no reconcilable block in the test trace";

  protocol::PublicChannel ch;
  const auto report = agree(*block, ch, /*session_id=*/7);
  ASSERT_TRUE(report.established);
  const std::uint64_t session_id = report.attempt_log.front().session_id;
  EXPECT_EQ(session_id, 7u);
  // Bob's side of the key, from his raw key alone.
  const BitVec bob_key = core::PrivacyAmplifier(protocol::kFinalKeyBits)
                             .amplify(block->bob_key, session_id);
  EXPECT_EQ(report.key, bob_key);

  // And the established key protects traffic end to end.
  protocol::KeySchedule alice_link(report.key, session_id,
                                   protocol::KeySchedule::Role::kInitiator);
  protocol::KeySchedule bob_link(bob_key, session_id,
                                 protocol::KeySchedule::Role::kResponder);
  const std::vector<std::uint8_t> v2v_msg{'b', 'r', 'a', 'k', 'e', '!'};
  const auto sealed = alice_link.seal(100, v2v_msg);
  const auto opened = bob_link.open(sealed, 0.0);
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, v2v_msg);
}

TEST_F(EndToEnd, EveCannotDecryptTraffic) {
  const core::KeyBlockResult* block = reconcilable_block();
  ASSERT_NE(block, nullptr);

  protocol::PublicChannel ch;
  std::vector<protocol::Message> transcript;
  protocol::record_transcript(ch, transcript);
  const auto report = agree(*block, ch);
  ASSERT_TRUE(report.established);
  const std::uint64_t session_id = report.attempt_log.front().session_id;

  protocol::KeySchedule alice_link(report.key, session_id,
                                   protocol::KeySchedule::Role::kInitiator);
  const auto sealed = alice_link.seal(5, {1, 2, 3});

  // Eve guesses a key from the syndrome + her own material.
  const auto syndrome = protocol::find_syndrome(transcript);
  ASSERT_TRUE(syndrome.has_value());
  const BitVec ke = random_bits(64, vkey::Rng(123));
  const BitVec eve_raw =
      protocol::eavesdrop_attack(pipeline_->reconciler(), ke, *syndrome);
  const core::PrivacyAmplifier amp(protocol::kFinalKeyBits);
  protocol::KeySchedule eve_link(amp.amplify(eve_raw, session_id), session_id,
                                 protocol::KeySchedule::Role::kResponder);
  EXPECT_FALSE(eve_link.open(sealed, 0.0).has_value());
}

TEST_F(EndToEnd, AmplifiedKeysLookRandomEnoughForNist) {
  // Not the full Table II battery (the bench covers that) — a smoke check
  // that amplified material is at least balanced.
  const BitVec stream = pipeline_->amplified_key_stream();
  if (stream.size() >= 256) {
    const double ones = static_cast<double>(stream.weight()) /
                        static_cast<double>(stream.size());
    EXPECT_NEAR(ones, 0.5, 0.15);
  }
}

}  // namespace
}  // namespace vkey
