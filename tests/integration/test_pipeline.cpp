#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/error.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "core/reconciler.h"
#include "metrics_on.h"
#include "protocol/reliability.h"

namespace vkey::core {
namespace {

PipelineConfig small_config(bool use_prediction = true) {
  PipelineConfig cfg;
  cfg.trace.scenario =
      channel::make_scenario(channel::ScenarioKind::kV2VUrban, 50.0);
  cfg.trace.seed = 99;
  cfg.predictor.hidden = 8;
  cfg.predictor_epochs = 4;
  cfg.use_prediction = use_prediction;
  return cfg;
}

TEST(Pipeline, EndToEndProducesMetrics) {
  KeyGenPipeline p(small_config());
  const auto m = p.run(120, 120);
  EXPECT_GT(m.blocks, 0u);
  EXPECT_GT(m.mean_kar_pre, 0.6);
  EXPECT_LE(m.mean_kar_post, 1.0);
  EXPECT_GE(m.mean_kar_post, m.mean_kar_pre - 0.1);
  EXPECT_GT(m.test_duration_s, 0.0);
  EXPECT_GE(m.kgr_bits_per_s, 0.0);
}

TEST(Pipeline, ReconciliationImprovesAgreement) {
  KeyGenPipeline p(small_config(/*use_prediction=*/false));
  const auto m = p.run(120, 200);
  EXPECT_GT(m.mean_kar_post, m.mean_kar_pre);
}

TEST(Pipeline, EveStaysNearChance) {
  KeyGenPipeline p(small_config(/*use_prediction=*/false));
  const auto m = p.run(120, 200);
  // The paper's one-shot attack, scored as Fig. 15 scores it: one pass of a
  // trained decoder on y_Bob with Eve's material from each block.
  AutoencoderReconciler decoder{ReconcilerConfig{}};
  decoder.train(1200, 15);
  std::vector<double> eve;
  for (const auto& blk : p.blocks()) {
    ASSERT_EQ(blk.eve_raw.size(), blk.bob_key.size());
    eve.push_back(
        decoder.reconcile_one_shot(blk.eve_raw, decoder.encode_bob(blk.bob_key))
            .agreement(blk.bob_key));
  }
  ASSERT_EQ(eve.size(), m.blocks);
  EXPECT_LT(vkey::stats::mean(eve), 0.65);
  EXPECT_GT(vkey::stats::mean(eve), 0.35);
}

TEST(Pipeline, BlocksExposedAfterRun) {
  KeyGenPipeline p(small_config(/*use_prediction=*/false));
  const auto m = p.run(120, 120);
  EXPECT_EQ(p.blocks().size(), m.blocks);
  for (const auto& blk : p.blocks()) {
    EXPECT_EQ(blk.bob_key.size(), 64u);
    EXPECT_EQ(blk.alice_corrected.size(), 64u);
  }
}

TEST(Pipeline, AmplifiedStreamOnlyFromSuccessfulBlocks) {
  KeyGenPipeline p(small_config(/*use_prediction=*/false));
  const auto m = p.run(120, 250);
  std::size_t successes = 0;
  for (const auto& blk : p.blocks()) successes += blk.success;
  if (successes > 0) {
    EXPECT_EQ(p.amplified_key_stream().size(), successes * 128u);
  }
  (void)m;
}

TEST(Pipeline, ConfigConsistencyChecked) {
  PipelineConfig bad = small_config();
  bad.predictor.seq_len = 32;  // mismatch with dataset seq_len (64)
  EXPECT_THROW(KeyGenPipeline{bad}, vkey::Error);
}

TEST(Pipeline, AccessorsRequireRun) {
  KeyGenPipeline p(small_config());
  EXPECT_THROW(p.predictor(), vkey::Error);
  EXPECT_THROW(p.amplified_key_stream(), vkey::Error);
}

TEST(Pipeline, StageTimersAndCountersPopulatedAfterRun) {
  MetricsOn on;
  auto& reg = metrics::Registry::global();
  reg.reset();
  KeyGenPipeline p(small_config(/*use_prediction=*/false));
  const auto m = p.run(120, 120);
  ASSERT_GT(m.blocks, 0u);

  // Every pipeline stage must have recorded at least one timing sample.
  for (const char* stage :
       {"pipeline.stage.probe_ms", "pipeline.stage.extract_ms",
        "pipeline.stage.quantize_ms", "pipeline.stage.reconcile_ms",
        "pipeline.stage.eval_ms"}) {
    EXPECT_GT(reg.histogram(stage).count(), 0u) << stage;
  }
  std::size_t successes = 0;
  for (const auto& blk : p.blocks()) successes += blk.success;
  EXPECT_EQ(reg.counter("pipeline.runs").value(), 1u);
  EXPECT_EQ(reg.counter("pipeline.blocks.total").value(), m.blocks);
  EXPECT_EQ(reg.counter("pipeline.bits.reconciled").value(), m.blocks * 64);
  EXPECT_EQ(reg.counter("pipeline.blocks.success").value(), successes);
  EXPECT_EQ(reg.counter("pipeline.bits.agreed").value(), successes * 64);
  EXPECT_EQ(reg.counter("pipeline.bits.quantized").value(), m.blocks * 64);

  // The amplify stage runs lazily, on the first key-stream request.
  if (successes > 0) {
    (void)p.amplified_key_stream();
    EXPECT_GT(reg.histogram("pipeline.stage.amplify_ms").count(), 0u);
    EXPECT_GT(reg.counter("pipeline.bits.amplified").value(), 0u);
  }

  // Driving an agreement end to end bumps the reliability counters.
  auto& attempts = reg.counter("reliability.attempts");
  auto& established = reg.counter("reliability.established");
  const std::uint64_t attempts_before = attempts.value();
  const std::uint64_t established_before = established.value();
  const auto& blk = p.blocks().front();
  protocol::ReliabilityConfig cfg;
  cfg.max_session_attempts = 1;
  protocol::PublicChannel ch;
  const auto report = protocol::run_reliable_key_agreement(
      ch, p.reconciler(), cfg, [&blk](std::size_t) {
        return std::make_pair(blk.alice_raw, blk.bob_key);
      });
  EXPECT_EQ(attempts.value(), attempts_before + 1);
  EXPECT_EQ(established.value(),
            established_before + (report.established ? 1u : 0u));
}

TEST(Pipeline, DeterministicAcrossRuns) {
  KeyGenPipeline p1(small_config(false));
  KeyGenPipeline p2(small_config(false));
  const auto m1 = p1.run(120, 120);
  const auto m2 = p2.run(120, 120);
  EXPECT_DOUBLE_EQ(m1.mean_kar_pre, m2.mean_kar_pre);
  EXPECT_DOUBLE_EQ(m1.mean_kar_post, m2.mean_kar_post);
}

}  // namespace
}  // namespace vkey::core
