// Determinism suite for the parallel execution layer (DESIGN.md "Parallel
// execution & determinism contract").
//
// The contract is bit-identity, not statistical closeness, so every
// comparison here is exact: EXPECT_EQ on doubles, whole BitVecs and dumped
// JSON. One lane is the sequential reference; any lane count must
// reproduce it bit for bit, and two runs of the same config and seed must
// agree regardless of machine load. The pipeline runs on the process
// default lane count, which these tests set and then restore.
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.h"
#include "common/parallel.h"
#include "core/pipeline.h"
#include "core/reconciler.h"

namespace vkey::core {
namespace {

PipelineConfig det_config(bool use_prediction) {
  PipelineConfig cfg;
  cfg.trace.scenario =
      channel::make_scenario(channel::ScenarioKind::kV2VUrban, 50.0);
  cfg.trace.seed = 99;
  cfg.predictor.hidden = 8;
  cfg.predictor_epochs = 3;
  cfg.use_prediction = use_prediction;
  return cfg;
}

struct RunOutput {
  PipelineMetrics m;
  std::vector<KeyBlockResult> blocks;
  BitVec amplified;
};

/// One run on `threads` lanes (0 = the process default as found).
RunOutput run_once(const PipelineConfig& cfg, std::size_t threads = 0) {
  const std::size_t lanes = parallel::default_threads();
  if (threads != 0) parallel::set_default_threads(threads);
  KeyGenPipeline p(cfg);
  RunOutput out;
  out.m = p.run(100, 140);
  out.blocks = p.blocks();
  out.amplified = p.amplified_key_stream();
  parallel::set_default_threads(lanes);
  return out;
}

// Everything the bench JSON exporters would serialize, as one string, so a
// mismatch in any field fails loudly with both documents printed.
std::string metrics_doc(const PipelineMetrics& m) {
  json::Value doc = json::Value::object();
  doc.set("blocks", json::Value(m.blocks));
  doc.set("mean_kar_pre", json::Value(m.mean_kar_pre));
  doc.set("mean_kar_post", json::Value(m.mean_kar_post));
  doc.set("std_kar_post", json::Value(m.std_kar_post));
  doc.set("key_success_rate", json::Value(m.key_success_rate));
  doc.set("mean_eve_kar_iterative", json::Value(m.mean_eve_kar_iterative));
  doc.set("eve_exact_blocks_iterative",
          json::Value(m.eve_exact_blocks_iterative));
  doc.set("test_duration_s", json::Value(m.test_duration_s));
  doc.set("kgr_bits_per_s", json::Value(m.kgr_bits_per_s));
  return doc.dump(2);
}

void expect_identical(const RunOutput& a, const RunOutput& b) {
  EXPECT_EQ(metrics_doc(a.m), metrics_doc(b.m));
  ASSERT_EQ(a.blocks.size(), b.blocks.size());
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    const auto& x = a.blocks[i];
    const auto& y = b.blocks[i];
    EXPECT_EQ(x.bob_key, y.bob_key) << "block " << i;
    EXPECT_EQ(x.alice_raw, y.alice_raw) << "block " << i;
    EXPECT_EQ(x.alice_corrected, y.alice_corrected) << "block " << i;
    EXPECT_EQ(x.success, y.success) << "block " << i;
    EXPECT_EQ(x.kar_pre, y.kar_pre) << "block " << i;
    EXPECT_EQ(x.kar_post, y.kar_post) << "block " << i;
    EXPECT_EQ(x.eve_raw, y.eve_raw) << "block " << i;
    EXPECT_EQ(x.eve_kar_iterative, y.eve_kar_iterative) << "block " << i;
  }
  EXPECT_EQ(a.amplified, b.amplified);
}

TEST(PipelineDeterminism, SameSeedTwiceIsIdentical) {
  const auto cfg = det_config(/*use_prediction=*/false);
  expect_identical(run_once(cfg), run_once(cfg));
}

TEST(PipelineDeterminism, LaneCountDoesNotChangeBits) {
  const auto cfg = det_config(false);
  const auto ref = run_once(cfg, 1);
  expect_identical(ref, run_once(cfg, 2));
  expect_identical(ref, run_once(cfg, 8));
}

TEST(PipelineDeterminism, LaneCountDoesNotChangeBitsWithPrediction) {
  const auto cfg = det_config(true);
  const auto ref = run_once(cfg, 1);
  expect_identical(ref, run_once(cfg, 4));
}

TEST(PipelineDeterminism, ReconcilerTrainingIsLaneCountInvariant) {
  // The default encoder (tied + frozen) and the three other tie x freeze
  // configurations: trained encoders add their own backward pass, untied
  // ones a second encoder with the negated gradient.
  for (const bool tie : {true, false}) {
    for (const bool freeze : {true, false}) {
      SCOPED_TRACE(std::string(tie ? "tied" : "untied") +
                   (freeze ? " + frozen" : " + trained"));
      ReconcilerConfig rc;
      rc.decoder_units = 64;
      rc.tie_encoders = tie;
      rc.freeze_encoder = freeze;

      auto train = [&](std::size_t threads) {
        ReconcilerConfig c = rc;
        c.threads = threads;
        AutoencoderReconciler r(c);
        const double loss = r.train(600, 6);
        return std::pair<double, AutoencoderReconciler>(loss, std::move(r));
      };

      auto [loss1, r1] = train(1);
      auto [loss4, r4] = train(4);
      EXPECT_EQ(loss1, loss4);

      // The trained parameters themselves must be bit-identical, not just
      // the reported loss: compare every weight of every layer.
      const auto p1 = r1.parameters();
      const auto p4 = r4.parameters();
      ASSERT_EQ(p1.size(), p4.size());
      for (std::size_t i = 0; i < p1.size(); ++i) {
        ASSERT_EQ(p1[i]->value.size(), p4[i]->value.size()) << "param " << i;
        for (std::size_t j = 0; j < p1[i]->value.size(); ++j) {
          ASSERT_EQ(p1[i]->value[j], p4[i]->value[j])
              << "param " << i << " element " << j;
        }
      }

      // And the public behavior agrees: identical syndromes for the same
      // key.
      BitVec key(rc.key_bits);
      for (std::size_t i = 0; i < key.size(); ++i)
        key.set(i, (i * 7 + 3) % 5 < 2);
      EXPECT_EQ(r1.encode_bob(key), r4.encode_bob(key));
    }
  }
}

}  // namespace
}  // namespace vkey::core
