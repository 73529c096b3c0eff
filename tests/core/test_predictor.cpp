#include "core/predictor.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "bits_digest.h"
#include "common/error.h"
#include "nn/serialize.h"

namespace vkey::core {
namespace {

PredictorConfig tiny_config() {
  PredictorConfig cfg;
  cfg.seq_len = 16;
  cfg.hidden = 6;
  cfg.key_bits = 16;
  cfg.seed = 3;
  return cfg;
}

// A synthetic task with a learnable mapping: Bob's sequence is a smoothed,
// slightly shifted copy of Alice's; his bits are a median threshold of it.
std::vector<TrainingSample> synthetic_samples(const PredictorConfig& cfg,
                                              std::size_t n,
                                              std::uint64_t seed) {
  vkey::Rng rng(seed);
  std::vector<TrainingSample> out;
  for (std::size_t s = 0; s < n; ++s) {
    TrainingSample ts;
    ts.alice_seq.resize(cfg.seq_len);
    ts.bob_seq.resize(cfg.seq_len);
    ts.eve_seq.resize(cfg.seq_len);
    double walk = 0.5;
    for (std::size_t t = 0; t < cfg.seq_len; ++t) {
      walk = 0.8 * walk + 0.2 * rng.uniform();
      ts.alice_seq[t] = walk;
      ts.eve_seq[t] = rng.uniform();
    }
    for (std::size_t t = 0; t < cfg.seq_len; ++t) {
      const std::size_t prev = t > 0 ? t - 1 : 0;
      ts.bob_seq[t] = 0.5 * ts.alice_seq[t] + 0.5 * ts.alice_seq[prev];
    }
    // 1 bit per value via a fixed threshold (directly learnable).
    ts.bob_bits = BitVec(cfg.key_bits);
    for (std::size_t t = 0; t < cfg.key_bits; ++t) {
      ts.bob_bits.set(t, ts.bob_seq[t] > 0.5);
    }
    out.push_back(std::move(ts));
  }
  return out;
}

TEST(Predictor, ConfigValidated) {
  PredictorConfig bad = tiny_config();
  bad.seq_len = 2;
  EXPECT_THROW(PredictorQuantizer{bad}, vkey::Error);
  bad = tiny_config();
  bad.hidden = 1;
  EXPECT_THROW(PredictorQuantizer{bad}, vkey::Error);
}

TEST(Predictor, OutputShapes) {
  const PredictorConfig cfg = tiny_config();
  PredictorQuantizer p(cfg);
  const auto out = p.infer(nn::Vec(cfg.seq_len, 0.5));
  EXPECT_EQ(out.predicted_seq.size(), cfg.seq_len);
  EXPECT_EQ(out.probabilities.size(), cfg.key_bits);
  EXPECT_EQ(out.bits.size(), cfg.key_bits);
  for (double pr : out.probabilities) {
    EXPECT_GT(pr, 0.0);
    EXPECT_LT(pr, 1.0);
  }
}

TEST(Predictor, InputSizeChecked) {
  PredictorQuantizer p(tiny_config());
  EXPECT_THROW(p.infer(nn::Vec(3, 0.0)), vkey::Error);
}

TEST(Predictor, InferBatchBitEqualsInfer) {
  // infer_batch runs infer()'s body window after window in one shared
  // workspace; every member must equal its own infer() bit for bit, on the
  // float and the int8 path, for any batch size, so nothing may carry over
  // from one window to the next.
  PredictorConfig cfg = tiny_config();
  cfg.seq_len = 32;
  cfg.hidden = 8;
  cfg.key_bits = 32;
  PredictorQuantizer p(cfg);
  p.train(synthetic_samples(cfg, 16, 21), 1);  // move off the initial weights
  vkey::Rng rng(22);
  for (const bool quantized : {false, true}) {
    p.set_quantized(quantized);
    for (const std::size_t n : {1u, 16u, 37u}) {
      std::vector<nn::Vec> windows(n, nn::Vec(cfg.seq_len));
      for (auto& w : windows) {
        for (double& v : w) v = rng.uniform();
      }
      const auto batch = p.infer_batch(windows);
      ASSERT_EQ(batch.size(), n);
      for (std::size_t m = 0; m < n; ++m) {
        SCOPED_TRACE("quantized " + std::to_string(quantized) + " batch " +
                     std::to_string(n) + " member " + std::to_string(m));
        const auto one = p.infer(windows[m]);
        EXPECT_EQ(batch[m].predicted_seq, one.predicted_seq);
        EXPECT_EQ(batch[m].probabilities, one.probabilities);
        EXPECT_EQ(batch[m].bits, one.bits);
      }
    }
  }
}

TEST(Predictor, TrainingReducesLoss) {
  const PredictorConfig cfg = tiny_config();
  PredictorQuantizer p(cfg);
  const auto samples = synthetic_samples(cfg, 80, 11);
  const double before = p.evaluate_loss(samples);
  const auto report = p.train(samples, 30);
  ASSERT_EQ(report.epoch_loss.size(), 30u);
  EXPECT_LT(p.evaluate_loss(samples), before * 0.8);
  EXPECT_LT(report.final_loss, report.epoch_loss.front());
}

TEST(Predictor, LearnsSyntheticMapping) {
  const PredictorConfig cfg = tiny_config();
  PredictorQuantizer p(cfg);
  const auto train = synthetic_samples(cfg, 250, 13);
  const auto test = synthetic_samples(cfg, 20, 14);
  p.train(train, 40);
  double agree = 0.0;
  for (const auto& s : test) {
    agree += p.infer(s.alice_seq).bits.agreement(s.bob_bits);
  }
  EXPECT_GT(agree / static_cast<double>(test.size()), 0.8);
}

TEST(Predictor, DeterministicForSameSeed) {
  const PredictorConfig cfg = tiny_config();
  PredictorQuantizer a(cfg), b(cfg);
  const auto samples = synthetic_samples(cfg, 30, 15);
  a.train(samples, 3);
  b.train(samples, 3);
  const nn::Vec x(cfg.seq_len, 0.3);
  EXPECT_EQ(a.infer(x).bits, b.infer(x).bits);
}

TEST(Predictor, SnapshotRestoreTransfersModel) {
  const PredictorConfig cfg = tiny_config();
  PredictorQuantizer a(cfg);
  const auto samples = synthetic_samples(cfg, 60, 16);
  a.train(samples, 10);
  PredictorQuantizer b(cfg);
  nn::restore(b.parameters(), nn::snapshot(a.parameters()));
  const nn::Vec x(cfg.seq_len, 0.7);
  EXPECT_EQ(a.infer(x).bits, b.infer(x).bits);
}

TEST(Predictor, EvaluateLossMatchesTrainingScale) {
  const PredictorConfig cfg = tiny_config();
  PredictorQuantizer p(cfg);
  const auto samples = synthetic_samples(cfg, 20, 17);
  const double before = p.evaluate_loss(samples);
  p.train(samples, 15);
  EXPECT_LT(p.evaluate_loss(samples), before);
}

TEST(Predictor, TrainRequiresSamples) {
  PredictorQuantizer p(tiny_config());
  EXPECT_THROW(p.train({}, 1), vkey::Error);
  EXPECT_THROW(p.train(synthetic_samples(tiny_config(), 4, 18), 0),
               vkey::Error);
}

// Exact epoch losses of a short run, each double to the last bit, and the
// bits of every trained weight and of one infer() output after it. They pin
// the fixed training settings (theta = 0.9, Adam at 2e-3, mini-batches of
// 16, so 40 samples make two full batches and a partial one, and the phase
// feature's period of 4), the order of every sum in the joint loss and in
// every gradient, and the inference body.
TEST(PredictorGolden, EpochLossesOnSmallFixedInputs) {
  const PredictorConfig cfg = tiny_config();
  PredictorQuantizer p(cfg);
  const auto samples = synthetic_samples(cfg, 40, 19);
  const auto report = p.train(samples, 3);
  ASSERT_EQ(report.epoch_loss.size(), 3u);
  EXPECT_EQ(report.epoch_loss[0], 1.3987105776424724);
  EXPECT_EQ(report.epoch_loss[1], 1.237162523403315);
  EXPECT_EQ(report.epoch_loss[2], 1.1635946810598017);
  EXPECT_EQ(report.final_loss, report.epoch_loss[2]);
  EXPECT_EQ(bits_digest(nn::snapshot(p.parameters())),
            "052b0697f5b2f64ea1cf79f69263dd83377bc0f54488b7d7576ce8d8ae671071");
  const auto out = p.infer(samples[0].alice_seq);
  std::vector<double> both(out.predicted_seq.begin(),
                           out.predicted_seq.end());
  both.insert(both.end(), out.probabilities.begin(), out.probabilities.end());
  EXPECT_EQ(bits_digest(both),
            "52f16807dfcd5100655b109bf308722bd4a34f05e1a49a5a22fc0075c92b6eac");
}

TEST(Predictor, SampleShapeChecked) {
  const PredictorConfig cfg = tiny_config();
  PredictorQuantizer p(cfg);
  TrainingSample bad;
  bad.alice_seq.assign(cfg.seq_len - 1, 0.0);
  bad.bob_seq.assign(cfg.seq_len, 0.0);
  bad.bob_bits = BitVec(cfg.key_bits);
  EXPECT_THROW(p.train(std::vector<TrainingSample>{bad}, 1), vkey::Error);
  EXPECT_THROW(p.evaluate_loss(std::vector<TrainingSample>{bad}),
               vkey::Error);
  // evaluate_loss scores every bit of bob_bits against the predictor's
  // key_bits outputs: a wider or narrower target is rejected, as in train().
  for (const std::size_t bits : {cfg.key_bits + 8, cfg.key_bits - 1}) {
    TrainingSample s = synthetic_samples(cfg, 1, 20)[0];
    s.bob_bits = BitVec(bits);
    const std::vector<TrainingSample> one{s};
    EXPECT_THROW(p.train(one, 1), vkey::Error) << bits << " bits";
    EXPECT_THROW(p.evaluate_loss(one), vkey::Error) << bits << " bits";
  }
}

}  // namespace
}  // namespace vkey::core
