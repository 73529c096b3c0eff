#include "core/reconciler.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bits_digest.h"
#include "common/error.h"
#include "common/rng.h"
#include "nn/serialize.h"

namespace vkey::core {
namespace {

ReconcilerConfig fast_config() {
  ReconcilerConfig cfg;
  cfg.key_bits = 64;
  cfg.decoder_units = 64;
  cfg.seed = 21;
  return cfg;
}

/// A SyndromeCode whose encoder a test can read and move, to check the
/// syndrome's cells against their definition.
class OpenCode : public SyndromeCode {
 public:
  using SyndromeCode::SyndromeCode;

  BitVec mapped(const BitVec& key) const { return bloom_.apply(key); }

  /// f1's output for `key`, before it is rounded to a cell.
  std::array<double, kCodeDim> raw(const BitVec& key) const {
    const std::vector<double> x = mapped(key).to_doubles();
    std::array<double, kCodeDim> y{};
    f1_.infer_into(x.data(), y.data());
    return y;
  }

  double weight(std::size_t r, std::size_t j) const {
    return f1_.weights().value[r * key_bits() + j];
  }

  /// Component r's least and greatest value over 0/1 inputs.
  std::pair<double, double> range(std::size_t r) const {
    double low = f1_.bias().value[r], high = low;
    for (std::size_t j = 0; j < key_bits(); ++j) {
      (weight(r, j) < 0.0 ? low : high) += weight(r, j);
    }
    return {low, high};
  }

  /// Set W_rj and re-form the public tables, as training does.
  void set_weight(std::size_t r, std::size_t j, double v) {
    nn::Parameter& w = *f1_.parameters()[0];
    w.value[r * key_bits() + j] = v;
    w.bump();
    form_gram();
  }
};

class ReconcilerTest : public ::testing::Test {
 protected:
  /// The public code: fast_config()'s encoder is tied and frozen, so this
  /// is the trained model's f1, bit for bit, and nothing is trained for the
  /// tests that only run the code.
  static inline const SyndromeCode code_{64, fast_config().seed};

  /// The trained model, for the tests that read its decoder: trained on
  /// first use, once per process.
  static const AutoencoderReconciler& trained() {
    static const AutoencoderReconciler model = [] {
      AutoencoderReconciler r(fast_config());
      r.train(2500, 25);
      return r;
    }();
    return model;
  }
};

TEST_F(ReconcilerTest, NoMismatchIsFixedPoint) {
  const BitVec k = random_bits(64, vkey::Rng(1));
  const auto y = code_.encode_bob(k);
  EXPECT_EQ(code_.reconcile(k, y), k);
  const auto d = code_.decode_mismatch(k, y);
  EXPECT_EQ(d.mismatch.weight(), 0u);
}

TEST_F(ReconcilerTest, CorrectsSingleFlip) {
  vkey::Rng rng(2);
  int success = 0;
  const int trials = 20;
  for (int trial = 0; trial < trials; ++trial) {
    const BitVec kb = random_bits(64, rng);
    const BitVec ka = with_flips(kb, 1, rng);
    success += code_.reconcile(ka, code_.encode_bob(kb)) == kb;
  }
  EXPECT_GE(success, trials - 1);
}

TEST_F(ReconcilerTest, CorrectsModerateMismatch) {
  vkey::Rng rng(3);
  int success = 0;
  const int trials = 40;
  for (int trial = 0; trial < trials; ++trial) {
    const BitVec kb = random_bits(64, rng);
    const BitVec ka = with_noise(kb, 0.05, rng);
    success += code_.reconcile(ka, code_.encode_bob(kb)) == kb;
  }
  EXPECT_GE(success, trials * 6 / 10);
}

TEST_F(ReconcilerTest, ImprovesAgreementAtHighBer) {
  vkey::Rng rng(4);
  double pre = 0.0, post = 0.0;
  const int trials = 30;
  for (int trial = 0; trial < trials; ++trial) {
    const BitVec kb = random_bits(64, rng);
    const BitVec ka = with_noise(kb, 0.10, rng);
    pre += ka.agreement(kb);
    post += code_.reconcile(ka, code_.encode_bob(kb)).agreement(kb);
  }
  EXPECT_GT(post / trials, pre / trials + 0.03);
}

TEST_F(ReconcilerTest, UncorrelatedKeyGainsNothingOneShot) {
  const AutoencoderReconciler& model = trained();
  // The paper's eavesdropping attack: feeding the syndrome to the decoder
  // with unrelated key material must stay near 50% agreement.
  vkey::Rng rng(5);
  double agree = 0.0;
  const int trials = 30;
  for (int trial = 0; trial < trials; ++trial) {
    const BitVec kb = random_bits(64, rng);
    const BitVec ke = random_bits(64, rng);
    agree +=
        model.reconcile_one_shot(ke, model.encode_bob(kb)).agreement(kb);
  }
  EXPECT_NEAR(agree / trials, 0.5, 0.1);
}

TEST_F(ReconcilerTest, VerifyingEveryFlipBeatsTheDecoderShortlist) {
  const AutoencoderReconciler& model = trained();
  // 17% BER is the channel's pre-reconciliation disagreement (kar_pre ~
  // 0.833): scoring all 64 flips each pass recovers far more blocks exactly
  // than scoring the trained decoder's 16 top-scored ones.
  vkey::Rng rng(13);
  int every = 0, guided = 0;
  const int trials = 500;
  for (int trial = 0; trial < trials; ++trial) {
    const BitVec kb = random_bits(64, rng);
    const BitVec ka = with_noise(kb, 0.17, rng);
    const auto y = model.encode_bob(kb);
    every += (ka ^ model.decode_mismatch(ka, y).mismatch) == kb;
    guided += (ka ^ model.decode_guided(ka, y).mismatch) == kb;
  }
  EXPECT_GE(every - guided, trials / 10) << every << " vs " << guided;
}

/// Bob's key and Alice's with exactly `flips` distinct bits flipped.
std::pair<BitVec, BitVec> pair_with_flips(std::size_t flips, vkey::Rng& rng) {
  const BitVec kb = random_bits(64, rng);
  BitVec ka = kb;
  for (std::size_t placed = 0; placed < flips;) {
    const auto i = static_cast<std::size_t>(rng.uniform_int(64));
    if (ka.get(i) == kb.get(i)) {
      ka.flip(i);
      ++placed;
    }
  }
  return {kb, ka};
}

/// decode_mismatch's design radius for a 64-bit key (key_bits * 7 / 32).
constexpr std::size_t kRadius64 = 14;

TEST_F(ReconcilerTest, DecodeNeverReturnsMoreFlipsThanTheRadius) {
  vkey::Rng rng(16);
  for (std::size_t flips = 0; flips <= 32; ++flips) {
    for (int trial = 0; trial < 30; ++trial) {
      const auto [kb, ka] = pair_with_flips(flips, rng);
      const auto d = code_.decode_mismatch(ka, code_.encode_bob(kb));
      ASSERT_LE(d.mismatch.weight(), kRadius64)
          << flips << " flips, trial " << trial;
    }
  }
}

TEST_F(ReconcilerTest, BlocksBeyondTheRadiusAreNeverCorrected) {
  vkey::Rng rng(17);
  for (std::size_t flips = kRadius64 + 1; flips <= kRadius64 + 8; ++flips) {
    for (int trial = 0; trial < 100; ++trial) {
      const auto [kb, ka] = pair_with_flips(flips, rng);
      EXPECT_NE(code_.reconcile(ka, code_.encode_bob(kb)), kb)
          << flips << " flips, trial " << trial;
    }
  }
}

TEST_F(ReconcilerTest, BeamCorrectsAtLeastWhatTheGreedyDecodeDid) {
  // Blocks of 200 random keys per flip count, each count on its own
  // stream. `greedy` is how many of them the single-path greedy decode
  // (the protocol's decode before the beam) corrected exactly.
  struct Row {
    std::size_t flips;
    int greedy;
  };
  for (const Row row : {Row{4, 192}, Row{5, 185}, Row{6, 177}, Row{7, 166},
                        Row{8, 145}, Row{9, 128}, Row{10, 117}, Row{11, 77},
                        Row{12, 61}, Row{13, 59}, Row{14, 53}}) {
    vkey::Rng rng(1000 + row.flips);
    int exact = 0;
    for (int trial = 0; trial < 200; ++trial) {
      const auto [kb, ka] = pair_with_flips(row.flips, rng);
      exact += code_.reconcile(ka, code_.encode_bob(kb)) == kb;
    }
    EXPECT_GE(exact, row.greedy) << row.flips << " flips";
    if (row.flips <= 10) {
      EXPECT_GE(exact, 190) << row.flips << " flips";  // 95%
    }
  }
}

TEST_F(ReconcilerTest, EveRecoversNoMoreThanFromTheGreedyDecode) {
  // Eve's attempt-0 bits agree with Bob's on about half their positions:
  // each block here disagrees at a rate drawn uniformly from [30%, 70%].
  // The greedy decode recovered 18 of these 2000 blocks exactly; the beam
  // may not recover more.
  vkey::Rng rng(0xe7e);
  int exact = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const BitVec kb = random_bits(64, rng);
    const double ber = rng.uniform(0.30, 0.70);
    const BitVec ke = with_noise(kb, ber, rng);
    exact += code_.reconcile(ke, code_.encode_bob(kb)) == kb;
  }
  EXPECT_LE(exact, 18);
}

TEST_F(ReconcilerTest, SyndromeHasCodeDim) {
  EXPECT_EQ(code_.encode_bob(random_bits(64, vkey::Rng(6))).size(), 32u);
}

TEST_F(ReconcilerTest, SyndromeBytesAreEncodeBobAndCorrectIsReconcile) {
  const OpenCode code(64, fast_config().seed);
  vkey::Rng rng(12);
  for (int flips = 0; flips < 8; ++flips) {
    const BitVec kb = random_bits(64, rng);
    const BitVec ka = with_flips(kb, flips, rng);
    std::vector<std::uint8_t> bytes(kSyndromeBytes);
    code.syndrome(kb, bytes);
    ASSERT_EQ(bytes.size(), kCodeDim);
    // Byte r indexes the level nearest f1's component r among 256 evenly
    // spaced over its exact range, and encode_bob() is that level.
    const auto raw = code.raw(kb);
    const auto y = code.encode_bob(kb);
    for (std::size_t r = 0; r < kCodeDim; ++r) {
      const auto [low, high] = code.range(r);
      const double step = (high - low) / 255.0;
      const double level = low + bytes[r] * step;
      EXPECT_GE(raw[r], low - 1e-12) << "component " << r;
      EXPECT_LE(raw[r], high + 1e-12) << "component " << r;
      EXPECT_LE(std::abs(raw[r] - level), 0.5 * step + 1e-12)
          << "component " << r;
      EXPECT_NEAR(y[r], level, 1e-12) << "component " << r;
    }
    const std::optional<BitVec> fixed = code.correct(ka, bytes);
    ASSERT_TRUE(fixed.has_value());
    EXPECT_EQ(*fixed, code.reconcile(ka, y)) << flips << " flips";
  }
  // Anything but one byte per cell is refused, not decoded.
  const BitVec k = random_bits(64, rng);
  for (const std::size_t n : {0u, 31u, 33u, 256u}) {
    EXPECT_FALSE(code.correct(k, std::vector<std::uint8_t>(n)).has_value())
        << n << " bytes";
  }
}

TEST(Reconciler, KeyAtACellEdgeReconcilesWithZeroFlips) {
  // One weight moves so that a key's encoding lies within 1e-12 of a cell
  // boundary in one component, on either side of it or on it. Bob's
  // rounding may pick either cell; Alice, holding the same key, must pass
  // the cell test at once and flip nothing.
  const BitVec key = random_bits(64, vkey::Rng(23));
  const OpenCode base(64, 11);
  const BitVec x = base.mapped(key);
  const auto raw = base.raw(key);
  // A component whose encoding sits mid-range, and the input the key holds
  // at 0 with the largest positive weight there: moving that weight moves
  // the top of the range, not the encoding.
  std::size_t r = 0;
  double t = 0.0;
  for (; r < kCodeDim; ++r) {
    const auto [low, high] = base.range(r);
    t = 255.0 * (raw[r] - low) / (high - low);
    if (t > 64.0 && t < 192.0) break;
  }
  ASSERT_LT(r, kCodeDim);
  std::size_t j = x.size();
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (!x.get(i) && base.weight(r, i) > 0.0 &&
        (j == x.size() || base.weight(r, i) > base.weight(r, j))) {
      j = i;
    }
  }
  ASSERT_LT(j, x.size());
  const double edge = std::floor(t) + 0.5;  // a boundary, in steps
  for (const double offset : {-1e-12, -1e-14, 0.0, 1e-14, 1e-12}) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    OpenCode code(64, 11);
    const auto [low, high] = code.range(r);
    // The step that puts raw[r] - offset on the boundary.
    const double step = (raw[r] - offset - low) / edge;
    const double w = code.weight(r, j) + (low + 255.0 * step - high);
    ASSERT_GT(w, 0.0);
    code.set_weight(r, j, w);
    ASSERT_EQ(code.raw(key)[r], raw[r]);  // input j is 0
    const auto [new_low, new_high] = code.range(r);
    const double new_step = (new_high - new_low) / 255.0;
    EXPECT_LE(std::abs(raw[r] - (new_low + edge * new_step)), 1.1e-12);

    const auto d = code.decode_mismatch(key, code.encode_bob(key));
    EXPECT_EQ(d.mismatch.weight(), 0u);
    EXPECT_EQ(d.iterations, 0u);
    std::vector<std::uint8_t> bytes(kSyndromeBytes);
    code.syndrome(key, bytes);
    EXPECT_EQ(code.correct(key, bytes), key);
  }
}

TEST_F(ReconcilerTest, IterationsReported) {
  const BitVec kb = random_bits(64, vkey::Rng(7));
  BitVec ka = kb;
  ka.flip(5);
  ka.flip(30);
  const auto d = code_.decode_mismatch(ka, code_.encode_bob(kb));
  EXPECT_GE(d.iterations, 2u);
  EXPECT_LE(d.iterations, 40u);  // the greedy decode's pass budget
}

TEST_F(ReconcilerTest, InputWidthsChecked) {
  vkey::Rng rng(8);
  EXPECT_THROW(code_.encode_bob(BitVec(32)), vkey::Error);
  const auto y = code_.encode_bob(random_bits(64, rng));
  EXPECT_THROW(code_.reconcile(BitVec(32), y), vkey::Error);
  EXPECT_THROW(code_.reconcile(random_bits(64, rng), std::vector<double>(5)),
               vkey::Error);
}

TEST(Reconciler, FlopAccounting) {
  const ReconcilerConfig cfg = fast_config();
  AutoencoderReconciler r(cfg);
  // Alice: encoder 64*32 + decoder 32*64 + 64*64 + 64*64 + 64*64.
  const std::size_t expect = 64 * 32 + 32 * 64 + 64 * 64 + 64 * 64 + 64 * 64;
  EXPECT_EQ(r.decode_flops(), expect);
}

TEST(Reconciler, DecodeReadsNoDecoderWeight) {
  // The protocol's decode is the SyndromeCode's: an AutoencoderReconciler
  // with the same seed (the default tied, frozen encoder) gives the same
  // syndrome bytes and decodes, before and after training moves its
  // decoder.
  for (const std::uint64_t seed : {11u, 21u}) {
    const SyndromeCode code(64, seed);
    ReconcilerConfig cfg;
    cfg.seed = seed;
    AutoencoderReconciler r(cfg);
    vkey::Rng rng(seed);
    std::vector<std::pair<BitVec, BitVec>> pairs;
    for (int ber_pct = 0; ber_pct <= 20; ++ber_pct) {
      const BitVec kb = random_bits(64, rng);
      pairs.emplace_back(kb, with_noise(kb, ber_pct / 100.0, rng));
    }
    const auto expect_same = [&](const char* when) {
      for (std::size_t t = 0; t < pairs.size(); ++t) {
        SCOPED_TRACE(std::string(when) + ", seed " + std::to_string(seed) +
                     ", " + std::to_string(t) + "% BER");
        const auto& [kb, ka] = pairs[t];
        std::vector<std::uint8_t> want(kSyndromeBytes), got(kSyndromeBytes);
        code.syndrome(kb, want);
        r.syndrome(kb, got);
        EXPECT_EQ(got, want);
        const auto expected = code.decode_mismatch(ka, code.encode_bob(kb));
        const auto decoded = r.decode_mismatch(ka, r.encode_bob(kb));
        EXPECT_EQ(decoded.mismatch, expected.mismatch);
        EXPECT_EQ(decoded.iterations, expected.iterations);
      }
    };
    expect_same("untrained");
    r.train(300, 3);
    expect_same("trained");
  }
}

TEST(Reconciler, EverySingleBitErrorIsFixedInOnePass) {
  // One pass scores every flip, and the true one leaves only the cells'
  // rounding: on the untrained code, and with untied encoders both trained
  // (the paper's Fig. 7), whose decode still inverts f1, the encoder y_Bob
  // came from.
  ReconcilerConfig untied;
  untied.tie_encoders = false;
  untied.freeze_encoder = false;
  AutoencoderReconciler trained(untied);
  trained.train(300, 3);
  const SyndromeCode fresh(64, 11);
  const std::vector<const SyndromeCode*> codes{&fresh, &trained};
  for (const SyndromeCode* r : codes) {
    SCOPED_TRACE(r == &fresh ? "untrained code" : "untied + trained");
    vkey::Rng rng(15);
    for (int key = 0; key < 20; ++key) {
      const BitVec kb = random_bits(64, rng);
      const auto y = r->encode_bob(kb);
      for (std::size_t i = 0; i < 64; ++i) {
        BitVec ka = kb;
        ka.flip(i);
        const auto d = r->decode_mismatch(ka, y);
        EXPECT_EQ(d.iterations, 1u) << "key " << key << " bit " << i;
        EXPECT_EQ(ka ^ d.mismatch, kb) << "key " << key << " bit " << i;
      }
    }
  }
}

TEST(Reconciler, ConfigValidated) {
  ReconcilerConfig bad = fast_config();
  bad.key_bits = 4;
  EXPECT_THROW(AutoencoderReconciler{bad}, vkey::Error);
}

// The exact final loss of a short run, to the last bit, and the bits of
// every trained parameter, in each tie x freeze configuration the ablations
// train. It pins the fixed settings (32-unit code, three decoder layers,
// Adam at 2e-3, mini-batches of 32, so 200 pairs end on a partial batch,
// training BERs in [0, 0.20], the Bloom seed) and the order of every sum in
// training: a trained encoder adds its own backward pass, an untied one a
// second encoder fed the negated gradient.
TEST(ReconcilerGolden, FinalLossOnSmallFixedInputs) {
  struct Want {
    bool tie, freeze;
    double loss;
    const char* digest;
  };
  for (const Want& w : {
           Want{true, true, 43.499017862167065,
                "03873001fd32a7cb5a59e2b20f54c7d85aaae1e21a59fff317548206414d0753"},
           Want{true, false, 43.4003174085374,
                "871d1146a7f01325e348f41f1a9c0c0cc7f99a612be24d39e260193b02c739dc"},
           Want{false, true, 41.064769490901845,
                "58b18f5677dbaae15343e1253383765cb84707b2ef69455f21f659327f2fbef6"},
           Want{false, false, 39.86127631307241,
                "24ea5eb018c5ad8e4b1b05bf6cc06d9bf4df485f58c10dd3c59ad3d6f4c3de25"},
       }) {
    SCOPED_TRACE(std::string(w.tie ? "tied" : "untied") +
                 (w.freeze ? " + frozen" : " + trained"));
    ReconcilerConfig cfg = fast_config();
    cfg.decoder_units = 16;
    cfg.tie_encoders = w.tie;
    cfg.freeze_encoder = w.freeze;
    AutoencoderReconciler r(cfg);
    EXPECT_EQ(r.train(200, 2), w.loss);
    EXPECT_EQ(bits_digest(nn::snapshot(r.parameters())), w.digest);
  }
}

TEST(Reconciler, MoreUnitsMoreFlops) {
  ReconcilerConfig small = fast_config();
  small.decoder_units = 16;
  ReconcilerConfig big = fast_config();
  big.decoder_units = 128;
  EXPECT_LT(AutoencoderReconciler(small).decode_flops(),
            AutoencoderReconciler(big).decode_flops());
}

}  // namespace
}  // namespace vkey::core
