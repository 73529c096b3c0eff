// Allocation budgets of the per-attempt hot path, counted through the
// interposed allocator this binary links: an Eve-less probe, its
// extraction and a prediction each stay under a fixed bound, a decode
// allocates a fixed number of blocks however many greedy passes it runs, a
// key schedule's build and rekeys stay under a fixed bound, and a warm
// SimClock cycle allocates nothing.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/alloc_stats.h"
#include "common/bitvec.h"
#include "common/rng.h"
#include "channel/trace.h"
#include "core/dataset.h"
#include "core/predictor.h"
#include "core/reconciler.h"
#include "protocol/key_schedule.h"
#include "protocol/sim_clock.h"

namespace vkey {
namespace {

BitVec random_bits(std::size_t n, std::uint64_t seed) {
  vkey::Rng rng(seed);
  BitVec key(n);
  for (std::size_t i = 0; i < n; ++i) key.set(i, rng.bernoulli(0.5));
  return key;
}

template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const alloc_stats::PhaseScope phase;
  fn();
  return phase.delta().allocations;
}

TEST(AllocBudget, ProbeExtractPredictStayUnderFixedBounds) {
  if (!alloc_stats::hooks_installed()) GTEST_SKIP() << "no allocator hooks";
  // One probe of an Eve-less SF12 drive is 16 rounds: one 64-value window.
  channel::TraceConfig tc;
  tc.scenario = channel::make_scenario(channel::ScenarioKind::kV2VUrban, 50.0);
  tc.seed = 1;
  channel::TraceGenerator gen(tc);
  (void)gen.generate(16);  // warm-up: registers the PHY's airtime metrics
  std::vector<channel::ProbeRound> rounds;
  // The round vector plus one rRSSI vector per legitimate reception: 33.
  EXPECT_LE(allocations_of([&] { rounds = gen.generate(16); }), 40u);

  const core::DatasetConfig ds;
  std::vector<core::TrainingSample> samples;
  EXPECT_LE(allocations_of([&] {
              samples = core::make_samples(
                  core::extract_streams(rounds, ds.extractor,
                                        ds.reciprocal_windows),
                  ds);
            }),
            40u);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_TRUE(samples[0].eve_seq.empty());

  const core::PredictorQuantizer predictor{core::PredictorConfig{}};
  const nn::Vec& window = samples[0].alice_seq;
  (void)predictor.infer(window);  // warm-up: packs the weights
  // The workspace plus the Output's three vectors: 4, whatever seq_len.
  EXPECT_LE(allocations_of([&] { (void)predictor.infer(window); }), 6u);
  const std::vector<nn::Vec> windows(16, window);
  (void)predictor.infer_batch(windows);
  EXPECT_LE(allocations_of([&] { (void)predictor.infer_batch(windows); }),
            6u * windows.size() + 8u);
}

TEST(AllocBudget, DecodeAllocatesTheSameForAnyNumberOfPasses) {
  if (!alloc_stats::hooks_installed()) GTEST_SKIP() << "no allocator hooks";
  const core::AutoencoderReconciler reconciler{core::ReconcilerConfig{}};
  const BitVec bob = random_bits(64, 1);
  const std::vector<double> y_bob = reconciler.encode_bob(bob);
  // A dense mismatch: even the untrained decoder's shortlist keeps
  // finding flips that shrink the residual, pass after pass.
  BitVec noisy = bob;
  for (std::size_t i = 0; i < 64; i += 2) noisy.flip(i);
  // Warm-up: the first decode packs the layers' weights and registers the
  // nn.dense metrics.
  (void)reconciler.decode_mismatch(noisy, y_bob);

  core::AutoencoderReconciler::DecodeResult clean, many;
  const std::uint64_t clean_allocs = allocations_of(
      [&] { clean = reconciler.decode_mismatch(bob, y_bob); });
  const std::uint64_t many_allocs = allocations_of(
      [&] { many = reconciler.decode_mismatch(noisy, y_bob); });
  EXPECT_EQ(clean.iterations, 0u);
  EXPECT_GE(many.iterations, 8u);
  EXPECT_EQ(many_allocs, clean_allocs);
  EXPECT_LE(clean_allocs, 12u);
}

TEST(AllocBudget, KeyScheduleBuildAndTwoRekeysStayUnderABound) {
  if (!alloc_stats::hooks_installed()) GTEST_SKIP() << "no allocator hooks";
  const BitVec secret = random_bits(128, 2);
  const auto build_and_rekey = [&] {
    protocol::KeySchedule schedule(secret, 0x51,
                                   protocol::KeySchedule::Role::kInitiator);
    schedule.rekey(60'000.0);
    schedule.rekey(120'000.0);
    EXPECT_EQ(schedule.epoch(), 2u);
  };
  build_and_rekey();
  // One block per HKDF output (eight per epoch, two per ratchet) plus the
  // initial secret: 29, with a margin.
  EXPECT_LE(allocations_of(build_and_rekey), 40u);
}

TEST(AllocBudget, WarmSimClockCycleAllocatesNothing) {
  if (!alloc_stats::hooks_installed()) GTEST_SKIP() << "no allocator hooks";
  protocol::SimClock clock;
  std::uint64_t sum = 0;
  std::vector<protocol::SimClock::EventId> ids;
  ids.reserve(64);
  const auto cycle = [&] {
    ids.clear();
    for (std::uint64_t i = 0; i < 64; ++i) {
      // Captures small enough for std::function's inline storage.
      ids.push_back(clock.schedule(static_cast<double>(i % 7),
                                   [&sum, i] { sum += i; }));
    }
    for (std::size_t k = 0; k < ids.size(); k += 5) clock.cancel(ids[k]);
    clock.run_until(clock.now_ms() + 3.0);
    clock.run_until_idle();
  };
  cycle();  // grows the heap's storage once
  const alloc_stats::PhaseScope phase;
  for (int round = 0; round < 4; ++round) cycle();
  EXPECT_EQ(phase.delta().allocations, 0u);
  EXPECT_EQ(clock.pending(), 0u);
  std::uint64_t survivors = 0;  // every cancelled event stayed silent
  for (std::uint64_t i = 0; i < 64; ++i) {
    if (i % 5 != 0) survivors += i;
  }
  EXPECT_EQ(sum, 5 * survivors);
}

}  // namespace
}  // namespace vkey
