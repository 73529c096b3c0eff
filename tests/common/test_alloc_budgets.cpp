// Allocation budgets of the per-attempt hot path, counted through the
// interposed allocator this binary links: a trace generator allocates only
// its state, and an Eve-less probe, its extraction and a prediction each
// stay under a fixed bound, a warm
// training epoch of the predictor or the reconciler allocates nothing per
// sample or pair, Bob's encoding and a decode allocate nothing however many
// greedy passes it runs, a key schedule's build and rekeys allocate
// nothing, and a warm SimClock cycle allocates nothing. On the protocol
// side, an agreement attempt allocates the same handful of blocks however
// many frames it sends, retransmits, drops or duplicates, and its
// failure_dump() replay, which records every event, adds one block however
// many events it records; a key confirmation allocates a few blocks and a
// seal+open pair none; each session amplifies its key once, into storage
// final_key() reads without allocating; and a whole session, from first
// probe to confirmed epoch, allocates a fixed handful of blocks plus a few
// per attempt.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/alloc_stats.h"
#include "common/bitvec.h"
#include "common/rng.h"
#include "common/trace.h"
#include "channel/trace.h"
#include "core/dataset.h"
#include "core/predictor.h"
#include "core/privacy.h"
#include "core/reconciler.h"
#include "crypto/sha256.h"
#include "protocol/key_schedule.h"
#include "protocol/reliability.h"
#include "protocol/session.h"
#include "protocol/sim_clock.h"
#include "protocol/unreliable_channel.h"

namespace vkey {
namespace {

template <typename Fn>
std::uint64_t allocations_of(Fn&& fn) {
  const alloc_stats::PhaseScope phase;
  fn();
  return phase.delta().allocations;
}

/// An Eve-less drive at the paper's PHY (SF12, 16-byte packets): 52
/// register samples per reception, 16 rounds per 64-value window.
channel::TraceConfig sf12_drive(std::uint64_t seed) {
  channel::TraceConfig tc;
  tc.scenario = channel::make_scenario(channel::ScenarioKind::kV2VUrban, 50.0);
  tc.seed = seed;
  return tc;
}

TEST(AllocBudget, GeneratorConstructionAllocatesOnlyItsImpl) {
  if (!alloc_stats::hooks_installed()) GTEST_SKIP() << "no allocator hooks";
  (void)channel::TraceGenerator(sf12_drive(1)).generate(1);  // warm-up
  // The device models name their radios by literal and the fading rings
  // hold their rays inline (13 blocks while the names were strings and
  // each of the four rings held two vectors).
  std::optional<channel::TraceGenerator> gen;
  EXPECT_EQ(allocations_of([&] { gen.emplace(sf12_drive(2)); }), 1u);
}

TEST(AllocBudget, ProbeExtractPredictStayUnderFixedBounds) {
  if (!alloc_stats::hooks_installed()) GTEST_SKIP() << "no allocator hooks";
  // One probe of an Eve-less SF12 drive is 16 rounds: one 64-value window.
  channel::TraceGenerator gen(sf12_drive(1));
  (void)gen.generate(16);  // warm-up: registers the PHY's airtime metrics
  std::vector<channel::ProbeRound> rounds;
  // The round vector: each legitimate reception holds its 52 samples
  // inline (33 while each took a vector).
  EXPECT_EQ(allocations_of([&] { rounds = gen.generate(16); }), 1u);
  ASSERT_EQ(rounds[0].bob_rx.rrssi.size(), channel::kInlineRrssiSamples);
  EXPECT_TRUE(rounds[0].bob_rx.rrssi.is_inline());

  // The two streams, the sample vector and the window's two normalized
  // sequences: 5. The kept windows are averaged straight from the
  // samples and the quantizer's scratch and kept indices live inline (10
  // while each packet's windows filled a vector and the quantizer took
  // three blocks).
  const core::DatasetConfig ds;
  std::vector<core::TrainingSample> samples;
  EXPECT_LE(allocations_of([&] {
              samples = core::make_samples(
                  core::extract_streams(rounds, ds.extractor,
                                        ds.reciprocal_windows),
                  ds);
            }),
            5u);
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_TRUE(samples[0].eve_seq.empty());

  const core::PredictorQuantizer predictor{core::PredictorConfig{}};
  const nn::Vec& window = samples[0].alice_seq;
  (void)predictor.infer(window);  // warm-up: packs the weights
  // The workspace: the Output's rows and bits live inline (3 while the
  // rows were vectors).
  EXPECT_LE(allocations_of([&] { (void)predictor.infer(window); }), 1u);
  // A batch: the Output vector and one shared workspace, however many
  // windows (3n + 2 while the rows were vectors).
  const std::vector<nn::Vec> windows(16, window);
  (void)predictor.infer_batch(windows);
  EXPECT_LE(allocations_of([&] { (void)predictor.infer_batch(windows); }),
            2u);
}

/// Blocks a second training epoch allocates: a two-epoch run minus a
/// one-epoch run of a fresh model each, so the set-up (the sample or pair
/// set, Adam's moments, every buffer's first fill) cancels.
template <typename Model, typename Train>
std::uint64_t second_epoch_allocations(const Model& fresh, Train&& train) {
  Model one = fresh, two = fresh;
  const std::uint64_t one_epoch = allocations_of([&] { train(one, 1); });
  const std::uint64_t two_epochs = allocations_of([&] { train(two, 2); });
  EXPECT_GE(two_epochs, one_epoch);
  return two_epochs - one_epoch;
}

TEST(AllocBudget, PredictorTrainingAllocatesAFewBlocksPerSample) {
  if (!alloc_stats::hooks_installed()) GTEST_SKIP() << "no allocator hooks";
  // The default model (seq_len 64, H = 32) over 16-sample batches.
  const core::PredictorConfig cfg;
  vkey::Rng rng(5);
  std::vector<core::TrainingSample> samples(64);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    samples[i].alice_seq.resize(cfg.seq_len);
    samples[i].bob_seq.resize(cfg.seq_len);
    for (double& v : samples[i].alice_seq) v = rng.uniform();
    for (double& v : samples[i].bob_seq) v = rng.uniform();
    samples[i].bob_bits = random_bits(cfg.key_bits, vkey::Rng(10 + i));
  }
  const core::PredictorQuantizer fresh(cfg);
  // Warm-up: the first training registers the nn metrics.
  (void)core::PredictorQuantizer(fresh).train(std::span(samples).first(16), 1);
  // Two and four batches: a block per sample would add 32 the second time.
  // One block at both (the report's epoch-loss vector growing): the rows
  // and BiLSTM caches are sized once per train() call. While the heads
  // trained through per-member caches and copied gradients this was 605
  // for 32 samples and 1,209 for 64.
  for (const std::size_t n : {32u, 64u}) {
    const auto some = std::span(samples).first(n);
    EXPECT_LE(second_epoch_allocations(fresh,
                                       [&](core::PredictorQuantizer& p,
                                           std::size_t epochs) {
                                         (void)p.train(some, epochs);
                                       }),
              4u)
        << n << " samples";
  }
}

TEST(AllocBudget, ReconcilerTrainingAllocatesNothingPerPair) {
  if (!alloc_stats::hooks_installed()) GTEST_SKIP() << "no allocator hooks";
  core::ReconcilerConfig cfg;  // the default tied, frozen encoder
  cfg.threads = 1;
  const core::AutoencoderReconciler fresh(cfg);
  // Warm-up: the first training registers the nn metrics.
  (void)core::AutoencoderReconciler(fresh).train(32, 1);
  // Ten and twenty 32-pair batches: nothing at either, since the pairs are
  // Bloom-mapped when drawn and every row is sized once per train() call.
  // While each member mapped its pair and trained through per-member
  // caches this was 7,950 blocks for 320 pairs and 15,900 for 640.
  for (const std::size_t n : {320u, 640u}) {
    EXPECT_LE(second_epoch_allocations(fresh,
                                       [&](core::AutoencoderReconciler& r,
                                           std::size_t epochs) {
                                         (void)r.train(n, epochs);
                                       }),
              2u)
        << n << " pairs";
  }
}

TEST(AllocBudget, DecodeAllocatesTheSameForAnyNumberOfPasses) {
  if (!alloc_stats::hooks_installed()) GTEST_SKIP() << "no allocator hooks";
  const core::SyndromeCode reconciler(64, 11);
  const BitVec bob = random_bits(64, vkey::Rng(1));
  // Warm-up: the first encoding packs the encoder's weights and registers
  // the nn.dense metrics.
  auto y_bob = reconciler.encode_bob(bob);
  // y_Bob and the mapped key's doubles live on the stack (2 blocks while
  // BitVec::to_doubles and Dense::infer returned vectors).
  EXPECT_EQ(allocations_of([&] { y_bob = reconciler.encode_bob(bob); }), 0u);
  // A dense mismatch: the decode keeps finding flips that shrink the
  // residual, pass after pass.
  BitVec noisy = bob;
  for (std::size_t i = 0; i < 64; i += 2) noisy.flip(i);

  core::SyndromeCode::DecodeResult clean, many;
  const std::uint64_t clean_allocs = allocations_of(
      [&] { clean = reconciler.decode_mismatch(bob, y_bob); });
  const std::uint64_t many_allocs = allocations_of(
      [&] { many = reconciler.decode_mismatch(noisy, y_bob); });
  EXPECT_EQ(clean.iterations, 0u);
  EXPECT_GE(many.iterations, 8u);
  EXPECT_EQ(many_allocs, clean_allocs);
  // The residual is an array and the per-bit scratch, the Bloom-mapped key
  // and the mismatch live inline (3 while the decoder's activation buffers
  // and the shortlist's order took blocks, 7 before the keys lived
  // inline).
  EXPECT_EQ(clean_allocs, 0u);
}

TEST(AllocBudget, KeyScheduleBuildAndTwoRekeysStayUnderABound) {
  if (!alloc_stats::hooks_installed()) GTEST_SKIP() << "no allocator hooks";
  const BitVec secret = random_bits(128, vkey::Rng(2));
  const auto build_and_rekey = [&] {
    protocol::KeySchedule schedule(secret, 0x51,
                                   protocol::KeySchedule::Role::kInitiator);
    schedule.rekey(60'000.0);
    schedule.rekey(120'000.0);
    EXPECT_EQ(schedule.epoch(), 2u);
  };
  build_and_rekey();
  // Every PRK, HKDF output and ratchet secret lives inline, and so does
  // the packed initial secret (29 blocks while each took one).
  EXPECT_EQ(allocations_of(build_and_rekey), 0u);
}

// ------------------------------------------------------------- protocol

channel::LoRaParams sf7() {
  channel::LoRaParams p;
  p.spreading_factor = 7;
  return p;
}

/// One agreement attempt between sessions holding the same 64-bit key (so
/// the decode has nothing to correct), over a link with `faults`. With
/// `replay` the allocations counted are those of failure_dump() on the same
/// arguments, which replays the attempt with every layer recording into a
/// flight ring, and `events` counts the flight events a traced run mirrors.
struct AttemptCost {
  std::uint64_t allocations = 0;
  std::size_t frames = 0;
  std::size_t retransmissions = 0;
  std::size_t events = 0;  ///< flight events (with `replay` only)
  bool established = false;
};

AttemptCost one_attempt(const core::SyndromeCode& reconciler,
                        const protocol::FaultConfig& faults,
                        bool replay = false) {
  const BitVec key = random_bits(64, vkey::Rng(3));
  protocol::ReliabilityConfig cfg;
  cfg.fault = faults;
  cfg.radio = sf7();
  cfg.max_session_attempts = 1;
  protocol::PublicChannel base;
  const auto material = [&key](std::size_t) {
    return std::make_pair(key, key);
  };
  protocol::AgreementReport report;
  AttemptCost cost;
  cost.allocations = allocations_of([&] {
    report =
        protocol::run_reliable_key_agreement(base, reconciler, cfg, material);
  });
  cost.frames = report.link.sent;
  const auto& att = report.attempt_log.front();
  cost.retransmissions =
      att.alice_transport.retransmissions + att.bob_transport.retransmissions;
  cost.established = report.established;
  if (replay) {
    std::string dump;
    cost.allocations = allocations_of([&] {
      dump = protocol::failure_dump(base, reconciler, cfg, material);
    });
    trace::TraceLog& log = trace::TraceLog::global();
    log.clear();
    log.set_enabled(true);
    (void)protocol::run_reliable_key_agreement(base, reconciler, cfg,
                                               material);
    for (const trace::Span& span : log.spans()) {
      cost.events += span.instant && span.name.starts_with("flight.");
    }
    log.set_enabled(false);
    log.clear();
  }
  return cost;
}

/// The faults of the lossy budgets: every kind, well above gateway_lossy's.
protocol::FaultConfig lossy_faults(std::uint64_t seed) {
  protocol::FaultConfig faults;
  faults.drop_prob = 0.3;
  faults.dup_prob = 0.2;
  faults.reorder_prob = 0.2;
  faults.corrupt_prob = 0.1;
  faults.seed = seed;
  return faults;
}

TEST(AllocBudget, AgreementAttemptDoesNotGrowWithFramesSent) {
  if (!alloc_stats::hooks_installed()) GTEST_SKIP() << "no allocator hooks";
  const core::SyndromeCode reconciler(64, 11);
  protocol::register_protocol_metrics();
  (void)one_attempt(reconciler, {});  // warm-up: packs weights, metrics
  const AttemptCost lossless = one_attempt(reconciler, {});
  ASSERT_TRUE(lossless.established);
  ASSERT_EQ(lossless.retransmissions, 0u);

  // A lossy attempt may hold more events in flight at once (one more
  // doubling of the clock's heap) and more frames than the link's eight
  // inline slots (a block each, and one for their pointers), which is all
  // a fault may add: nothing is allocated per frame sent, retransmitted,
  // dropped, duplicated or corrupted. (Before frames stopped being copied,
  // these attempts allocated 9-69 blocks more than the lossless one.)
  // Eighty seeds, so that some attempt sends at least three times the
  // lossless frames (3 x 10): the busiest of the first forty sends 26,
  // seed 51 sends 39.
  constexpr std::uint64_t kInFlightSlack = 8;
  std::size_t most_frames = 0;
  for (std::uint64_t seed = 1; seed <= 80; ++seed) {
    const AttemptCost lossy = one_attempt(reconciler, lossy_faults(seed));
    ASSERT_TRUE(lossy.established) << "seed " << seed;
    most_frames = std::max(most_frames, lossy.frames);
    EXPECT_LE(lossy.allocations, lossless.allocations + kInFlightSlack)
        << "seed " << seed << ": " << lossy.frames << " frames, "
        << lossy.retransmissions << " retransmissions";
  }
  EXPECT_GE(most_frames, 3 * lossless.frames);
}

TEST(AllocBudget, LosslessAgreementAttemptStaysUnderABound) {
  if (!alloc_stats::hooks_installed()) GTEST_SKIP() << "no allocator hooks";
  const core::SyndromeCode reconciler(64, 11);
  protocol::register_protocol_metrics();
  (void)one_attempt(reconciler, {});
  const AttemptCost cost = one_attempt(reconciler, {});
  ASSERT_TRUE(cost.established);
  // 2: the clock's heap, reserved once, and the attempt log. Bob's
  // encoding and syndrome, Alice's decode, keys, frames, the link's slots
  // and the sessions' and transports' tables live inline or on the stack
  // (3 while the public channel logged every frame; 6 while the heap grew
  // by doubling; 12 while the encoding, the syndrome and the decode took 6
  // blocks; 40 when keys, frames and tables took one each; 120 when every
  // frame was copied per hop).
  EXPECT_LE(cost.allocations, 2u);
}

TEST(AllocBudget, FlightRecordingCostsOneBlockPerAttempt) {
  if (!alloc_stats::hooks_installed()) GTEST_SKIP() << "no allocator hooks";
  const core::SyndromeCode reconciler(64, 11);
  protocol::register_protocol_metrics();
  (void)one_attempt(reconciler, {}, true);
  const AttemptCost quiet = one_attempt(reconciler, {});
  const AttemptCost lossless = one_attempt(reconciler, {}, true);
  ASSERT_TRUE(lossless.established);
  ASSERT_GE(lossless.events, 30u);
  // Every event formats its detail in place: the replay costs the ring's
  // first block more than the run, however many events (68 blocks in all,
  // 27 more than without recording, when each detail was concatenated from
  // std::strings and the ring grew by doubling).
  EXPECT_LE(lossless.allocations, quiet.allocations + 1) << lossless.events
                                                         << " events";
  // A lossy attempt may outgrow the first block (64 events) once or twice
  // and hold more in flight (one more doubling of the clock's heap); it
  // allocates nothing per event.
  std::size_t most_events = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const AttemptCost lossy = one_attempt(reconciler, lossy_faults(seed), true);
    ASSERT_TRUE(lossy.established) << "seed " << seed;
    most_events = std::max(most_events, lossy.events);
    EXPECT_LE(lossy.allocations, lossless.allocations + 4)
        << "seed " << seed << ": " << lossy.events << " events";
  }
  EXPECT_GE(most_events, 2 * lossless.events);
}

TEST(AllocBudget, KeyConfirmationStaysUnderABound) {
  if (!alloc_stats::hooks_installed()) GTEST_SKIP() << "no allocator hooks";
  const BitVec secret = random_bits(128, vkey::Rng(4));
  using Role = protocol::KeySchedule::Role;
  const auto confirm_over = [&](double drop, std::uint64_t& allocs) {
    protocol::KeySchedule initiator(secret, 0x77, Role::kInitiator);
    protocol::KeySchedule responder(secret, 0x77, Role::kResponder);
    protocol::SimClock clock;
    protocol::PublicChannel base;
    protocol::FaultConfig faults;
    faults.drop_prob = drop;
    faults.seed = 5;
    protocol::UnreliableChannel link(clock, base, faults, sf7());
    protocol::ConfirmReport report;
    allocs = allocations_of([&] {
      report =
          protocol::run_key_confirmation(clock, link, initiator, responder);
    });
    return report;
  };
  std::uint64_t allocs = 0;
  // Register the fault counters a lossy run would otherwise add lazily.
  protocol::register_protocol_metrics();
  (void)confirm_over(0.0, allocs);  // warm-up: registers link/PHY metrics
  std::size_t most_transmissions = 0;
  for (const double drop : {0.0, 0.5, 0.7}) {
    const protocol::ConfirmReport report = confirm_over(drop, allocs);
    ASSERT_TRUE(report.confirmed) << "drop " << drop;
    most_transmissions = std::max(most_transmissions, report.transmissions);
    // 1: the clock's heap, reserved once. Both roles' frames and the
    // link's slots live inline, and retransmissions rewrite the same frames
    // (2 while the public channel logged every frame; 3 or 4 while the heap
    // grew by doubling; 11 while frames and slots took blocks; 70, 86 and
    // 117 for 1, 2 and 4 transmissions when each built a frame and a heap
    // closure).
    EXPECT_LE(allocs, 1u) << "drop " << drop << ", "
                          << report.transmissions << " transmissions";
  }
  EXPECT_GE(most_transmissions, 3u);
}

TEST(AllocBudget, SealOpenPairStaysUnderABound) {
  if (!alloc_stats::hooks_installed()) GTEST_SKIP() << "no allocator hooks";
  const BitVec secret = random_bits(128, vkey::Rng(4));
  using Role = protocol::KeySchedule::Role;
  protocol::KeySchedule a(secret, 0x78, Role::kInitiator);
  protocol::KeySchedule b(secret, 0x78, Role::kResponder);
  const std::vector<std::uint8_t> plain(40, 0x5a);
  std::optional<protocol::KeySchedule::Plaintext> opened;
  const std::uint64_t allocs = allocations_of([&] {
    const protocol::Message frame = a.seal(1, plain);
    opened = b.open(frame, 0.0);
  });
  ASSERT_TRUE(opened.has_value());
  EXPECT_EQ(*opened, plain);
  // The frame's payload and MAC and the opened plaintext live inline (1
  // while the plaintext was a vector; 3 while the payload and MAC were
  // too; 22 when each MAC assembled its input and open copied the
  // ciphertext).
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocBudget, FinalKeyIsAmplifiedOncePerSide) {
  if (!alloc_stats::hooks_installed()) GTEST_SKIP() << "no allocator hooks";
  const core::SyndromeCode reconciler(64, 11);
  const BitVec key = random_bits(64, vkey::Rng(6));
  protocol::SessionConfig cfg;
  cfg.session_id = 0x5e55;
  protocol::AliceSession alice(cfg, reconciler, key);
  protocol::BobSession bob(cfg, reconciler, key);
  const auto accept = bob.handle(alice.start());
  const auto syndrome = bob.take_unprompted();
  ASSERT_TRUE(accept.has_value() && syndrome.has_value());
  EXPECT_FALSE(alice.handle(*accept).has_value());
  const auto confirm = alice.handle(*syndrome);
  ASSERT_TRUE(confirm.has_value());
  const auto ack = bob.handle(*confirm);
  ASSERT_TRUE(ack.has_value());
  EXPECT_FALSE(alice.handle(*ack).has_value());
  ASSERT_EQ(alice.state(), protocol::SessionState::kEstablished);
  ASSERT_EQ(bob.state(), protocol::SessionState::kEstablished);
  EXPECT_TRUE(alice.agrees_with(bob));

  BitVec final_key;
  // Nothing: the amplification ran when each side's key was fixed and the
  // returned key lives inline (1 block while it did not; 3 per call when
  // every call re-amplified).
  EXPECT_EQ(allocations_of([&] { final_key = alice.final_key(); }), 0u);
  EXPECT_EQ(final_key, bob.final_key());
  EXPECT_EQ(final_key,
            core::PrivacyAmplifier(protocol::kFinalKeyBits)
                .amplify(key, cfg.session_id));
  const auto bytes = final_key.to_bytes();
  EXPECT_EQ(crypto::to_hex(bytes.data(), bytes.size()),
            "955b1e7d50791dabb37e77a46bc711ae");
}

// ------------------------------------------------------------- session

/// Blocks of one session from first probe to confirmed epoch, as a closed
/// loop over lossless SF12 runs it: the session builds its generator on
/// the first attempt, and each attempt probes the next 16 rounds of an
/// Eve-less drive, extracts the window and predicts Alice's bits, then
/// agrees. The model is untrained, so Bob holds
/// his own quantized bits, which hers do not match, until attempt
/// `agree_from`; from it on he holds her prediction, so the session
/// establishes on that attempt. Both KeySchedule roles then confirm
/// epoch 0 over the wire.
struct SessionCost {
  std::uint64_t allocations = 0;
  std::size_t attempts = 0;
  bool confirmed = false;
};

SessionCost one_session(const core::SyndromeCode& code,
                        const core::PredictorQuantizer& predictor,
                        std::uint64_t seed, std::size_t agree_from) {
  const core::DatasetConfig ds;
  protocol::ReliabilityConfig cfg;
  cfg.max_session_attempts = 6;
  SessionCost cost;
  cost.allocations = allocations_of([&] {
    std::optional<channel::TraceGenerator> gen;
    protocol::PublicChannel air;
    const protocol::AgreementReport report =
        protocol::run_reliable_key_agreement(
            air, code, cfg, [&](std::size_t attempt) {
              if (!gen) gen.emplace(sf12_drive(seed));
              const auto rounds = gen->generate(16);
              auto samples = core::make_samples(
                  core::extract_streams(rounds, ds.extractor,
                                        ds.reciprocal_windows),
                  ds);
              auto out = predictor.infer(samples.at(0).alice_seq);
              BitVec bob = attempt < agree_from
                               ? std::move(samples[0].bob_bits)
                               : out.bits;
              return std::make_pair(std::move(out.bits), std::move(bob));
            });
    cost.attempts = report.attempts;
    if (!report.established) return;
    const std::uint64_t sid = report.attempt_log.back().session_id;
    using Role = protocol::KeySchedule::Role;
    protocol::KeySchedule initiator(report.key, sid, Role::kInitiator);
    protocol::KeySchedule responder(report.key, sid, Role::kResponder);
    protocol::SimClock clock;
    protocol::PublicChannel wire;
    protocol::UnreliableChannel link(clock, wire, cfg.fault, cfg.radio);
    cost.confirmed =
        protocol::run_key_confirmation(clock, link, initiator, responder)
            .confirmed;
  });
  return cost;
}

TEST(AllocBudget, SessionFromProbeToConfirmedEpochIsFixedPlusPerAttempt) {
  if (!alloc_stats::hooks_installed()) GTEST_SKIP() << "no allocator hooks";
  const core::SyndromeCode code(64, 11);
  const core::PredictorQuantizer predictor{core::PredictorConfig{}};
  protocol::register_protocol_metrics();
  (void)one_session(code, predictor, 1, 1);  // warm-up: weights, metrics
  // Fixed: the generator's state, the agreement's clock heap and attempt
  // log, and the confirmation's clock heap (4). Per attempt: the round
  // vector, extraction's 5 blocks and the prediction's workspace (7). While
  // every attempt recorded into a flight ring of its own, the ring added
  // one more per attempt (8); while the public channel logged every frame,
  // the agreement's and the confirmation's logs added 2 fixed blocks (6);
  // while the agreement took its material callback as a std::function, the
  // closure added one more (7); while rRSSI samples, ray phases, device
  // names, per-packet sequences, quantizer scratch and prediction rows took
  // blocks of their own, and the clock heaps grew by doubling, the fixed
  // part was 23 blocks and each attempt 47.
  constexpr std::uint64_t kFixed = 4;
  constexpr std::uint64_t kPerAttempt = 7;
  for (const std::size_t agree_from : {0u, 1u, 3u}) {
    for (const std::uint64_t seed : {2u, 3u}) {
      const SessionCost cost = one_session(code, predictor, seed, agree_from);
      ASSERT_TRUE(cost.confirmed) << "seed " << seed;
      ASSERT_EQ(cost.attempts, agree_from + 1) << "seed " << seed;
      EXPECT_LE(cost.allocations, kFixed + kPerAttempt * cost.attempts)
          << "seed " << seed << ", " << cost.attempts << " attempts";
    }
  }
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
