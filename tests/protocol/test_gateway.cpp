// Gateway engine: registry state machines, admission control, the shared
// event queue, and the determinism contract at thousand-session scale.
// Everything runs on virtual time — no sleeps.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "core/privacy.h"
#include "core/reconciler.h"
#include "protocol/gateway.h"
#include "protocol/session.h"
#include "protocol/session_registry.h"
#include "protocol/sim_clock.h"
#include "protocol/unreliable_channel.h"

namespace vkey::protocol {
namespace {

channel::LoRaParams fast_radio() {
  channel::LoRaParams p;
  p.spreading_factor = 7;  // keep virtual airtimes small in tests
  return p;
}

// --------------------------------------------------------- SessionRegistry

TEST(SessionRegistry, FifoAdmissionHonorsTheInflightCap) {
  SessionRegistry reg(2);
  reg.arrive(0, 0.0);
  reg.arrive(1, 1.0);
  reg.arrive(2, 2.0);
  EXPECT_EQ(reg.queued(), 3u);
  EXPECT_TRUE(reg.slot_free());

  const auto a = reg.admit_next(5.0);
  const auto b = reg.admit_next(5.0);
  const auto c = reg.admit_next(5.0);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*a, 0u);  // FIFO: first arrival admitted first
  EXPECT_EQ(*b, 1u);
  EXPECT_FALSE(c.has_value());  // both slots taken
  EXPECT_EQ(reg.establishing(), 2u);
  EXPECT_EQ(reg.queued(), 1u);
  EXPECT_FALSE(reg.slot_free());

  reg.established(0, 9.0);
  EXPECT_TRUE(reg.slot_free());
  const auto d = reg.admit_next(9.0);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, 2u);

  EXPECT_DOUBLE_EQ(reg.record(0).queue_wait_ms(), 5.0);
  EXPECT_DOUBLE_EQ(reg.record(0).time_to_key_ms(), 9.0);
  EXPECT_DOUBLE_EQ(reg.record(2).queue_wait_ms(), 7.0);
  EXPECT_EQ(reg.stats().peak_inflight, 2u);
  EXPECT_EQ(reg.stats().peak_queued, 3u);
}

TEST(SessionRegistry, EvictionBookkeepingSeparatesIdleFromFailure) {
  SessionRegistry reg(1);
  reg.arrive(0, 0.0);
  reg.arrive(1, 0.0);

  ASSERT_TRUE(reg.admit_next(1.0).has_value());
  reg.failed(0, 4.0, FailureReason::kRetryExhausted);
  reg.evict(0, 4.0, EvictReason::kFailed);
  EXPECT_EQ(reg.record(0).state, DeviceState::kEvicted);
  ASSERT_TRUE(reg.record(0).evict_reason.has_value());
  EXPECT_EQ(*reg.record(0).evict_reason, EvictReason::kFailed);
  EXPECT_EQ(reg.record(0).failure, FailureReason::kRetryExhausted);
  EXPECT_LT(reg.record(0).time_to_key_ms(), 0.0);  // never established

  ASSERT_TRUE(reg.admit_next(5.0).has_value());
  reg.established(1, 8.0);
  reg.rekeyed(1, 10.0);
  reg.rekeyed(1, 12.0);
  EXPECT_DOUBLE_EQ(reg.record(1).last_activity_ms, 12.0);
  reg.evict(1, 20.0, EvictReason::kIdle);

  const RegistryStats& s = reg.stats();
  EXPECT_EQ(s.arrivals, 2u);
  EXPECT_EQ(s.admissions, 2u);
  EXPECT_EQ(s.established, 1u);
  EXPECT_EQ(s.failures, 1u);
  EXPECT_EQ(s.evicted_idle, 1u);
  EXPECT_EQ(s.evicted_failed, 1u);
  EXPECT_EQ(s.rekeys, 2u);
  EXPECT_EQ(reg.record(1).rekeys, 2u);
  EXPECT_EQ(reg.establishing(), 0u);
  EXPECT_EQ(reg.confirmed_active(), 0u);
}

TEST(SessionRegistry, StateAndReasonStringsAreHumanReadable) {
  EXPECT_EQ(to_string(DeviceState::kQueued), "queued");
  EXPECT_EQ(to_string(DeviceState::kEstablishing), "establishing");
  EXPECT_EQ(to_string(DeviceState::kConfirmed), "confirmed");
  EXPECT_EQ(to_string(DeviceState::kEvicted), "evicted");
  EXPECT_EQ(to_string(EvictReason::kIdle), "idle");
  EXPECT_EQ(to_string(EvictReason::kFailed), "failed");
}

// ----------------------------------------------------------- GatewayEngine

class GatewayTest : public ::testing::Test {
 public:
  /// Pure per-device probe material (the gateway calls it from pool lanes).
  static GatewayEngine::MaterialFn material() {
    return [](std::uint64_t device, std::size_t attempt) {
      return flipped_pair(
          64, 3, hash_combine64(hash_combine64(0x6a73, device), attempt));
    };
  }

  static GatewayConfig small_config(std::size_t sessions,
                                    std::size_t inflight) {
    GatewayConfig cfg;
    cfg.sessions = sessions;
    cfg.max_inflight = inflight;
    cfg.arrival_interval_ms = 5.0;
    cfg.rekey_interval_ms = 2000.0;
    cfg.max_rekeys = 2;
    cfg.reliability.radio = fast_radio();
    cfg.reliability.max_session_attempts = 6;
    return cfg;
  }

  static inline const core::SyndromeCode reconciler_{64, 11};
};

TEST_F(GatewayTest, LosslessRunDrivesEverySessionToIdleEviction) {
  GatewayEngine engine(small_config(50, 8), reconciler_, material());
  const GatewayReport rep = engine.run();

  EXPECT_EQ(rep.sessions, 50u);
  EXPECT_EQ(rep.established, 50u);
  EXPECT_EQ(rep.failed, 0u);
  EXPECT_EQ(rep.evicted_idle, 50u);
  EXPECT_EQ(rep.evicted_failed, 0u);
  EXPECT_EQ(rep.rekeys, 100u);  // max_rekeys per confirmed session
  EXPECT_LE(rep.peak_inflight, 8u);
  EXPECT_GT(rep.keys_per_vsecond, 0.0);
  EXPECT_GT(rep.median_time_to_key_ms, 0.0);
  EXPECT_GE(rep.p95_time_to_key_ms, rep.median_time_to_key_ms);
  EXPECT_GT(rep.bytes_per_session, 0.0);
  EXPECT_TRUE(rep.failure_dumps.empty());
  EXPECT_EQ(rep.failures_suppressed, 0u);

  // The registry quiesced: no session left queued, establishing or live.
  const SessionRegistry& reg = engine.registry();
  EXPECT_EQ(reg.queued(), 0u);
  EXPECT_EQ(reg.establishing(), 0u);
  EXPECT_EQ(reg.confirmed_active(), 0u);
  for (std::uint64_t d = 0; d < 50; ++d) {
    EXPECT_EQ(reg.record(d).state, DeviceState::kEvicted);
    EXPECT_EQ(reg.record(d).rekeys, 2u);
    EXPECT_FALSE(engine.outcomes()[d].key.size() == 0);
  }
  // Makespan covers the last session's idle timeout after its last rekey.
  EXPECT_GT(rep.makespan_ms, rep.establish_span_ms);
}

TEST_F(GatewayTest, AdmissionQueuePreservesArrivalOrderUnderContention) {
  GatewayConfig cfg = small_config(40, 4);
  cfg.arrival_interval_ms = 1.0;  // arrivals outpace the 4 slots
  GatewayEngine engine(cfg, reconciler_, material());
  const GatewayReport rep = engine.run();

  EXPECT_EQ(rep.established, 40u);
  EXPECT_GT(rep.peak_queued, 0u);
  EXPECT_GT(rep.mean_queue_wait_ms, 0.0);
  // FIFO admission: earlier arrivals are never admitted after later ones.
  const SessionRegistry& reg = engine.registry();
  for (std::uint64_t d = 1; d < 40; ++d) {
    EXPECT_LE(reg.record(d - 1).admitted_ms, reg.record(d).admitted_ms)
        << "device " << d;
  }
}

TEST_F(GatewayTest, ThousandSessionRunIsIdenticalAcrossLaneCounts) {
  const auto run_with = [](std::size_t threads) {
    GatewayConfig cfg = small_config(1000, 64);
    cfg.threads = threads;
    GatewayEngine engine(cfg, reconciler_, material());
    return std::make_pair(engine.run(), engine.outcomes());
  };
  const auto [rep1, out1] = run_with(1);
  const auto [rep4, out4] = run_with(4);

  // The report folds virtual-time quantities only; every field must match
  // the sequential reference exactly (DESIGN.md §9 contract).
  EXPECT_EQ(rep1.established, rep4.established);
  EXPECT_EQ(rep1.rekeys, rep4.rekeys);
  EXPECT_EQ(rep1.peak_inflight, rep4.peak_inflight);
  EXPECT_EQ(rep1.peak_queued, rep4.peak_queued);
  EXPECT_EQ(rep1.makespan_ms, rep4.makespan_ms);
  EXPECT_EQ(rep1.establish_span_ms, rep4.establish_span_ms);
  EXPECT_EQ(rep1.median_time_to_key_ms, rep4.median_time_to_key_ms);
  EXPECT_EQ(rep1.p95_time_to_key_ms, rep4.p95_time_to_key_ms);
  EXPECT_EQ(rep1.mean_queue_wait_ms, rep4.mean_queue_wait_ms);
  EXPECT_EQ(rep1.bytes_per_session, rep4.bytes_per_session);

  ASSERT_EQ(out1.size(), out4.size());
  for (std::size_t d = 0; d < out1.size(); ++d) {
    EXPECT_EQ(out1[d].established, out4[d].established) << "device " << d;
    EXPECT_EQ(out1[d].establish_ms, out4[d].establish_ms) << "device " << d;
    EXPECT_EQ(out1[d].wire_bytes, out4[d].wire_bytes) << "device " << d;
    EXPECT_EQ(out1[d].attempts, out4[d].attempts) << "device " << d;
    ASSERT_TRUE(out1[d].key == out4[d].key) << "device " << d;
  }
}

TEST_F(GatewayTest, FailedSessionsEvictWithBoundedPostMortems) {
  // Every 5th device gets uncorrelated keys: reconciliation cannot fix
  // them, so those sessions fail terminally on every attempt.
  const GatewayEngine::MaterialFn mixed =
      [](std::uint64_t device, std::size_t attempt) {
        const std::uint64_t seed =
            hash_combine64(hash_combine64(0x6a73, device), attempt);
        if (device % 5 == 0) {
          return std::make_pair(random_bits(64, vkey::Rng(seed ^ 0xdead)),
                                random_bits(64, vkey::Rng(seed)));
        }
        return flipped_pair(64, 3, seed);
      };
  GatewayEngine engine(small_config(20, 4), reconciler_, mixed);
  const GatewayReport rep = engine.run();

  EXPECT_EQ(rep.failed, 4u);  // devices 0, 5, 10, 15
  EXPECT_EQ(rep.established, 16u);
  EXPECT_EQ(rep.evicted_failed, 4u);
  EXPECT_EQ(rep.evicted_idle, 16u);
  // The first three failures get a post-mortem; the fourth is counted.
  ASSERT_EQ(rep.failure_dumps.size(), 3u);
  EXPECT_EQ(rep.failures_suppressed, 1u);
  // Dumps are regenerated deterministically and carry the device id plus a
  // flight-recorder timeline of the failing attempts.
  EXPECT_NE(rep.failure_dumps[0].find("device 0:"), std::string::npos);
  EXPECT_NE(rep.failure_dumps[0].find("attempt"), std::string::npos);
  EXPECT_NE(rep.failure_dumps[1].find("device 5:"), std::string::npos);
  EXPECT_NE(rep.failure_dumps[2].find("device 10:"), std::string::npos);
  for (const std::uint64_t d : {0u, 5u, 10u, 15u}) {
    EXPECT_EQ(engine.registry().record(d).state, DeviceState::kEvicted);
    EXPECT_EQ(*engine.registry().record(d).evict_reason, EvictReason::kFailed);
  }
}

TEST_F(GatewayTest, LiveKeyCarriesTheEstablishingAttemptsSessionId) {
  // Attempt k runs under the device's first session id + k, and the key it
  // establishes was amplified under that id, so the live schedule must use
  // it too. Every third device's first probe is uncorrelated, so it needs
  // a recovery attempt however the lossy link treats it.
  GatewayConfig cfg = small_config(40, 8);
  cfg.reliability.fault.drop_prob = 0.3;
  cfg.reliability.fault.corrupt_prob = 0.05;
  const GatewayEngine::MaterialFn source =
      [](std::uint64_t device, std::size_t attempt) {
        const std::uint64_t seed =
            hash_combine64(hash_combine64(0x6a73, device), attempt);
        if (attempt == 0 && device % 3 == 0) {
          return std::make_pair(random_bits(64, vkey::Rng(seed ^ 0xdead)),
                                random_bits(64, vkey::Rng(seed)));
        }
        return flipped_pair(64, 3, seed);
      };
  GatewayEngine engine(cfg, reconciler_, source);
  const GatewayReport rep = engine.run();

  std::size_t established = 0, recovered = 0;
  for (std::uint64_t d = 0; d < cfg.sessions; ++d) {
    const SessionOutcome& out = engine.outcomes()[d];
    if (!out.established) {
      EXPECT_EQ(out.session_id, 0u) << "device " << d;
      continue;
    }
    ++established;
    recovered += out.attempts >= 2;
    EXPECT_EQ(out.session_id, 1 + (d << 4) + out.attempts - 1)
        << "device " << d;
    const BitVec bob_raw = source(d, out.attempts - 1).second;
    EXPECT_TRUE(out.key == core::PrivacyAmplifier(kFinalKeyBits)
                               .amplify(bob_raw, out.session_id))
        << "device " << d;
  }
  EXPECT_EQ(established, rep.established);
  EXPECT_GT(recovered, 0u) << "no device needed a recovery attempt";
}

TEST_F(GatewayTest, RetryBudgetMustFitADevicesSessionIds) {
  // Each device owns 16 session ids; a 17th attempt would run under the
  // next device's first id.
  GatewayConfig cfg = small_config(4, 2);
  cfg.reliability.max_session_attempts = 16;
  EXPECT_NO_THROW((GatewayEngine{cfg, reconciler_, material()}));
  cfg.reliability.max_session_attempts = 17;
  EXPECT_THROW((GatewayEngine{cfg, reconciler_, material()}), vkey::Error);
}

// ------------------------------- interleaved sessions on one shared clock

/// Two independent Alice/Bob pairs, both wired onto ONE SimClock, with
/// frame duplication and reordering injected on both links: the sessions'
/// events interleave on the shared timeline, and each pair's
/// duplicate/replay guards must hold without cross-talk.
TEST_F(GatewayTest, InterleavedSessionsOnSharedClockSuppressDuplicates) {
  SimClock clock;  // vkey-lint: allow(sim-clock-owner)

  struct Pair {
    PublicChannel base;
    UnreliableChannel link;
    AliceSession alice;
    BobSession bob;
    ReliableTransport alice_tx;
    ReliableTransport bob_tx;

    Pair(SimClock& clk, std::uint64_t id, const core::SyndromeCode& rec,
         BitVec alice_raw, BitVec bob_raw, const SessionConfig& scfg)
        : link(clk, base, dup_faults(id), fast_radio()),
          alice(scfg, rec, std::move(alice_raw)),
          bob(scfg, rec, std::move(bob_raw)),
          alice_tx(clk, arq_for(2 * id), link,
                   UnreliableChannel::Endpoint::kAlice, alice),
          bob_tx(clk, arq_for(2 * id + 1), link,
                 UnreliableChannel::Endpoint::kBob, bob) {}

    static FaultConfig dup_faults(std::uint64_t id) {
      FaultConfig f;
      f.dup_prob = 0.4;
      f.reorder_prob = 0.3;
      f.seed = hash_combine64(0xd0b, id);
      return f;
    }
    static ArqConfig arq_for(std::uint64_t id) {
      ArqConfig a;
      a.seed = hash_combine64(0x50c, id);
      return a;
    }

    bool established() const {
      return alice.state() == SessionState::kEstablished &&
             bob.state() == SessionState::kEstablished;
    }
  };

  const BitVec kb0 = random_bits(64, vkey::Rng(900));
  const BitVec kb1 = random_bits(64, vkey::Rng(901));
  SessionConfig scfg0;
  scfg0.session_id = 17;
  SessionConfig scfg1;
  scfg1.session_id = 33;
  Pair p0(clock, 0, reconciler_, with_flips(kb0, 2, vkey::Rng(910)), kb0,
          scfg0);
  Pair p1(clock, 1, reconciler_, with_flips(kb1, 2, vkey::Rng(911)), kb1,
          scfg1);

  // Stagger the starts so the two exchanges interleave mid-flight on the
  // shared timeline instead of running in lockstep.
  p0.alice_tx.send(p0.alice.start());
  clock.schedule(3.0, [&] { p1.alice_tx.send(p1.alice.start()); });

  std::size_t events = 0;
  while (!(p0.established() && p1.established()) && events < 100000) {
    if (!clock.run_next()) break;
    ++events;
  }

  ASSERT_TRUE(p0.established());
  ASSERT_TRUE(p1.established());
  EXPECT_TRUE(p0.alice.final_key() == p0.bob.final_key());
  EXPECT_TRUE(p1.alice.final_key() == p1.bob.final_key());
  EXPECT_FALSE(p0.alice.final_key() == p1.alice.final_key());

  // The links actually injected duplicates, and the replay guards absorbed
  // every one of them (no session ever entered a reject-fatal state).
  EXPECT_GT(p0.link.stats().duplicated + p1.link.stats().duplicated, 0u);
  EXPECT_GT(p0.alice.duplicates_suppressed() + p0.bob.duplicates_suppressed() +
                p1.alice.duplicates_suppressed() +
                p1.bob.duplicates_suppressed(),
            0u);
}

TEST_F(GatewayTest, LifecycleTicksLandOnTheGridAndCoverTheWholeRun) {
  GatewayEngine engine(small_config(30, 8), reconciler_, material());
  std::vector<double> ticks;
  engine.set_tick([&ticks](double now_ms) { ticks.push_back(now_ms); });
  const GatewayReport rep = engine.run();

  // Ticks are lifecycle events on the shared clock: one per interval,
  // strictly on the 1 s grid, starting at the first interval.
  ASSERT_FALSE(ticks.empty());
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    EXPECT_DOUBLE_EQ(ticks[i], 1000.0 * static_cast<double>(i + 1));
  }
  // The chain stops only at quiescence, so the final tick is the last event
  // and the makespan rounds up to the grid.
  EXPECT_DOUBLE_EQ(rep.makespan_ms, ticks.back());
  EXPECT_EQ(rep.established, 30u);

  // Observers are a pre-run decision.
  EXPECT_THROW(engine.set_tick([](double) {}), vkey::Error);

  // The same run without ticks produces identical session outcomes; only
  // the makespan differs, by less than one tick interval of grid rounding.
  GatewayEngine plain(small_config(30, 8), reconciler_, material());
  const GatewayReport prep = plain.run();
  EXPECT_EQ(prep.established, rep.established);
  EXPECT_EQ(prep.rekeys, rep.rekeys);
  EXPECT_DOUBLE_EQ(prep.median_time_to_key_ms, rep.median_time_to_key_ms);
  EXPECT_DOUBLE_EQ(prep.p99_time_to_key_ms, rep.p99_time_to_key_ms);
  EXPECT_LE(prep.makespan_ms, rep.makespan_ms);
  EXPECT_LE(rep.makespan_ms - prep.makespan_ms, kTickIntervalMs);
}

}  // namespace
}  // namespace vkey::protocol
