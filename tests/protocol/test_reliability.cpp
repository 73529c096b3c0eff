// Reliability layer: virtual clock, fault-injecting channel, ARQ backoff
// and session recovery. Everything here runs on virtual time — no sleeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "core/reconciler.h"
#include "crypto/sha256.h"
#include "metrics_on.h"
#include "protocol/attacks.h"
#include "protocol/key_schedule.h"
#include "protocol/reliability.h"
#include "protocol/reliable_transport.h"
#include "protocol/session.h"
#include "protocol/sim_clock.h"
#include "protocol/unreliable_channel.h"
#include "protocol/wire.h"

namespace vkey::protocol {
namespace {

// ------------------------------------------------------------------ SimClock

TEST(SimClock, RunsEventsInDueTimeOrder) {
  SimClock clock;
  std::vector<int> order;
  clock.schedule(30.0, [&] { order.push_back(3); });
  clock.schedule(10.0, [&] { order.push_back(1); });
  clock.schedule(20.0, [&] { order.push_back(2); });
  EXPECT_EQ(clock.run_until_idle(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(clock.now_ms(), 30.0);
}

TEST(SimClock, SameInstantFiresFifo) {
  SimClock clock;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    clock.schedule(7.0, [&order, i] { order.push_back(i); });
  }
  clock.run_until_idle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimClock, CancelPreventsExecution) {
  SimClock clock;
  int fired = 0;
  const auto id = clock.schedule(5.0, [&] { ++fired; });
  EXPECT_TRUE(clock.cancel(id));
  EXPECT_FALSE(clock.cancel(id));  // double cancel is a no-op
  clock.run_until_idle();
  EXPECT_EQ(fired, 0);
}

TEST(SimClock, CancelReleasesItsCallbackAtOnce) {
  // A cancelled event's captures go at cancel(), not when the event would
  // have fired: here it sits mid-queue, between earlier and later events.
  SimClock clock;
  const auto token = std::make_shared<int>(0);
  int fired = 0;
  clock.schedule(1.0, [&fired] { ++fired; });
  const auto id = clock.schedule(5.0, [token] { ++*token; });
  clock.schedule(9.0, [&fired] { ++fired; });
  EXPECT_EQ(token.use_count(), 2);
  EXPECT_TRUE(clock.cancel(id));
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(clock.pending(), 2u);
  EXPECT_EQ(clock.run_until_idle(), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(*token, 0);
}

TEST(SimClock, CallbacksMayScheduleFurtherEvents) {
  SimClock clock;
  std::vector<double> times;
  clock.schedule(1.0, [&] {
    times.push_back(clock.now_ms());
    clock.schedule(2.0, [&] { times.push_back(clock.now_ms()); });
  });
  clock.run_until_idle();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(SimClock, RunUntilAdvancesClockEvenWhenIdle) {
  SimClock clock;
  EXPECT_EQ(clock.run_until(42.0), 0u);
  EXPECT_DOUBLE_EQ(clock.now_ms(), 42.0);
}

// ------------------------------------------------------------- backoff maths

TEST(ArqBackoff, DelaysRespectBaseCapAndExponentialCeiling) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    vkey::Rng rng(seed);
    for (std::size_t attempt = 0; attempt < 12; ++attempt) {
      const double d = arq_backoff_delay_ms(attempt, rng);
      const double ceiling =
          std::min(kMaxBackoffMs,
                   kBaseBackoffMs * std::pow(kBackoffFactor,
                                             static_cast<double>(attempt)));
      EXPECT_GE(d, kBaseBackoffMs)
          << "attempt " << attempt << " seed " << seed;
      EXPECT_LE(d, ceiling) << "attempt " << attempt << " seed " << seed;
    }
  }
}

TEST(ArqBackoff, FirstAttemptIsExactlyBase) {
  vkey::Rng rng(9);
  EXPECT_DOUBLE_EQ(arq_backoff_delay_ms(0, rng), kBaseBackoffMs);
}

TEST(ArqBackoff, DeterministicUnderFixedSeed) {
  vkey::Rng a(77), b(77);
  for (std::size_t attempt = 0; attempt < 10; ++attempt) {
    EXPECT_DOUBLE_EQ(arq_backoff_delay_ms(attempt, a),
                     arq_backoff_delay_ms(attempt, b));
  }
}

TEST(ArqBackoff, JitterActuallySpreadsDelays) {
  // Decorrelated jitter: at a high attempt index the interval
  // [base, cap] is wide, so distinct draws must not collapse to one value.
  vkey::Rng rng(5);
  std::vector<double> draws;
  for (int i = 0; i < 16; ++i) draws.push_back(arq_backoff_delay_ms(8, rng));
  std::sort(draws.begin(), draws.end());
  EXPECT_GT(draws.back() - draws.front(), 500.0);
}

// --------------------------------------------------------- UnreliableChannel

channel::LoRaParams fast_radio() {
  channel::LoRaParams p;
  p.spreading_factor = 7;  // keep virtual airtimes small in tests
  return p;
}

TEST(UnreliableChannel, FaultFreeLinkDeliversEverythingInOrder) {
  SimClock clock;
  PublicChannel base;
  std::vector<Message> eve;
  record_transcript(base, eve);
  FaultConfig faults;  // all probabilities zero
  UnreliableChannel link(clock, base, faults, fast_radio());
  std::vector<std::uint64_t> seen;
  link.set_handler(UnreliableChannel::Endpoint::kBob,
                   [&](const Message& m) { seen.push_back(m.nonce); });
  link.set_handler(UnreliableChannel::Endpoint::kAlice,
                   [](const Message&) {});
  for (std::uint64_t n = 0; n < 5; ++n) {
    Message m;
    m.session_id = 1;
    m.nonce = n;
    link.send(UnreliableChannel::Endpoint::kAlice, m);
  }
  clock.run_until_idle();
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_EQ(link.stats().delivered, 5u);
  EXPECT_EQ(link.stats().dropped, 0u);
  EXPECT_EQ(eve.size(), 5u);       // Eve still sees everything
  EXPECT_GT(clock.now_ms(), 0.0);  // airtime-derived latency
}

TEST(UnreliableChannel, DropRateIsRoughlyHonoured) {
  SimClock clock;
  PublicChannel base;
  FaultConfig faults;
  faults.drop_prob = 0.3;
  faults.seed = 42;
  UnreliableChannel link(clock, base, faults, fast_radio());
  link.set_handler(UnreliableChannel::Endpoint::kBob, [](const Message&) {});
  link.set_handler(UnreliableChannel::Endpoint::kAlice,
                   [](const Message&) {});
  Message m;
  m.session_id = 1;
  for (std::uint64_t n = 0; n < 2000; ++n) {
    m.nonce = n;
    link.send(UnreliableChannel::Endpoint::kAlice, m);
  }
  clock.run_until_idle();
  const double observed =
      static_cast<double>(link.stats().dropped) / 2000.0;
  EXPECT_NEAR(observed, 0.3, 0.04);
  EXPECT_EQ(link.stats().delivered + link.stats().dropped, 2000u);
}

TEST(UnreliableChannel, DuplicationDeliversTwice) {
  SimClock clock;
  PublicChannel base;
  FaultConfig faults;
  faults.dup_prob = 1.0;
  UnreliableChannel link(clock, base, faults, fast_radio());
  std::size_t deliveries = 0;
  link.set_handler(UnreliableChannel::Endpoint::kBob,
                   [&](const Message&) { ++deliveries; });
  link.set_handler(UnreliableChannel::Endpoint::kAlice,
                   [](const Message&) {});
  Message m;
  link.send(UnreliableChannel::Endpoint::kAlice, m);
  clock.run_until_idle();
  EXPECT_EQ(deliveries, 2u);
  EXPECT_EQ(link.stats().duplicated, 1u);
}

TEST(UnreliableChannel, SeededFaultStreamIsReproducible) {
  const auto run = [] {
    SimClock clock;
    PublicChannel base;
    FaultConfig faults;
    faults.drop_prob = 0.25;
    faults.dup_prob = 0.1;
    faults.reorder_prob = 0.2;
    faults.seed = 7;
    UnreliableChannel link(clock, base, faults, fast_radio());
    std::vector<std::uint64_t> seen;
    link.set_handler(UnreliableChannel::Endpoint::kBob,
                     [&](const Message& m) { seen.push_back(m.nonce); });
    link.set_handler(UnreliableChannel::Endpoint::kAlice,
                     [](const Message&) {});
    Message m;
    for (std::uint64_t n = 0; n < 200; ++n) {
      m.nonce = n;
      link.send(UnreliableChannel::Endpoint::kAlice, m);
    }
    clock.run_until_idle();
    return seen;
  };
  EXPECT_EQ(run(), run());
}

TEST(UnreliableChannel, DeliversTheFrameItWasGivenWhateverTheBaseHolds) {
  // The link uses the base channel for its interceptor only: Bob gets the
  // frame that was sent, a frame the interceptor drops never reaches him,
  // and Eve, listening in the same interceptor, hears both.
  SimClock clock;
  PublicChannel base;
  std::vector<Message> eve;
  bool drop = false;
  base.set_interceptor([&](Message& m) {
    eve.push_back(m);
    return !drop;
  });
  UnreliableChannel link(clock, base, FaultConfig{}, fast_radio());
  std::vector<std::uint64_t> at_bob;
  link.set_handler(UnreliableChannel::Endpoint::kBob,
                   [&](const Message& m) { at_bob.push_back(m.nonce); });
  link.set_handler(UnreliableChannel::Endpoint::kAlice,
                   [](const Message&) {});
  Message frame;

  frame.nonce = 1;
  link.send(UnreliableChannel::Endpoint::kAlice, frame);
  clock.run_until_idle();
  EXPECT_EQ(at_bob, (std::vector<std::uint64_t>{1}));

  drop = true;
  frame.nonce = 2;
  link.send(UnreliableChannel::Endpoint::kAlice, frame);
  clock.run_until_idle();
  EXPECT_EQ(at_bob, (std::vector<std::uint64_t>{1}));  // the drop holds
  EXPECT_EQ(eve.size(), 2u);                           // Eve saw both frames
}

// ------------------------------------------------- end-to-end key agreement

class ReliabilityTest : public ::testing::Test {
 public:  // helpers are shared with the free-standing drop-sweep driver
  /// Probe material for trial `trial`: Bob's key plus a 3-bit-noisy copy
  /// for Alice; attempts within a trial draw fresh material.
  static auto material_for(std::uint64_t trial) {
    return [trial](std::size_t attempt) {
      const std::uint64_t seed = hash_combine64(trial, attempt);
      const BitVec kb = random_bits(64, vkey::Rng(seed));
      return std::make_pair(with_flips(kb, 3, vkey::Rng(seed ^ 0x5a5a)), kb);
    };
  }

  static ReliabilityConfig config_for(double drop, std::uint64_t trial) {
    ReliabilityConfig cfg;
    cfg.radio = fast_radio();
    cfg.fault.drop_prob = drop;
    cfg.fault.seed = hash_combine64(0xfau, trial);
    cfg.arq.seed = hash_combine64(0x1eadu, trial);
    return cfg;
  }

  static inline const core::SyndromeCode reconciler_{64, 11};
};

TEST_F(ReliabilityTest, FaultFreeRunMatchesSeedPathAndNeverRetransmits) {
  const BitVec kb = random_bits(64, vkey::Rng(100));
  const BitVec ka = with_flips(kb, 3, vkey::Rng(101));

  // Seed path, from core alone: Alice's reconciliation recovers Bob's key.
  ASSERT_EQ(reconciler_.reconcile(ka, reconciler_.encode_bob(kb)), kb);

  // Reliability layer with zero faults on the same material.
  PublicChannel base;
  ReliabilityConfig cfg = config_for(0.0, 1);
  const auto report = run_reliable_key_agreement(
      base, reconciler_, cfg,
      [&](std::size_t) { return std::make_pair(ka, kb); });
  ASSERT_TRUE(report.established);
  EXPECT_EQ(report.attempts, 1u);
  EXPECT_EQ(report.failure, FailureReason::kNone);
  const auto& att = report.attempt_log.front();
  // Identical to the seed path: Bob's key, amplified under the session id.
  EXPECT_EQ(report.key,
            core::PrivacyAmplifier(kFinalKeyBits).amplify(kb, att.session_id));
  EXPECT_EQ(att.alice_transport.retransmissions, 0u);
  EXPECT_EQ(att.bob_transport.retransmissions, 0u);
  EXPECT_EQ(att.alice_duplicates_suppressed, 0u);
  EXPECT_GT(report.time_to_establish_ms, 0.0);
}

// Acceptance criterion: at 10% and 25% drop on every message type, key
// agreement succeeds >= 99% of 200 trials within the retry budget, both
// parties hold identical keys in every success, and the counters report
// retransmissions.
void run_drop_sweep(double drop, const core::SyndromeCode& reconciler) {
  constexpr int kTrials = 200;
  int successes = 0;
  std::size_t total_retransmissions = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    ReliabilityConfig cfg = ReliabilityTest::config_for(
        drop, static_cast<std::uint64_t>(trial) + 1);
    PublicChannel base;
    const auto report = run_reliable_key_agreement(
        base, reconciler, cfg,
        ReliabilityTest::material_for(static_cast<std::uint64_t>(trial)));
    if (report.established) {
      ++successes;
      EXPECT_EQ(report.key.size(), 128u);
    }
    for (const auto& att : report.attempt_log) {
      total_retransmissions += att.alice_transport.retransmissions +
                               att.bob_transport.retransmissions;
    }
  }
  EXPECT_GE(successes, static_cast<int>(kTrials * 0.99))
      << "drop rate " << drop;
  EXPECT_GT(total_retransmissions, 0u) << "drop rate " << drop;
}

TEST_F(ReliabilityTest, SucceedsUnderTenPercentDrop) {
  run_drop_sweep(0.10, reconciler_);
}

TEST_F(ReliabilityTest, SucceedsUnderTwentyFivePercentDrop) {
  run_drop_sweep(0.25, reconciler_);
}

TEST_F(ReliabilityTest, SurvivesDuplicationAndReordering) {
  ReliabilityConfig cfg = config_for(0.1, 77);
  cfg.fault.dup_prob = 0.5;
  cfg.fault.reorder_prob = 0.5;
  cfg.fault.corrupt_prob = 0.05;
  PublicChannel base;
  const auto report =
      run_reliable_key_agreement(base, reconciler_, cfg, material_for(77));
  ASSERT_TRUE(report.established);
  std::size_t dups = 0;
  for (const auto& att : report.attempt_log) {
    dups += att.alice_duplicates_suppressed + att.bob_duplicates_suppressed;
  }
  EXPECT_GT(dups, 0u);  // the sessions saw and absorbed duplicates
}

TEST_F(ReliabilityTest, RecoversWithFreshSessionAfterTamperedAttempt) {
  // A MITM tampers every syndrome of the first session id only: attempt 1
  // must fail with a MAC mismatch and the supervisor must re-negotiate
  // under a fresh session id and succeed.
  PublicChannel base;
  ReliabilityConfig cfg = config_for(0.0, 5);
  const std::uint64_t doomed = cfg.base_session_id;
  base.set_interceptor([doomed](Message& msg) {
    if (msg.type == MessageType::kSyndrome && msg.session_id == doomed &&
        !msg.payload.empty()) {
      msg.payload[0] ^= 0x80;
    }
    return true;
  });
  const auto report =
      run_reliable_key_agreement(base, reconciler_, cfg, material_for(5));
  ASSERT_TRUE(report.established);
  EXPECT_EQ(report.attempts, 2u);
  ASSERT_EQ(report.attempt_log.size(), 2u);
  EXPECT_EQ(report.attempt_log[0].failure, FailureReason::kMacMismatch);
  EXPECT_EQ(report.attempt_log[0].alice_state, SessionState::kFailed);
  EXPECT_EQ(report.attempt_log[1].failure, FailureReason::kNone);
  EXPECT_EQ(report.attempt_log[1].session_id, cfg.base_session_id + 1);
}

TEST_F(ReliabilityTest, ReportsRetryExhaustionOnHopelessLink) {
  ReliabilityConfig cfg = config_for(0.95, 9);
  cfg.max_session_attempts = 2;
  PublicChannel base;
  const auto report =
      run_reliable_key_agreement(base, reconciler_, cfg, material_for(9));
  EXPECT_FALSE(report.established);
  EXPECT_EQ(report.attempts, 2u);
  EXPECT_EQ(report.failure, FailureReason::kRetryExhausted);
  EXPECT_TRUE(report.key.empty());
}

// ------------------------------------------------------- event-order pin
//
// Every counter of every attempt, the flight events each attempt mirrors
// into the trace, the digest of Eve's transcript (each frame re-encoded as
// v1 bytes) and the digest of the failure dump, for seeded agreements under
// drop, duplication, reordering and corruption. The expected values were
// captured before the link, ARQ and sessions stopped copying frames; any
// reordered event or extra RNG draw moves one of them.

std::string counters_of(const AgreementReport& r) {
  const auto tx = [](const TransportStats& t) {
    return std::to_string(t.data_sent) + "," +
           std::to_string(t.retransmissions) + "," +
           std::to_string(t.acks_sent) + "," +
           std::to_string(t.acks_received) + "," +
           std::to_string(t.stale_acks) + "," + std::to_string(t.gave_up);
  };
  const LinkStats& l = r.link;
  std::string out =
      "attempts=" + std::to_string(r.attempts) +
      " ttk=" + json::format_number(r.time_to_establish_ms) + " link=" +
      std::to_string(l.sent) + "," + std::to_string(l.bytes_sent) + "," +
      std::to_string(l.delivered) + "," + std::to_string(l.dropped) + "," +
      std::to_string(l.corrupted) + "," + std::to_string(l.crc_lost) + "," +
      std::to_string(l.duplicated) + "," + std::to_string(l.reordered) + "\n";
  for (const AttemptReport& a : r.attempt_log) {
    out += "sid=" + std::to_string(a.session_id) +
           " est=" + std::to_string(a.established) + " " +
           to_string(a.failure) + " alice=" + to_string(a.alice_state) + "/" +
           to_string(a.alice_reject) + " bob=" + to_string(a.bob_state) +
           "/" + to_string(a.bob_reject) +
           " ms=" + json::format_number(a.duration_ms) +
           " atx=" + tx(a.alice_transport) + " btx=" + tx(a.bob_transport) +
           " dups=" + std::to_string(a.alice_duplicates_suppressed) + "," +
           std::to_string(a.bob_duplicates_suppressed) + "\n";
  }
  return out;
}

/// One attempt's flight events as a traced run mirrored them, each written
/// as FlightRecorder::dump() writes it.
struct TracedAttempt {
  std::vector<std::string> events;
  std::string outcome;  ///< the attempt-end detail
};

/// Run `agree` with the TraceLog on and return the `flight.*` instants it
/// mirrored there, one TracedAttempt per attempt-start.
template <typename Agree>
std::vector<TracedAttempt> traced_flight_events(Agree&& agree) {
  trace::TraceLog& log = trace::TraceLog::global();
  log.clear();
  log.set_enabled(true);
  agree();
  const std::vector<trace::Span> spans = log.spans();
  log.set_enabled(false);
  log.clear();
  std::vector<TracedAttempt> attempts;
  for (const trace::Span& span : spans) {
    if (!span.instant || !span.name.starts_with("flight.")) continue;
    const std::string kind = span.name.substr(std::string("flight.").size());
    if (kind == "attempt-start" || attempts.empty()) attempts.emplace_back();
    std::string actor, detail;
    std::int64_t session = 0, nonce = 0;
    for (const trace::Attr& a : span.attrs) {
      if (a.key == "actor") actor = a.s;
      if (a.key == "detail") detail = a.s;
      if (a.key == "session") session = a.i;
      if (a.key == "nonce") nonce = a.i;
    }
    TracedAttempt& att = attempts.back();
    if (kind == "attempt-end") att.outcome = detail;
    char stamp[64];
    std::snprintf(stamp, sizeof(stamp), "  [%12.3f ms] #%zu ", span.start_ms,
                  att.events.size());
    std::string line = stamp + kind + " " + actor;
    if (!detail.empty()) line += " " + detail;
    if (session != 0) line += " session=" + std::to_string(session);
    line += " nonce=" + std::to_string(nonce);
    att.events.push_back(std::move(line));
  }
  return attempts;
}

/// Events per traced attempt, comma-separated.
std::string event_counts(const std::vector<TracedAttempt>& attempts) {
  std::string out;
  for (const TracedAttempt& att : attempts) {
    out += (out.empty() ? "" : ",") + std::to_string(att.events.size());
  }
  return out;
}

std::string sha256_hex(const std::string& text) {
  const auto d = crypto::Sha256::digest(text);
  return crypto::to_hex(d.data(), d.size());
}

std::string transcript_digest(std::span<const Message> transcript) {
  std::string bytes;
  for (const Message& m : transcript) {
    const auto frame = wire::encode_frame(m);
    bytes.append(frame.begin(), frame.end());
  }
  return std::to_string(bytes.size()) + ":" + sha256_hex(bytes);
}

TEST_F(ReliabilityTest, EveryFrameFitsOneLoRaPacket) {
  // Each frame on air must fit one SX127x packet: every frame of a
  // lossless and a lossy agreement and of a key confirmation over a lossy
  // link, as their transcripts hold them, and a sealed data frame of the
  // most plaintext seal() takes, which fills one exactly.
  std::size_t frames = 0, syndromes = 0;
  const auto check = [&](const Message& m) {
    ++frames;
    syndromes += m.type == MessageType::kSyndrome;
    EXPECT_LE(wire::encode_frame(m).size(), channel::kMaxLoRaPayloadBytes)
        << to_string(m.type);
  };
  for (const double faults : {0.0, 0.2}) {
    ReliabilityConfig cfg = config_for(faults, 41);
    cfg.fault.dup_prob = faults;
    cfg.fault.reorder_prob = faults;
    cfg.fault.corrupt_prob = faults;
    PublicChannel base;
    std::vector<Message> transcript;
    record_transcript(base, transcript);
    const auto report =
        run_reliable_key_agreement(base, reconciler_, cfg, material_for(41));
    EXPECT_TRUE(report.established) << "faults " << faults;
    for (const Message& m : transcript) check(m);
  }
  EXPECT_GE(syndromes, 2u);

  const BitVec secret = random_bits(64, vkey::Rng(42));
  using Role = KeySchedule::Role;
  KeySchedule initiator(secret, 0x77, Role::kInitiator);
  KeySchedule responder(secret, 0x77, Role::kResponder);
  SimClock clock;
  PublicChannel base;
  std::vector<Message> transcript;
  record_transcript(base, transcript);
  FaultConfig lossy;
  lossy.drop_prob = 0.5;
  lossy.seed = 5;
  UnreliableChannel link(clock, base, lossy, fast_radio());
  EXPECT_TRUE(
      run_key_confirmation(clock, link, initiator, responder).confirmed);
  for (const Message& m : transcript) check(m);

  std::vector<std::uint8_t> plain(KeySchedule::kMaxPlaintextBytes, 0x5a);
  const Message sealed = initiator.seal(1, plain);
  check(sealed);
  EXPECT_EQ(wire::encode_frame(sealed).size(), channel::kMaxLoRaPayloadBytes);
  EXPECT_TRUE(responder.open(sealed, clock.now_ms()).has_value());
  plain.push_back(0x5a);
  EXPECT_THROW((void)initiator.seal(2, plain), vkey::Error);
  EXPECT_GE(frames, 12u);
}

TEST_F(ReliabilityTest, FaultyAgreementsReplayEveryEventAndDraw) {
  ReliabilityConfig cfg = config_for(0.25, 31);
  cfg.fault.dup_prob = 0.2;
  cfg.fault.reorder_prob = 0.2;
  cfg.fault.corrupt_prob = 0.2;
  cfg.max_session_attempts = 4;
  PublicChannel base;
  std::vector<Message> transcript;
  record_transcript(base, transcript);
  AgreementReport report;
  const auto events = traced_flight_events([&] {
    report =
        run_reliable_key_agreement(base, reconciler_, cfg, material_for(31));
  });
  EXPECT_EQ(counters_of(report),
            "attempts=1 ttk=2121.645980193749 link=24,1064,15,5,3,3,1,5\n"
            "sid=1 est=1 none alice=established/none "
            "bob=established/none ms=2121.645980193749 "
            "atx=2,6,4,2,1,0 btx=3,3,6,2,0,0 dups=1,4\n");
  EXPECT_EQ(event_counts(events), "103");
  EXPECT_EQ(transcript_digest(transcript),
            "1064:863b8bcb96e8e6c882c972f390219a61fd60261ea40bb32d04a5aa8e33b"
            "32483");

  // A link too lossy to finish: every attempt fails and leaves a dump.
  ReliabilityConfig lossy = config_for(0.8, 32);
  lossy.fault.dup_prob = 0.25;
  lossy.fault.reorder_prob = 0.25;
  lossy.fault.corrupt_prob = 0.25;
  lossy.max_session_attempts = 3;
  PublicChannel air;
  std::vector<Message> eve;
  record_transcript(air, eve);
  AgreementReport failed;
  const auto failed_events = traced_flight_events([&] {
    failed =
        run_reliable_key_agreement(air, reconciler_, lossy, material_for(32));
  });
  ASSERT_FALSE(failed.established);
  EXPECT_EQ(counters_of(failed),
            "attempts=3 ttk=36463.59913454495 link=55,2253,8,45,4,4,2,5\n"
            "sid=1 est=0 retry-exhausted alice=await-accept/bad-state "
            "bob=await-confirm/none ms=12607.15728566181 atx=1,8,0,0,0,1 "
            "btx=2,9,1,0,0,0 dups=0,0\n"
            "sid=2 est=0 retry-exhausted alice=await-accept/none "
            "bob=idle/none ms=13696.002607303932 atx=1,8,0,0,0,1 "
            "btx=0,0,0,0,0,0 dups=0,0\n"
            "sid=3 est=0 retry-exhausted alice=await-syndrome/duplicate "
            "bob=await-confirm/duplicate ms=10160.43924157921 "
            "atx=1,2,3,1,0,0 btx=2,15,2,0,0,1 dups=2,1\n");
  EXPECT_EQ(event_counts(failed_events), "87,39,109");
  EXPECT_EQ(transcript_digest(eve),
            "2253:dfee5edf6ddcd92ce2dca8360d6c22b30ca1fde8c7dab4a75e05f292b1"
            "6d81fe");
  PublicChannel replay;
  const std::string dump =
      failure_dump(replay, reconciler_, lossy, material_for(32));
  EXPECT_EQ(std::to_string(dump.size()) + ":" + sha256_hex(dump),
            "17999:1019686c1152fd7ec5b9e7618d5ee8a9c7d649a822e6877a7e3afe5dbf"
            "1d69c6");
}

TEST_F(ReliabilityTest, LossyAgreementTraceExportIsPinned) {
  // The virtual-clock Chrome trace of the lossy agreement above (each
  // attempt's span, each flight event an instant) pinned across builds; CI
  // compares trace exports only across lane counts of one build.
  trace::TraceLog& log = trace::TraceLog::global();
  MetricsOn on;  // attempt spans honour the metrics switch
  log.clear();
  log.set_capacity(1 << 16);
  log.set_enabled(true);
  ReliabilityConfig lossy = config_for(0.8, 32);
  lossy.fault.dup_prob = 0.25;
  lossy.fault.reorder_prob = 0.25;
  lossy.fault.corrupt_prob = 0.25;
  lossy.max_session_attempts = 3;
  PublicChannel air;
  const auto failed =
      run_reliable_key_agreement(air, reconciler_, lossy, material_for(32));
  const std::string doc = log.chrome_trace(true).dump(0);
  log.set_enabled(false);
  log.clear();
  ASSERT_FALSE(failed.established);
  EXPECT_EQ(std::to_string(doc.size()) + ":" + sha256_hex(doc),
            "46571:09e82d9310b097dfbe30f9b4c2b5b5da6849c4837ec4b1e914b627cf"
            "73c0cad0");
}

TEST_F(ReliabilityTest, FailureDumpRetracesTheTracedRun) {
  // A traced agreement mirrors each flight event as a `flight.*` instant;
  // failure_dump()'s replay must print the same events, field for field,
  // for each failed attempt it shows: kind, actor, virtual time, session,
  // nonce and detail, under the attempt's failure reason.
  ReliabilityConfig lossy = config_for(0.8, 32);
  lossy.fault.dup_prob = 0.25;
  lossy.fault.reorder_prob = 0.25;
  lossy.fault.corrupt_prob = 0.25;
  lossy.max_session_attempts = 3;
  ReliabilityConfig longer = lossy;  // two attempts too many to show
  longer.max_session_attempts = 5;
  ReliabilityConfig hopeless = config_for(0.95, 9);
  hopeless.max_session_attempts = 1;
  for (const ReliabilityConfig& cfg : {lossy, longer, hopeless}) {
    SCOPED_TRACE(std::to_string(cfg.max_session_attempts) + " attempt(s)");
    PublicChannel air;
    AgreementReport report;
    const auto traced = traced_flight_events([&] {
      report =
          run_reliable_key_agreement(air, reconciler_, cfg, material_for(32));
    });
    ASSERT_FALSE(report.established);
    ASSERT_EQ(traced.size(), report.attempts);

    std::vector<std::string> want;
    const std::size_t first = traced.size() > 3 ? traced.size() - 3 : 0;
    if (first > 0) {
      want.push_back(std::to_string(first) + " earlier attempt(s) suppressed");
    }
    for (std::size_t i = first; i < traced.size(); ++i) {
      EXPECT_EQ(traced[i].outcome, to_string(report.attempt_log[i].failure));
      want.push_back("attempt " + std::to_string(i + 1) + " failed (" +
                     traced[i].outcome + ")");
      want.push_back("flight recorder: " +
                     std::to_string(traced[i].events.size()) +
                     " event(s), 0 dropped");
      want.insert(want.end(), traced[i].events.begin(),
                  traced[i].events.end());
    }
    std::vector<std::string> got;
    std::istringstream dump(
        failure_dump(air, reconciler_, cfg, material_for(32)));
    for (std::string line; std::getline(dump, line);) got.push_back(line);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], want[i]) << "line " << i;
    }
  }
}

// ------------------------------------------- structured agreement results

TEST_F(ReliabilityTest, DetailedResultCarriesTerminalStates) {
  const BitVec kb = random_bits(64, vkey::Rng(60));
  const BitVec ka = with_flips(kb, 2, vkey::Rng(61));
  ReliabilityConfig cfg = config_for(0.0, 60);
  cfg.max_session_attempts = 1;
  PublicChannel ch;
  const auto report = run_reliable_key_agreement(
      ch, reconciler_, cfg,
      [&](std::size_t) { return std::make_pair(ka, kb); });
  EXPECT_TRUE(report.established);
  EXPECT_TRUE(static_cast<bool>(report));
  const auto& att = report.attempt_log.front();
  EXPECT_EQ(att.alice_state, SessionState::kEstablished);
  EXPECT_EQ(att.bob_state, SessionState::kEstablished);
  // request, accept, syndrome, confirm, ack: each sent once
  EXPECT_EQ(att.alice_transport.data_sent + att.bob_transport.data_sent, 5u);
}

TEST_F(ReliabilityTest, DetailedResultExplainsFailure) {
  // Uncorrelated keys: reconciliation cannot fix them, the MAC check fires.
  ReliabilityConfig cfg = config_for(0.0, 70);
  cfg.max_session_attempts = 1;
  PublicChannel ch;
  const auto report = run_reliable_key_agreement(
      ch, reconciler_, cfg, [](std::size_t) {
        return std::make_pair(random_bits(64, vkey::Rng(70)),
                              random_bits(64, vkey::Rng(71)));
      });
  EXPECT_FALSE(report.established);
  const auto& att = report.attempt_log.front();
  EXPECT_EQ(att.alice_state, SessionState::kFailed);
  EXPECT_EQ(att.alice_reject, RejectReason::kMacMismatch);
}

TEST_F(ReliabilityTest, FailureReasonStringsAreHumanReadable) {
  EXPECT_EQ(to_string(FailureReason::kRetryExhausted), "retry-exhausted");
  EXPECT_EQ(to_string(FailureReason::kNone), "none");
  EXPECT_EQ(to_string(FailureReason::kTimeout), "timeout");
}

}  // namespace
}  // namespace vkey::protocol
