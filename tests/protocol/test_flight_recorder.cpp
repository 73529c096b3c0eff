// Flight recorder: ring bounds, timestamp sources, the dump format, and
// the reliability supervisor's per-attempt wiring — a failed agreement's
// replay must print a timeline that names the injected fault, byte-identical
// across runs with the same seed, and retrace what the unrecorded run did.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/trace.h"
#include "core/reconciler.h"
#include "protocol/flight_recorder.h"
#include "protocol/reliability.h"
#include "protocol/sim_clock.h"
#include "protocol/unreliable_channel.h"

namespace vkey::protocol {
namespace {

TEST(FlightRecorder, RecordsEventsWithOrdinalsAndClockStamps) {
  SimClock clock;
  FlightRecorder rec(8, [&clock] { return clock.now_ms(); });
  rec.record(FlightEventKind::kFrameTx, "alice", "key-gen-request", 5, 1);
  clock.run_until(42.5);
  rec.record(FlightEventKind::kFrameRx, "bob", "key-gen-request", 5, 1);

  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].t_ms, 0.0);
  EXPECT_EQ(events[0].seq, 0u);
  EXPECT_EQ(events[0].actor, "alice");
  EXPECT_EQ(events[0].session_id, 5u);
  EXPECT_DOUBLE_EQ(events[1].t_ms, 42.5);
  EXPECT_EQ(events[1].seq, 1u);
  EXPECT_EQ(events[1].kind, FlightEventKind::kFrameRx);
}

TEST(FlightRecorder, WithoutAClockTheOrdinalIsTheStamp) {
  FlightRecorder rec(4);
  rec.record(FlightEventKind::kInjected, "harness", "truncation");
  rec.record(FlightEventKind::kInjected, "harness", "bitflip");
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_DOUBLE_EQ(events[0].t_ms, 0.0);
  EXPECT_DOUBLE_EQ(events[1].t_ms, 1.0);
}

TEST(FlightRecorder, RingDropsOldestAndKeepsTotals) {
  FlightRecorder rec(3);
  for (int i = 0; i < 7; ++i) {
    rec.record(FlightEventKind::kFrameTx, "alice", std::to_string(i));
  }
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.dropped(), 4u);
  EXPECT_EQ(rec.total(), 7u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  // Newest three survive, oldest first, with their original ordinals.
  EXPECT_EQ(events[0].detail, "4");
  EXPECT_EQ(events[0].seq, 4u);
  EXPECT_EQ(events[2].detail, "6");
}

TEST(FlightRecorder, ZeroCapacityDisablesRecording) {
  FlightRecorder rec(0);
  rec.record(FlightEventKind::kFrameTx, "alice");
  EXPECT_EQ(rec.size(), 0u);
}

TEST(FlightRecorder, DumpIsDeterministicAndNamesEveryField) {
  auto build = [] {
    SimClock clock;
    FlightRecorder rec(16, [&clock] { return clock.now_ms(); });
    clock.run_until(12.25);
    rec.record(FlightEventKind::kDrop, "link", "key-gen-accept", 9, 3);
    rec.record(FlightEventKind::kRetransmit, "bob", "timeout attempt=1", 9, 3);
    return rec.dump();
  };
  const std::string dump = build();
  EXPECT_EQ(dump, build());
  EXPECT_NE(dump.find("2 event(s)"), std::string::npos);
  EXPECT_NE(dump.find("drop"), std::string::npos);
  EXPECT_NE(dump.find("link"), std::string::npos);
  EXPECT_NE(dump.find("key-gen-accept"), std::string::npos);
  EXPECT_NE(dump.find("session=9"), std::string::npos);
  EXPECT_NE(dump.find("nonce=3"), std::string::npos);
  EXPECT_NE(dump.find("12.250 ms"), std::string::npos);
}

TEST(FlightRecorder, ChannelWiringRecordsInjectedFaults) {
  SimClock clock;
  PublicChannel base;
  FaultConfig faults;
  faults.drop_prob = 0.5;
  faults.seed = 11;
  channel::LoRaParams radio;
  radio.spreading_factor = 7;  // keep virtual airtimes small
  UnreliableChannel link(clock, base, faults, radio);
  FlightRecorder rec(256, [&clock] { return clock.now_ms(); });
  link.set_recorder(&rec);
  link.set_handler(UnreliableChannel::Endpoint::kBob, [](const Message&) {});
  link.set_handler(UnreliableChannel::Endpoint::kAlice, [](const Message&) {});

  Message m;
  m.type = MessageType::kKeyGenRequest;
  for (std::uint64_t n = 0; n < 40; ++n) {
    m.nonce = n;
    link.send(UnreliableChannel::Endpoint::kAlice, m);
  }
  clock.run_until_idle();

  std::size_t tx = 0, rx = 0, drops = 0;
  for (const auto& ev : rec.events()) {
    if (ev.kind == FlightEventKind::kFrameTx) ++tx;
    if (ev.kind == FlightEventKind::kFrameRx) ++rx;
    if (ev.kind == FlightEventKind::kDrop) ++drops;
  }
  EXPECT_EQ(tx, 40u);
  EXPECT_GT(drops, 0u);     // 50% drop over 40 frames
  EXPECT_EQ(tx, rx + drops);  // every frame either arrived or was dropped
}

// ------------------------------------------- supervisor wiring (end to end)

class FlightReliabilityTest : public ::testing::Test {
 public:
  static inline const core::SyndromeCode reconciler_{64, 11};
};

/// Events of kind `what` in a failure dump: the lines whose kind, after the
/// event's stamp and ordinal, starts with `what`.
std::size_t count_events(const std::string& dump, const std::string& what) {
  std::size_t n = 0;
  for (std::size_t at = dump.find("] #"); at != std::string::npos;
       at = dump.find("] #", at + 1)) {
    const std::size_t kind = dump.find(' ', at + 3) + 1;
    n += dump.compare(kind, what.size(), what) == 0;
  }
  return n;
}

TEST_F(FlightReliabilityTest, EstablishedAgreementHasNoPostMortem) {
  ReliabilityConfig cfg;
  cfg.fault.drop_prob = 0.3;
  cfg.fault.seed = 21;
  cfg.arq.seed = 22;
  const BitVec kb = random_bits(64, vkey::Rng(33));
  const auto material = [&](std::size_t) {
    return std::make_pair(kb, kb);  // identical keys: reconciles cleanly
  };
  // Traced, the attempt's timeline opens and closes with the supervisor's
  // markers, the last one naming the outcome.
  trace::TraceLog& log = trace::TraceLog::global();
  log.clear();
  log.set_enabled(true);
  PublicChannel base;
  const auto report = run_reliable_key_agreement(base, reconciler_, cfg,
                                                 material);
  std::vector<trace::Span> events;
  for (const trace::Span& span : log.spans()) {
    if (span.instant && span.name.starts_with("flight.")) {
      events.push_back(span);
    }
  }
  log.set_enabled(false);
  log.clear();
  ASSERT_TRUE(report.established);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().name, "flight.attempt-start");
  EXPECT_EQ(events.back().name, "flight.attempt-end");
  const auto detail = std::find_if(
      events.back().attrs.begin(), events.back().attrs.end(),
      [](const trace::Attr& a) { return a.key == "detail"; });
  ASSERT_NE(detail, events.back().attrs.end());
  EXPECT_EQ(detail->s, "established");
  // An established agreement has no post-mortem.
  EXPECT_TRUE(failure_dump(base, reconciler_, cfg, material).empty());
}

TEST_F(FlightReliabilityTest, FailureDumpNamesTheInjectedFault) {
  // Certain-drop on a single attempt: the ARQ burns its budget and the
  // supervisor reports kRetryExhausted; the timeline must show the drops.
  ReliabilityConfig cfg;
  cfg.fault.drop_prob = 0.95;
  cfg.fault.seed = 4;
  cfg.arq.seed = 5;
  cfg.max_session_attempts = 1;
  PublicChannel base;
  const BitVec kb = random_bits(64, vkey::Rng(44));
  const auto material = [&](std::size_t) { return std::make_pair(kb, kb); };
  const auto report =
      run_reliable_key_agreement(base, reconciler_, cfg, material);
  ASSERT_FALSE(report.established);

  const std::string dump = failure_dump(base, reconciler_, cfg, material);
  ASSERT_FALSE(dump.empty());
  EXPECT_NE(dump.find(to_string(report.failure)), std::string::npos);
  EXPECT_NE(dump.find("drop"), std::string::npos);  // the injected fault
  EXPECT_NE(dump.find("attempt-start"), std::string::npos);
}

TEST_F(FlightReliabilityTest, SameSeedYieldsByteIdenticalDumps) {
  auto run = [&] {
    ReliabilityConfig cfg;
    cfg.fault.drop_prob = 0.95;
    cfg.fault.seed = 4;
    cfg.arq.seed = 5;
    cfg.max_session_attempts = 1;
    PublicChannel base;
    const BitVec kb = random_bits(64, vkey::Rng(44));
    return failure_dump(base, reconciler_, cfg, [&](std::size_t) {
      return std::make_pair(kb, kb);
    });
  };
  const std::string first = run();
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, run());
}

TEST_F(FlightReliabilityTest, ReplayRetracesAnUntracedRun) {
  // The run records nothing; its replay shows every retransmission its
  // transports counted and the give-up that ended it.
  ReliabilityConfig cfg;
  cfg.fault.drop_prob = 0.95;
  cfg.fault.seed = 4;
  cfg.arq.seed = 5;
  cfg.max_session_attempts = 1;
  PublicChannel base;
  const BitVec kb = random_bits(64, vkey::Rng(44));
  const auto material = [&](std::size_t) { return std::make_pair(kb, kb); };
  const auto report =
      run_reliable_key_agreement(base, reconciler_, cfg, material);
  ASSERT_FALSE(report.established);
  const AttemptReport& att = report.attempt_log.back();
  ASSERT_GT(att.alice_transport.retransmissions, 0u);

  const std::string dump = failure_dump(base, reconciler_, cfg, material);
  EXPECT_EQ(count_events(dump, "retransmit"),
            att.alice_transport.retransmissions +
                att.bob_transport.retransmissions);
  EXPECT_EQ(count_events(dump, "gave-up"),
            att.alice_transport.gave_up + att.bob_transport.gave_up);
  EXPECT_EQ(count_events(dump, "frame-tx"), report.link.sent);
}

}  // namespace
}  // namespace vkey::protocol
