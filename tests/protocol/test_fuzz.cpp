// Robustness fuzzing of the wire-facing surfaces: whatever bytes arrive
// from the public channel, the frame codec and the session state machines
// must never crash, hang or corrupt state — they reject and move on.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "core/reconciler.h"
#include "protocol/channel.h"
#include "protocol/flight_recorder.h"
#include "protocol/message.h"
#include "protocol/session.h"
#include "protocol/sim_clock.h"
#include "protocol/unreliable_channel.h"
#include "protocol/wire.h"

namespace vkey::protocol {
namespace {

// --------------------------------------------------------- frame codec fuzz
//
// 100k seeded mutations of valid wire frames (bit flips, truncations,
// mac_len rewrites, version skew, malformed varints, growth past the
// payload bound, forged types, pure garbage). Invariants, checked under the
// sanitizer presets in CI: the decoder never crashes or reads out of
// bounds, every rejection carries a typed WireError, everything it accepts
// re-encodes byte-for-byte, and the mix reaches every reject reason.

/// Replace the trailing CRC with crc32 of everything before it.
void restamp_crc(wire::FrameBytes& bytes) {
  bytes.resize(bytes.size() - wire::kCrcBytes);
  const std::uint32_t crc = wire::crc32(bytes);
  for (const int shift : {24, 16, 8, 0}) {
    bytes.push_back(static_cast<std::uint8_t>(crc >> shift));
  }
}

/// Replace bytes [at, at + n) of `bytes` with `with`.
void splice(wire::FrameBytes& bytes, std::size_t at, std::size_t n,
            std::span<const std::uint8_t> with) {
  std::vector<std::uint8_t> out(bytes.begin(), bytes.begin() + at);
  out.insert(out.end(), with.begin(), with.end());
  out.insert(out.end(), bytes.begin() + at + n, bytes.end());
  bytes.assign(out);
}

TEST(Fuzz, HundredThousandMutatedFramesRejectTypedOrRoundTrip) {
  // Corpus: one valid frame per message type, with varying payload shapes
  // and session ids and nonces of every varint width from 1 to 10 bytes.
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  constexpr std::uint64_t kIds[kMaxMessageType] = {
      0, 127, 128, 16384, 1ULL << 40, 1ULL << 63, kMax};
  std::vector<Message> messages;
  std::vector<wire::FrameBytes> corpus;
  for (std::uint8_t t = 1; t <= kMaxMessageType; ++t) {
    Message m;
    m.type = static_cast<MessageType>(t);
    m.session_id = kIds[t - 1];
    m.nonce = kIds[kMaxMessageType - t] + t;
    m.payload.assign(static_cast<std::size_t>(t) * 7u, t);
    if (t % 2 == 0) m.mac.assign(32, static_cast<std::uint8_t>(0xc0 + t));
    messages.push_back(m);
    corpus.push_back(wire::encode_frame(m));
  }

  // The four malformed varint forms, each of which must be seen rejected.
  enum VarintDamage { kOverlong, kElevenBytes, kTenthAboveOne, kCutMidVarint };
  std::size_t bad_varints[4] = {};

  constexpr int kCases = 100'000;
  vkey::Rng rng(0xf4a3e5);
  int accepted = 0;
  std::size_t reject_reasons[16] = {};
  for (int trial = 0; trial < kCases; ++trial) {
    const std::size_t pick = rng.uniform_int(corpus.size());
    auto bytes = corpus[pick];
    int damage = -1;
    switch (rng.uniform_int(8)) {
      case 0:  // 1..8 bit flips anywhere in the frame
        for (std::uint64_t f = 0, n = 1 + rng.uniform_int(8); f < n; ++f) {
          bytes[rng.uniform_int(bytes.size())] ^=
              static_cast<std::uint8_t>(1u << rng.uniform_int(8));
        }
        break;
      case 1:  // truncate (or keep whole, exercising the accept path)
        bytes.resize(rng.uniform_int(bytes.size() + 1));
        break;
      case 2:  // rewrite mac_len
        bytes[1] = static_cast<std::uint8_t>(rng.uniform_int(256));
        break;
      case 3:  // version skew (the type nibble rides along)
        bytes[0] = static_cast<std::uint8_t>(rng.uniform_int(256));
        break;
      case 4: {  // malformed session id or nonce
        const Message& m = messages[pick];
        const std::size_t session_len = wire::varint_size(m.session_id);
        const bool nonce = rng.bernoulli(0.5);
        const std::size_t at = 2 + (nonce ? session_len : 0);
        const std::size_t len =
            wire::varint_size(nonce ? m.nonce : m.session_id);
        damage = static_cast<int>(rng.uniform_int(4));
        std::vector<std::uint8_t> form;
        switch (damage) {
          case kOverlong:  // a zero group past the last: 0x80 0x00 for 0
            bytes[at + len - 1] |= 0x80;
            form.push_back(0x00);
            splice(bytes, at + len, 0, form);
            break;
          case kElevenBytes:
            form.assign(10, 0x80);
            form.push_back(0x01);
            splice(bytes, at, len, form);
            break;
          case kTenthAboveOne:
            form.assign(9, 0xFF);
            form.push_back(static_cast<std::uint8_t>(2 + rng.uniform_int(126)));
            splice(bytes, at, len, form);
            break;
          default: {  // the body ends inside the varint; a fresh CRC follows
            const std::size_t keep = at + rng.uniform_int(len);
            bytes.resize(std::max(keep, std::size_t{4}) + wire::kCrcBytes);
            if (keep >= 4) restamp_crc(bytes);
            break;
          }
        }
        break;
      }
      case 5:  // grow: a few bytes, or past the payload bound
        bytes.resize(bytes.size() + (rng.bernoulli(0.5)
                                         ? rng.uniform_int(16)
                                         : kMaxPayloadBytes +
                                               rng.uniform_int(64)));
        break;
      case 6:  // forge the type with a valid CRC (0 and 8..15 are unknown)
        bytes[0] = static_cast<std::uint8_t>((wire::kWireVersion << 4) |
                                             rng.uniform_int(16));
        restamp_crc(bytes);
        break;
      default:  // pure garbage of arbitrary small size
        bytes.resize(rng.uniform_int(96));
        for (auto& b : bytes) {
          b = static_cast<std::uint8_t>(rng.uniform_int(256));
        }
        break;
    }

    wire::WireError err = wire::WireError::kNone;
    const auto frame = wire::decode_frame(bytes, &err);
    if (frame.has_value()) {
      ++accepted;
      ASSERT_EQ(err, wire::WireError::kNone) << "trial " << trial;
      ASSERT_EQ(wire::encode_frame(*frame), bytes) << "trial " << trial;
    } else {
      // Every rejection must be typed — kNone on a failed decode would mean
      // an untracked reject path.
      ASSERT_NE(err, wire::WireError::kNone) << "trial " << trial;
      ++reject_reasons[static_cast<std::size_t>(err)];
      if (damage >= 0 && err == wire::WireError::kBadVarint) {
        ++bad_varints[damage];
      }
    }
  }

  // The mutation mix must have exercised both outcomes, every reject
  // reason, and each malformed varint form.
  EXPECT_GT(accepted, 0);
  for (const wire::WireError e :
       {wire::WireError::kTruncated, wire::WireError::kBadVersion,
        wire::WireError::kOversizedMac, wire::WireError::kBadVarint,
        wire::WireError::kOversizedPayload, wire::WireError::kBadCrc,
        wire::WireError::kBadType}) {
    EXPECT_GT(reject_reasons[static_cast<std::size_t>(e)], 0u)
        << wire::to_string(e);
  }
  for (const int d : {kOverlong, kElevenBytes, kTenthAboveOne, kCutMidVarint}) {
    EXPECT_GT(bad_varints[d], 0u) << "varint damage " << d;
  }
}

// ---------------------------------------------------- link slot lifetime fuzz
//
// The link owns every in-flight frame in a reused slot until its
// deliveries have run. Seeded random traffic under every fault, with
// handler swaps while frames are queued (as run_key_confirmation does),
// clock teardowns while deliveries are pending (as the supervisor does
// between attempts), and handlers that send — or tear down and send — from
// inside a delivery. Invariants, checked under ASan in CI: a delivered
// frame is byte-for-byte a frame sent since the last teardown, it reaches
// the handler installed when it arrives, it stays intact for the whole
// handler call, and nothing sent before a teardown arrives after it.

/// Frame `nonce` of teardown epoch `epoch`: its payload (whose length
/// varies with the nonce) and MAC are functions of both, so a recycled
/// slot or a stale frame cannot pass for it.
Message link_frame(std::uint64_t epoch, std::uint64_t nonce) {
  Message m;
  m.type = static_cast<MessageType>(1 + nonce % kMaxMessageType);
  m.session_id = epoch;
  m.nonce = nonce;
  m.payload.resize(nonce % 300);
  for (std::size_t i = 0; i < m.payload.size(); ++i) {
    m.payload[i] = static_cast<std::uint8_t>(nonce * 31 + epoch * 7 + i);
  }
  if (nonce % 3 == 0) m.mac.assign(32, static_cast<std::uint8_t>(nonce));
  return m;
}

TEST(Fuzz, LinkFramesSurviveHandlerSwapAndTeardown) {
  using Endpoint = UnreliableChannel::Endpoint;
  std::size_t delivered = 0, teardowns_with_queued = 0, swaps = 0;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    vkey::Rng rng(hash_combine64(seed, 0x5107));
    SimClock clock;
    PublicChannel base;
    FaultConfig faults;
    faults.drop_prob = 0.2;
    faults.dup_prob = 0.3;
    faults.corrupt_prob = 0.2;
    faults.reorder_prob = 0.3;
    faults.seed = seed;
    channel::LoRaParams radio;
    radio.spreading_factor = 7;
    UnreliableChannel link(clock, base, faults, radio);

    std::uint64_t epoch = 0;
    std::uint64_t next_nonce = 1;
    std::uint64_t installed[2] = {0, 0};  // generation per endpoint
    const auto teardown = [&] {
      if (clock.pending() > 0) ++teardowns_with_queued;
      clock.clear();
      ++epoch;
    };
    const auto send_from = [&](Endpoint from) {
      link.send(from, link_frame(epoch, next_nonce++));
    };
    const auto install = [&](Endpoint at) {
      const int e = static_cast<int>(at);
      const std::uint64_t generation = ++installed[e];
      link.set_handler(at, [&, at, e, generation](const Message& m) {
        EXPECT_EQ(generation, installed[e]) << "an old handler got a frame";
        EXPECT_EQ(m.session_id, epoch) << "a frame outlived its teardown";
        const Message expected = link_frame(m.session_id, m.nonce);
        EXPECT_EQ(m, expected);
        ++delivered;
        const Endpoint back =
            at == Endpoint::kAlice ? Endpoint::kBob : Endpoint::kAlice;
        const double roll = rng.uniform(0.0, 1.0);
        if (roll < 0.05) {
          teardown();  // from inside a delivery: the slot stays readable
          send_from(back);
        } else if (roll < 0.4) {
          send_from(back);  // may append slots while this one is read
        }
        EXPECT_EQ(m, expected) << "the frame changed under its handler";
      });
    };
    install(Endpoint::kAlice);
    install(Endpoint::kBob);

    for (int op = 0; op < 300; ++op) {
      const double roll = rng.uniform(0.0, 1.0);
      if (roll < 0.45) {
        send_from(rng.bernoulli(0.5) ? Endpoint::kAlice : Endpoint::kBob);
      } else if (roll < 0.75) {
        for (std::uint64_t k = rng.uniform_int(4); k > 0; --k) {
          clock.run_next();
        }
      } else if (roll < 0.87) {
        install(rng.bernoulli(0.5) ? Endpoint::kAlice : Endpoint::kBob);
        ++swaps;
      } else if (roll < 0.93) {
        teardown();
      } else {
        clock.run_until(clock.now_ms() + rng.uniform(0.0, 500.0));
      }
    }
    clock.run_until_idle();
    EXPECT_EQ(clock.pending(), 0u);
  }
  EXPECT_GT(delivered, 1000u);
  EXPECT_GT(teardowns_with_queued, 100u);
  EXPECT_GT(swaps, 100u);
}

// ------------------------------------------------- session interleaving fuzz
//
// Drive the two state machines with seeded random interleavings of valid,
// duplicated, reordered and bit-flipped protocol messages. Invariants:
// no crash, state-machine monotonicity (states only move forward and
// terminal states are sticky), and if both parties reach kEstablished they
// hold the identical key.

// Corrupt one parsed message the way a damaged frame that still parsed
// would look to a session: flip one uniformly chosen bit across type,
// session_id, nonce, payload and mac. The framed codec cannot stand in
// here, because its CRC would drop every flip and no corrupted message
// would ever reach the sessions. A flip that moves the type outside
// [1, kMaxMessageType] leaves nothing to parse, so the message is lost.
std::optional<Message> flip_one_field_bit(Message msg, vkey::Rng& rng) {
  std::uint64_t bit = rng.uniform_int(
      8 + 64 + 64 + 8 * (msg.payload.size() + msg.mac.size()));
  if (bit < 8) {
    const auto type = static_cast<std::uint8_t>(
        static_cast<std::uint8_t>(msg.type) ^ (1u << bit));
    if (type < 1 || type > kMaxMessageType) return std::nullopt;
    msg.type = static_cast<MessageType>(type);
    return msg;
  }
  bit -= 8;
  if (bit < 64) {
    msg.session_id ^= 1ULL << bit;
    return msg;
  }
  bit -= 64;
  if (bit < 64) {
    msg.nonce ^= 1ULL << bit;
    return msg;
  }
  bit -= 64;
  if (bit < 8 * msg.payload.size()) {
    msg.payload[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  } else {
    bit -= 8 * msg.payload.size();
    msg.mac[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  return msg;
}

/// Deliver `msg` by message type, as a single broadcast medium would
/// (requests and confirms to Bob, the rest to Alice), and put the reply,
/// then any frame the party publishes unprompted (Bob's syndrome), back in
/// flight.
void deliver(const Message& msg, AliceSession& alice, BobSession& bob,
             std::deque<Message>& wire) {
  const bool to_bob = msg.type == MessageType::kKeyGenRequest ||
                      msg.type == MessageType::kKeyConfirm;
  SessionEndpoint& to = to_bob ? static_cast<SessionEndpoint&>(bob) : alice;
  if (auto reply = to.handle(msg)) wire.push_back(*reply);
  if (auto unprompted = to.take_unprompted()) wire.push_back(*unprompted);
}

class SessionFuzz : public ::testing::Test {
 protected:
  static int rank(SessionState s) { return static_cast<int>(s); }
  static bool terminal(SessionState s) {
    return s == SessionState::kEstablished || s == SessionState::kFailed;
  }

  static inline const core::SyndromeCode reconciler_{64, 11};
};

TEST_F(SessionFuzz, RandomInterleavingsNeverCrashOrDisagree) {
  constexpr int kTrials = 2000;
  int established_both = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    vkey::Rng rng(
        hash_combine64(0xf0e555ULL, static_cast<std::uint64_t>(trial)));
    const BitVec kb = random_bits(64, rng);
    const BitVec ka = with_flips(kb, rng.uniform_int(9), rng);  // 0..8 flips

    SessionConfig cfg;
    AliceSession alice(cfg, reconciler_, ka);
    BobSession bob(cfg, reconciler_, kb);

    std::deque<Message> wire;
    wire.push_back(alice.start());
    SessionState alice_prev = alice.state();
    SessionState bob_prev = bob.state();

    int steps = 0;
    while (!wire.empty() && steps++ < 64) {
      // Reordering: pull a random in-flight message, not the oldest.
      const std::size_t pick = rng.uniform_int(wire.size());
      Message msg = wire[pick];
      wire.erase(wire.begin() + static_cast<std::ptrdiff_t>(pick));

      // Duplication: occasionally leave a copy in flight.
      if (rng.bernoulli(0.2)) wire.push_back(msg);

      // Corruption: flip a random bit of one field; a message whose type
      // no longer parses is lost on the wire.
      if (rng.bernoulli(0.15)) {
        auto corrupted = flip_one_field_bit(std::move(msg), rng);
        if (!corrupted.has_value()) continue;
        msg = std::move(*corrupted);
      }

      deliver(msg, alice, bob, wire);

      // Monotonicity: states only move forward; terminal states are sticky.
      ASSERT_GE(rank(alice.state()), rank(alice_prev)) << "trial " << trial;
      ASSERT_GE(rank(bob.state()), rank(bob_prev)) << "trial " << trial;
      if (terminal(alice_prev)) {
        ASSERT_EQ(alice.state(), alice_prev) << "trial " << trial;
      }
      if (terminal(bob_prev)) {
        ASSERT_EQ(bob.state(), bob_prev) << "trial " << trial;
      }
      alice_prev = alice.state();
      bob_prev = bob.state();
    }

    if (alice.state() == SessionState::kEstablished &&
        bob.state() == SessionState::kEstablished) {
      ++established_both;
      ASSERT_EQ(alice.final_key(), bob.final_key()) << "trial " << trial;
    }
  }
  // Sanity: the fuzz must exercise the full handshake a meaningful number
  // of times, not just break it on the first message. Most trials lose a
  // frame to corruption (there is no ARQ at this layer), so full completion
  // is the minority outcome — but it must not be vanishingly rare.
  EXPECT_GT(established_both, kTrials / 40);
}

TEST_F(SessionFuzz, WireRejectedFramesLeaveNoPayloadResidueInSessionState) {
  // Secret-hygiene invariant (DESIGN.md "Secret hygiene & taint rules"): a
  // frame the codec rejects with a typed WireError materializes no Message,
  // so its payload bytes have nowhere to be copied — not into the state
  // machines, not into the flight-recorder timeline. This test bombards a
  // live session pair with rejected mutations between every genuine
  // delivery and asserts (a) every rejection is typed and yields no
  // Message, (b) all observable session state is untouched by the barrage,
  // and (c) the handshake still completes with matching keys, proving no
  // residue bent the outcome.
  vkey::Rng rng(0xd15ca4d);
  const BitVec kb = random_bits(64, rng);
  SessionConfig cfg;
  AliceSession alice(cfg, reconciler_, kb);
  BobSession bob(cfg, reconciler_, kb);
  FlightRecorder alice_rec(256), bob_rec(256);
  alice.set_recorder(&alice_rec);
  bob.set_recorder(&bob_rec);

  std::deque<Message> wire_q;
  wire_q.push_back(alice.start());
  int steps = 0;
  std::size_t rejected_mutations = 0;
  while (!wire_q.empty() && steps++ < 64) {
    Message msg = wire_q.front();
    wire_q.pop_front();

    const auto encoded = wire::encode_frame(msg);
    const auto a_state = alice.state();
    const auto b_state = bob.state();
    const auto a_rejects = alice.rejected_count();
    const auto b_rejects = bob.rejected_count();
    const auto a_events = alice_rec.size();
    const auto b_events = bob_rec.size();

    for (int k = 0; k < 32; ++k) {
      auto bad = encoded;
      switch (k % 4) {
        case 0:  // single bit flip anywhere (CRC covers the whole frame)
          bad[rng.uniform_int(bad.size())] ^=
              static_cast<std::uint8_t>(1u << rng.uniform_int(8));
          break;
        case 1:  // truncation
          bad.resize(rng.uniform_int(bad.size()));
          break;
        case 2:  // version and type damage
          bad[0] ^= 0xff;
          break;
        default:  // session-id varint damage
          bad[2] ^= 0x55;
          break;
      }
      wire::WireError err = wire::WireError::kNone;
      const auto decoded = wire::decode_frame(bad, &err);
      if (decoded.has_value()) continue;  // mutation happened to stay valid
      ++rejected_mutations;
      // Typed rejection and no materialized Message: the mutated payload
      // bytes cannot have been copied into anything downstream.
      ASSERT_NE(err, wire::WireError::kNone) << "step " << steps;
    }

    // The barrage of rejected frames was a perfect no-op on both parties.
    ASSERT_EQ(alice.state(), a_state);
    ASSERT_EQ(bob.state(), b_state);
    ASSERT_EQ(alice.rejected_count(), a_rejects);
    ASSERT_EQ(bob.rejected_count(), b_rejects);
    ASSERT_EQ(alice_rec.size(), a_events);
    ASSERT_EQ(bob_rec.size(), b_events);

    // Now deliver the genuine frame and keep the handshake moving.
    deliver(msg, alice, bob, wire_q);
  }

  EXPECT_GT(rejected_mutations, 100u);
  ASSERT_EQ(alice.state(), SessionState::kEstablished);
  ASSERT_EQ(bob.state(), SessionState::kEstablished);
  EXPECT_EQ(alice.final_key(), bob.final_key());
}

TEST_F(SessionFuzz, FailedFuzzedSessionDumpsTimelineNamingTheInjectedFault) {
  // Same interleaving harness, but with a flight recorder wired into both
  // sessions and fed a kInjected event for every harness-made fault. When a
  // fuzz trial kills a session, the recorder's dump must be a usable
  // post-mortem: it names the injected fault and the session's reaction
  // (reject + state change) in order, with no wall-clock in sight.
  bool saw_failed_session_with_fault = false;
  for (int trial = 0; trial < 400 && !saw_failed_session_with_fault;
       ++trial) {
    vkey::Rng rng(
        hash_combine64(0xf7169ULL, static_cast<std::uint64_t>(trial)));
    const BitVec kb = random_bits(64, rng);
    const BitVec ka = with_flips(kb, 3, rng);

    SessionConfig cfg;
    AliceSession alice(cfg, reconciler_, ka);
    BobSession bob(cfg, reconciler_, kb);
    FlightRecorder rec(256);  // no clock: ordinals order the timeline
    alice.set_recorder(&rec);
    bob.set_recorder(&rec);

    std::deque<Message> wire;
    wire.push_back(alice.start());
    bool injected = false;

    int steps = 0;
    while (!wire.empty() && steps++ < 64) {
      const std::size_t pick = rng.uniform_int(wire.size());
      Message msg = wire[pick];
      wire.erase(wire.begin() + static_cast<std::ptrdiff_t>(pick));

      if (rng.bernoulli(0.25)) {
        rec.record(FlightEventKind::kInjected, "harness",
                   "bitflip on " + to_string(msg.type), msg.session_id,
                   msg.nonce);
        injected = true;
        auto corrupted = flip_one_field_bit(std::move(msg), rng);
        if (!corrupted.has_value()) continue;  // type no longer parses
        msg = std::move(*corrupted);
      }

      deliver(msg, alice, bob, wire);
    }

    const bool failed = alice.state() == SessionState::kFailed ||
                        bob.state() == SessionState::kFailed;
    if (!failed || !injected) continue;
    saw_failed_session_with_fault = true;

    const std::string dump = rec.dump();
    EXPECT_NE(dump.find("injected"), std::string::npos) << dump;
    EXPECT_NE(dump.find("bitflip on "), std::string::npos) << dump;
    EXPECT_NE(dump.find("->failed"), std::string::npos) << dump;
    // The injected fault precedes the failure transition in the timeline.
    EXPECT_LT(dump.find("injected"), dump.find("->failed")) << dump;
  }
  EXPECT_TRUE(saw_failed_session_with_fault)
      << "fuzz never produced a failed session with an injected fault";
}

}  // namespace
}  // namespace vkey::protocol
