#include "protocol/session.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "core/reconciler.h"
#include "protocol/reliability.h"

namespace vkey::protocol {
namespace {

class SessionTest : public ::testing::Test {
 protected:
  /// One agreement attempt over a fault-free link, under the supervisor
  /// every workload runs.
  static AgreementReport agree(const BitVec& ka, const BitVec& kb) {
    PublicChannel ch;
    ReliabilityConfig cfg;
    cfg.max_session_attempts = 1;
    return run_reliable_key_agreement(
        ch, reconciler_, cfg,
        [&](std::size_t) { return std::make_pair(ka, kb); });
  }

  static inline const core::SyndromeCode reconciler_{64, 11};
};

TEST_F(SessionTest, HappyPathEstablishesSameKey) {
  const BitVec kb = random_bits(64, vkey::Rng(1));
  const BitVec ka = with_flips(kb, 3, vkey::Rng(2));
  const auto report = agree(ka, kb);
  ASSERT_TRUE(report.established);
  const AttemptReport& att = report.attempt_log.front();
  EXPECT_EQ(att.alice_state, SessionState::kEstablished);
  EXPECT_EQ(att.bob_state, SessionState::kEstablished);
  // The established key is Bob's raw key, amplified under the session id.
  EXPECT_EQ(report.key,
            core::PrivacyAmplifier(kFinalKeyBits).amplify(kb, att.session_id));
  EXPECT_EQ(report.key.size(), 128u);
}

TEST_F(SessionTest, IdenticalKeysAlsoWork) {
  const BitVec k = random_bits(64, vkey::Rng(3));
  EXPECT_TRUE(agree(k, k));
}

TEST_F(SessionTest, HopelessMismatchFailsCleanly) {
  // Totally uncorrelated keys: reconciliation cannot fix them; the MAC
  // check must catch it and fail the session rather than "succeed" with
  // different keys.
  const BitVec kb = random_bits(64, vkey::Rng(4));
  const BitVec ka = random_bits(64, vkey::Rng(5));
  const auto report = agree(ka, kb);
  EXPECT_FALSE(report);
  EXPECT_NE(report.attempt_log.front().alice_state,
            SessionState::kEstablished);
  EXPECT_TRUE(report.key.empty());
}

TEST_F(SessionTest, SessionIdMismatchRejected) {
  const BitVec k = random_bits(64, vkey::Rng(6));
  SessionConfig cfg;
  BobSession bob(cfg, reconciler_, k);
  Message req;
  req.type = MessageType::kKeyGenRequest;
  req.session_id = 999;  // wrong session
  req.nonce = 1;
  EXPECT_FALSE(bob.handle(req).has_value());
  EXPECT_EQ(bob.last_reject(), RejectReason::kBadSession);
}

TEST_F(SessionTest, DuplicateRetransmissionDistinctFromReplay) {
  const BitVec k = random_bits(64, vkey::Rng(7));
  SessionConfig cfg;
  BobSession bob(cfg, reconciler_, k);
  Message req;
  req.type = MessageType::kKeyGenRequest;
  req.session_id = cfg.session_id;
  req.nonce = 5;
  const auto first = bob.handle(req);
  ASSERT_TRUE(first.has_value());

  // A bit-identical retransmission is benign ARQ behaviour: it re-elicits
  // the original response and is surfaced as kDuplicate, not an attack.
  const auto again = bob.handle(req);
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(*again, *first);
  EXPECT_EQ(bob.last_reject(), RejectReason::kDuplicate);
  EXPECT_EQ(bob.duplicates_suppressed(), 1u);

  // Same nonce with different content is a forged replay: rejected.
  Message forged = req;
  forged.payload = {0xde, 0xad};
  EXPECT_FALSE(bob.handle(forged).has_value());
  EXPECT_EQ(bob.last_reject(), RejectReason::kReplayedNonce);
  EXPECT_GE(bob.rejected_count(), 1u);

  // An old, never-accepted nonce is also a replay.
  Message stale = req;
  stale.nonce = 4;
  EXPECT_FALSE(bob.handle(stale).has_value());
  EXPECT_EQ(bob.last_reject(), RejectReason::kReplayedNonce);
}

TEST_F(SessionTest, SyndromeRequiresAcceptedSession) {
  const BitVec k = random_bits(64, vkey::Rng(8));
  SessionConfig cfg;
  BobSession bob(cfg, reconciler_, k);
  EXPECT_FALSE(bob.take_unprompted().has_value());

  Message req;
  req.type = MessageType::kKeyGenRequest;
  req.session_id = cfg.session_id;
  req.nonce = 5;
  const auto accept = bob.handle(req);
  ASSERT_TRUE(accept.has_value());
  // Accepting queues exactly one syndrome, numbered right after the accept.
  const auto syndrome = bob.take_unprompted();
  ASSERT_TRUE(syndrome.has_value());
  EXPECT_EQ(syndrome->type, MessageType::kSyndrome);
  EXPECT_EQ(syndrome->nonce, accept->nonce + 1);
  EXPECT_FALSE(syndrome->mac.empty());
  EXPECT_FALSE(bob.take_unprompted().has_value());

  // A retransmitted request re-elicits the accept, not a second syndrome.
  EXPECT_TRUE(bob.handle(req).has_value());
  EXPECT_EQ(bob.last_reject(), RejectReason::kDuplicate);
  EXPECT_FALSE(bob.take_unprompted().has_value());
}

TEST_F(SessionTest, MalformedSyndromeIsRejectedAndTheIntactOneEstablishes) {
  const BitVec kb = random_bits(64, vkey::Rng(10));
  const BitVec ka = with_flips(kb, 2, vkey::Rng(11));
  SessionConfig cfg;
  AliceSession alice(cfg, reconciler_, ka);
  BobSession bob(cfg, reconciler_, kb);
  const auto accept = bob.handle(alice.start());
  ASSERT_TRUE(accept.has_value());
  EXPECT_FALSE(alice.handle(*accept).has_value());
  ASSERT_EQ(alice.state(), SessionState::kAwaitSyndrome);
  const auto syndrome = bob.take_unprompted();
  ASSERT_TRUE(syndrome.has_value());

  // Bob's syndrome frame with its last cell cut off: not one byte per
  // cell, so Alice refuses it before decoding or checking the MAC, and
  // keeps waiting.
  Message cut = *syndrome;
  cut.payload.resize(core::kSyndromeBytes - 1);
  EXPECT_FALSE(alice.handle(cut).has_value());
  EXPECT_EQ(alice.last_reject(), RejectReason::kMalformed);
  EXPECT_EQ(alice.state(), SessionState::kAwaitSyndrome);

  // A refused frame does not advance the nonce window, so the intact
  // syndrome delivered next is fresh and the handshake completes.
  const auto confirm = alice.handle(*syndrome);
  ASSERT_TRUE(confirm.has_value());
  const auto ack = bob.handle(*confirm);
  ASSERT_TRUE(ack.has_value());
  EXPECT_FALSE(alice.handle(*ack).has_value());
  EXPECT_EQ(alice.state(), SessionState::kEstablished);
  EXPECT_EQ(bob.state(), SessionState::kEstablished);
  EXPECT_EQ(alice.final_key(), bob.final_key());
}

TEST_F(SessionTest, FinalKeyBeforeEstablishmentThrows) {
  const BitVec k = random_bits(64, vkey::Rng(9));
  SessionConfig cfg;
  AliceSession alice(cfg, reconciler_, k);
  EXPECT_THROW(alice.final_key(), vkey::Error);
}

TEST_F(SessionTest, KeyWidthValidated) {
  SessionConfig cfg;
  EXPECT_THROW(BobSession(cfg, reconciler_, BitVec(32)), vkey::Error);
  EXPECT_THROW(AliceSession(cfg, reconciler_, BitVec(32)), vkey::Error);
}

TEST_F(SessionTest, StateStringsAreHumanReadable) {
  EXPECT_EQ(to_string(SessionState::kEstablished), "established");
  EXPECT_EQ(to_string(RejectReason::kMacMismatch), "mac-mismatch");
}

}  // namespace
}  // namespace vkey::protocol
