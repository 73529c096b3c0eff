#include "protocol/attacks.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/rng.h"
#include "protocol/reliability.h"
#include "protocol/session.h"

namespace vkey::protocol {
namespace {

class AttackTest : public ::testing::Test {
 protected:
  /// One agreement attempt over a fault-free link whose base channel is
  /// `ch`, which carries the attacker's interceptor.
  static AgreementReport agree(PublicChannel& ch, const BitVec& ka,
                               const BitVec& kb) {
    ReliabilityConfig cfg;
    cfg.max_session_attempts = 1;
    return run_reliable_key_agreement(
        ch, reconciler_, cfg,
        [&](std::size_t) { return std::make_pair(ka, kb); });
  }

  static inline const core::SyndromeCode reconciler_{64, 11};
};

TEST_F(AttackTest, RecordedTranscriptHoldsEveryFrameAsSent) {
  PublicChannel ch;
  std::vector<Message> transcript;
  record_transcript(ch, transcript);
  Message request;
  request.type = MessageType::kKeyGenRequest;
  request.session_id = 1;
  request.nonce = 1;
  Message syndrome = request;
  syndrome.type = MessageType::kSyndrome;
  syndrome.nonce = 2;
  syndrome.payload = {1, 2, 3};
  syndrome.mac = {4, 5};
  Message in_flight = request;
  EXPECT_TRUE(ch.transmit(in_flight));
  EXPECT_EQ(in_flight, request);  // recording delivers the frame as sent
  in_flight = syndrome;
  EXPECT_TRUE(ch.transmit(in_flight));
  ASSERT_EQ(transcript.size(), 2u);
  EXPECT_EQ(transcript[0], request);
  EXPECT_EQ(transcript[1], syndrome);
  EXPECT_EQ(find_syndrome(transcript), syndrome);
}

TEST_F(AttackTest, EavesdropperSeesSyndromeButGainsNoKey) {
  const BitVec kb = random_bits(64, vkey::Rng(1));
  BitVec ka = kb;
  ka.flip(5);
  PublicChannel ch;
  std::vector<Message> transcript;
  record_transcript(ch, transcript);
  ASSERT_TRUE(agree(ch, ka, kb));

  // Eve pulls the syndrome from what she recorded.
  const auto syndrome = find_syndrome(transcript);
  ASSERT_TRUE(syndrome.has_value());

  // Her key material is uncorrelated: decoding gets her nowhere near K_Bob.
  const BitVec ke = random_bits(64, vkey::Rng(99));
  const BitVec guess = eavesdrop_attack(reconciler_, ke, *syndrome);
  EXPECT_LT(guess.agreement(kb), 0.75);
  EXPECT_GT(guess.agreement(kb), 0.25);
}

TEST_F(AttackTest, NoSyndromeInEmptyTranscript) {
  EXPECT_FALSE(find_syndrome({}).has_value());
}

TEST_F(AttackTest, EavesdropAttackValidatesMessageType) {
  Message not_syndrome;
  not_syndrome.type = MessageType::kKeyGenRequest;
  EXPECT_THROW(eavesdrop_attack(reconciler_, random_bits(64, vkey::Rng(2)),
                                not_syndrome),
               vkey::Error);
}

TEST_F(AttackTest, MitmTamperIsDetectedByMac) {
  const BitVec kb = random_bits(64, vkey::Rng(3));
  BitVec ka = kb;
  ka.flip(7);
  PublicChannel ch;
  install_syndrome_tamper(ch);
  const auto report = agree(ch, ka, kb);
  EXPECT_FALSE(report);
  EXPECT_EQ(report.failure, FailureReason::kMacMismatch);
  const AttemptReport& att = report.attempt_log.front();
  EXPECT_EQ(att.alice_state, SessionState::kFailed);
  EXPECT_EQ(att.alice_reject, RejectReason::kMacMismatch);
}

TEST_F(AttackTest, ReplayedSyndromeCannotDisturbTheSession) {
  const BitVec kb = random_bits(64, vkey::Rng(4));
  BitVec ka = kb;
  ka.flip(11);
  SessionConfig cfg;
  AliceSession alice(cfg, reconciler_, ka);
  BobSession bob(cfg, reconciler_, kb);
  // Step the five frames by hand, so the established session stays live:
  // request, accept, syndrome, confirm, ack.
  const auto accept = bob.handle(alice.start());
  ASSERT_TRUE(accept.has_value());
  const auto syndrome = bob.take_unprompted();
  ASSERT_TRUE(syndrome.has_value());
  EXPECT_FALSE(alice.handle(*accept).has_value());
  const auto confirm = alice.handle(*syndrome);
  ASSERT_TRUE(confirm.has_value());
  const auto ack = bob.handle(*confirm);
  ASSERT_TRUE(ack.has_value());
  EXPECT_FALSE(alice.handle(*ack).has_value());
  ASSERT_EQ(alice.state(), SessionState::kEstablished);
  ASSERT_EQ(bob.state(), SessionState::kEstablished);

  // Replaying the captured syndrome bit-identically is indistinguishable
  // from an ARQ retransmission: it is suppressed as a duplicate (the cached
  // response is re-elicited) and the established state is untouched.
  EXPECT_EQ(alice.handle(*syndrome), confirm);
  EXPECT_EQ(alice.last_reject(), RejectReason::kDuplicate);
  EXPECT_EQ(alice.state(), SessionState::kEstablished);

  // A *modified* replay under the old nonce is an attack: rejected outright.
  Message forged = *syndrome;
  forged.payload[0] ^= 0xff;
  EXPECT_FALSE(alice.handle(forged).has_value());
  EXPECT_EQ(alice.last_reject(), RejectReason::kReplayedNonce);
  EXPECT_EQ(alice.state(), SessionState::kEstablished);
}

TEST_F(AttackTest, TamperInterceptorPassesOtherTraffic) {
  PublicChannel ch;
  install_syndrome_tamper(ch);
  Message req;
  req.type = MessageType::kKeyGenRequest;
  req.session_id = 1;
  req.nonce = 1;
  Message in_flight = req;
  ASSERT_TRUE(ch.transmit(in_flight));
  EXPECT_EQ(in_flight, req);  // untouched
}

}  // namespace
}  // namespace vkey::protocol
