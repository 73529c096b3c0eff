#include "protocol/key_schedule.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "crypto/hkdf.h"
#include "crypto/sha256.h"
#include "protocol/channel.h"
#include "protocol/sim_clock.h"
#include "protocol/unreliable_channel.h"

namespace vkey::protocol {
namespace {

/// The amplified secret both ends of a schedule share.
const BitVec kSecret = random_bits(128, vkey::Rng(0x5ec0de));
constexpr std::uint64_t kSession = 0xABCDEF01;

KeySchedule::Policy fast_policy() {
  KeySchedule::Policy p;
  p.rekey_interval_ms = 1000.0;
  p.grace_ms = 200.0;
  return p;
}

channel::LoRaParams fast_radio() {
  channel::LoRaParams p;
  p.spreading_factor = 7;  // keep virtual airtimes small in tests
  return p;
}

// ------------------------------------------------------------- derivation

// SecretBuffer deletes operator== (timing side channel); key equality in
// these tests goes through the sanctioned constant_time_equal.
bool same(const crypto::SecretBuffer& a, const crypto::SecretBuffer& b) {
  return crypto::constant_time_equal(a, b);
}

TEST(KeyScheduleDerive, BothPartiesDeriveIdenticalEpochKeys) {
  const auto secret = kSecret.to_bytes();
  const EpochKeys a = derive_epoch_keys(secret, kSession, 0);
  const EpochKeys b = derive_epoch_keys(secret, kSession, 0);
  EXPECT_TRUE(same(a.a2b.enc, b.a2b.enc));
  EXPECT_TRUE(same(a.a2b.mac, b.a2b.mac));
  EXPECT_EQ(a.a2b.nonce_base, b.a2b.nonce_base);
  EXPECT_TRUE(same(a.b2a.enc, b.b2a.enc));
  EXPECT_TRUE(same(a.confirm, b.confirm));
}

TEST(KeyScheduleDerive, DirectionsAndPurposesAreIndependent) {
  const auto secret = kSecret.to_bytes();
  const EpochKeys keys = derive_epoch_keys(secret, kSession, 0);
  EXPECT_FALSE(same(keys.a2b.enc, keys.b2a.enc));
  EXPECT_FALSE(same(keys.a2b.mac, keys.b2a.mac));
  EXPECT_NE(keys.a2b.nonce_base, keys.b2a.nonce_base);
  EXPECT_FALSE(same(keys.a2b.mac, keys.confirm));
  // The 16-byte enc key must not be a prefix of the 32-byte mac key.
  EXPECT_FALSE(crypto::constant_time_equal(
      keys.a2b.mac.expose().subspan(0, 16), keys.a2b.enc.expose()));
}

TEST(KeyScheduleDerive, EpochsSessionsAndSecretsSeparateKeys) {
  const auto secret = kSecret.to_bytes();
  const EpochKeys e0 = derive_epoch_keys(secret, kSession, 0);
  EXPECT_FALSE(same(e0.a2b.enc, derive_epoch_keys(secret, kSession, 1).a2b.enc));
  EXPECT_FALSE(
      same(e0.a2b.enc, derive_epoch_keys(secret, kSession + 1, 0).a2b.enc));
  const auto other = random_bits(128, vkey::Rng(0x0ddba11)).to_bytes();
  EXPECT_FALSE(same(e0.a2b.enc, derive_epoch_keys(other, kSession, 0).a2b.enc));
}

TEST(KeyScheduleDerive, RatchetIsDeterministicAndOneWayLooking) {
  const auto secret = kSecret.to_bytes();
  const auto next = ratchet_secret(secret, kSession, 1);
  EXPECT_TRUE(same(next, ratchet_secret(secret, kSession, 1)));
  EXPECT_EQ(next.size(), 32u);
  EXPECT_FALSE(crypto::constant_time_equal(next.expose(),
                                           std::span<const std::uint8_t>(secret)));
  EXPECT_FALSE(same(ratchet_secret(secret, kSession, 2), next));
}

// ---------------------------------------------------------- known answers

// A fixed secret, session and epoch. Every test above compares one party
// with the other, so a label or salt typo both share would pass them all;
// these pin the derived bytes themselves.
std::vector<std::uint8_t> kat_secret() {
  std::vector<std::uint8_t> secret(16);
  for (std::size_t i = 0; i < secret.size(); ++i) {
    secret[i] = static_cast<std::uint8_t>(0xa0 + i);
  }
  return secret;
}
constexpr std::uint64_t kKatSession = 0x0123456789abcdefULL;
constexpr std::uint32_t kKatEpoch = 7;

std::string hex(const crypto::SecretBuffer& b) {
  const auto bytes = b.expose();
  return crypto::to_hex(bytes.data(), bytes.size());
}

TEST(KeyScheduleDerive, KnownAnswerVectors) {
  const EpochKeys k = derive_epoch_keys(kat_secret(), kKatSession, kKatEpoch);
  EXPECT_EQ(k.epoch, kKatEpoch);
  EXPECT_EQ(hex(k.a2b.enc), "8eb840d6ff60b253f9720b70ce745c4b");
  EXPECT_EQ(hex(k.a2b.mac),
            "d52494f0e5dd466542728b66d58d918a"
            "3c4e53211471b2f3f4cc7db9687de5b2");
  EXPECT_EQ(k.a2b.nonce_base, 0x784daaa8105a97cfULL);
  EXPECT_EQ(hex(k.b2a.enc), "4a78358de68defc2541554a5e9d34b10");
  EXPECT_EQ(hex(k.b2a.mac),
            "0893bc83f3a4e08bf16a3a03f16ef5ab"
            "c1a070aa21a4262d27d312e32efc7651");
  EXPECT_EQ(k.b2a.nonce_base, 0x48559381a4bea154ULL);
  EXPECT_EQ(hex(k.confirm),
            "352a83966f60646d09fca1a328c9e75d"
            "4889e01703fe631913a51968797dae05");
  EXPECT_EQ(hex(ratchet_secret(kat_secret(), kKatSession, kKatEpoch + 1)),
            "418d9a5162f2d3533fe73b5ef0807989"
            "ff9d79b94ff977d2ff179e459984ea7e");
}

TEST(KeyScheduleDerive, MatchesTheHeaderDiagramRecomputedWithHkdf) {
  // salt = "vkey/wire/v1" || be64(session) || be32(epoch), then one
  // HKDF-Expand per label of the diagram in key_schedule.h.
  const std::string prefix = "vkey/wire/v1";
  std::vector<std::uint8_t> salt(prefix.begin(), prefix.end());
  for (int shift = 56; shift >= 0; shift -= 8) {
    salt.push_back(static_cast<std::uint8_t>(kKatSession >> shift));
  }
  for (int shift = 24; shift >= 0; shift -= 8) {
    salt.push_back(static_cast<std::uint8_t>(kKatEpoch >> shift));
  }
  ASSERT_EQ(salt.size(), 24u);
  const auto prk = crypto::hkdf_extract(salt, kat_secret());
  const auto expand = [&prk](const std::string& label, std::size_t len) {
    const std::vector<std::uint8_t> info(label.begin(), label.end());
    return crypto::hkdf_expand(prk, info, len);
  };
  const auto be64 = [](const crypto::SecretBuffer& b) {
    std::uint64_t v = 0;
    for (const std::uint8_t byte : b.expose()) v = (v << 8) | byte;
    return v;
  };

  const EpochKeys k = derive_epoch_keys(kat_secret(), kKatSession, kKatEpoch);
  EXPECT_TRUE(same(k.a2b.enc, expand("vkey v1 a2b enc", 16)));
  EXPECT_TRUE(same(k.a2b.mac, expand("vkey v1 a2b mac", 32)));
  EXPECT_EQ(k.a2b.nonce_base, be64(expand("vkey v1 a2b nonce", 8)));
  EXPECT_TRUE(same(k.b2a.enc, expand("vkey v1 b2a enc", 16)));
  EXPECT_TRUE(same(k.b2a.mac, expand("vkey v1 b2a mac", 32)));
  EXPECT_EQ(k.b2a.nonce_base, be64(expand("vkey v1 b2a nonce", 8)));
  EXPECT_TRUE(same(k.confirm, expand("vkey v1 confirm", 32)));
  // Epoch e's PRK yields epoch e+1's secret.
  EXPECT_TRUE(same(ratchet_secret(kat_secret(), kKatSession, kKatEpoch + 1),
                   expand("vkey v1 ratchet", 32)));
}

// ------------------------------------------------------------- seal / open

TEST(KeySchedule, SealOpenRoundTripsAcrossRoles) {
  KeySchedule alice(kSecret, kSession, KeySchedule::Role::kInitiator);
  KeySchedule bob(kSecret, kSession, KeySchedule::Role::kResponder);
  const std::vector<std::uint8_t> plain{'h', 'e', 'l', 'l', 'o'};

  const Message a2b = alice.seal(1, plain);
  EXPECT_EQ(a2b.type, MessageType::kData);
  const auto at_bob = bob.open(a2b, 0.0);
  ASSERT_TRUE(at_bob.has_value());
  EXPECT_EQ(*at_bob, plain);

  const Message b2a = bob.seal(2, plain);
  const auto at_alice = alice.open(b2a, 0.0);
  ASSERT_TRUE(at_alice.has_value());
  EXPECT_EQ(*at_alice, plain);
  EXPECT_EQ(alice.stats().opened, 1u);
  EXPECT_EQ(bob.stats().opened, 1u);

  // The nonce enters the CTR counter: one plaintext under distinct nonces
  // gives distinct ciphertexts.
  const std::vector<std::uint8_t> block(24, 0x55);
  EXPECT_NE(alice.seal(3, block).payload, alice.seal(4, block).payload);
}

TEST(KeySchedule, ReflectedFramesDoNotAuthenticate) {
  KeySchedule alice(kSecret, kSession, KeySchedule::Role::kInitiator);
  const Message sealed = alice.seal(1, {1, 2, 3});
  // Alice's own frame bounced back at her: wrong direction keys.
  EXPECT_FALSE(alice.open(sealed, 0.0).has_value());
  EXPECT_EQ(alice.stats().mac_rejects, 1u);
}

TEST(KeySchedule, TamperedCiphertextEpochOrNonceIsRejected) {
  KeySchedule alice(kSecret, kSession, KeySchedule::Role::kInitiator);
  KeySchedule bob(kSecret, kSession, KeySchedule::Role::kResponder);

  Message tampered = alice.seal(1, {1, 2, 3, 4});
  tampered.payload.back() ^= 0x01;
  EXPECT_FALSE(bob.open(tampered, 0.0).has_value());

  tampered = alice.seal(2, {1, 2, 3, 4});
  tampered.payload[3] ^= 0x01;  // epoch prefix
  EXPECT_FALSE(bob.open(tampered, 0.0).has_value());

  tampered = alice.seal(3, {1, 2, 3, 4});
  tampered.nonce ^= 1;  // the MAC binds the header too
  EXPECT_FALSE(bob.open(tampered, 0.0).has_value());

  Message short_frame = alice.seal(4, {});
  short_frame.payload.resize(2);  // shorter than the epoch prefix
  EXPECT_FALSE(bob.open(short_frame, 0.0).has_value());
  EXPECT_EQ(bob.stats().malformed, 1u);
  EXPECT_EQ(bob.stats().mac_rejects, 3u);

  // A different secret cannot open the frame.
  KeySchedule eve(random_bits(128, vkey::Rng(0xe5e)), kSession,
                  KeySchedule::Role::kResponder);
  EXPECT_FALSE(eve.open(alice.seal(5, {1, 2, 3, 4}), 0.0).has_value());
  EXPECT_EQ(eve.stats().mac_rejects, 1u);

  // A frame spliced into another session fails that session's MAC: the
  // session id salts the whole key schedule.
  KeySchedule other(kSecret, kSession + 1,
                    KeySchedule::Role::kResponder);
  Message spliced = alice.seal(6, {1, 2, 3, 4});
  spliced.session_id = kSession + 1;
  EXPECT_FALSE(other.open(spliced, 0.0).has_value());
  EXPECT_EQ(other.stats().mac_rejects, 1u);
}

// ------------------------------------------------------------------ rekey

TEST(KeySchedule, RekeyAdvancesEpochAndChangesKeys) {
  KeySchedule alice(kSecret, kSession, KeySchedule::Role::kInitiator,
                    fast_policy());
  const auto before = alice.keys().a2b.enc;
  EXPECT_FALSE(alice.rekey_due(999.0));
  EXPECT_TRUE(alice.rekey_due(1000.0));
  alice.rekey(1000.0);
  EXPECT_EQ(alice.epoch(), 1u);
  EXPECT_FALSE(same(alice.keys().a2b.enc, before));
  EXPECT_EQ(alice.stats().rekeys, 1u);
}

TEST(KeySchedule, GraceWindowKeepsTheOldEpochOpenableThenExpires) {
  KeySchedule alice(kSecret, kSession, KeySchedule::Role::kInitiator,
                    fast_policy());
  KeySchedule bob(kSecret, kSession, KeySchedule::Role::kResponder,
                  fast_policy());
  // Frame sealed under epoch 0, delivered after Bob rekeyed to epoch 1.
  const Message in_flight = alice.seal(1, {0xaa});
  bob.rekey(1000.0);
  const auto within_grace = bob.open(in_flight, 1100.0);
  ASSERT_TRUE(within_grace.has_value());
  EXPECT_EQ(bob.stats().grace_opens, 1u);

  const Message too_late = alice.seal(2, {0xbb});
  EXPECT_FALSE(bob.open(too_late, 1300.0).has_value());  // grace 200 ms over
  EXPECT_EQ(bob.stats().epoch_rejects, 1u);
}

TEST(KeySchedule, PeerThatRekeyedFirstIsAdoptedAfterAuthentication) {
  KeySchedule alice(kSecret, kSession, KeySchedule::Role::kInitiator,
                    fast_policy());
  KeySchedule bob(kSecret, kSession, KeySchedule::Role::kResponder,
                  fast_policy());
  alice.rekey(1000.0);  // Alice is at epoch 1, Bob still at 0
  const Message from_next = alice.seal(5, {1, 2, 3});
  const auto plain = bob.open(from_next, 1050.0);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(bob.epoch(), 1u);  // fast-forwarded
  EXPECT_EQ(bob.stats().fast_forwards, 1u);
  // And the direction back now works under the shared epoch 1.
  EXPECT_TRUE(alice.open(bob.seal(6, {4, 5}), 1060.0).has_value());
}

TEST(KeySchedule, ForgedEpochNumberCannotWedgeTheSchedule) {
  KeySchedule bob(kSecret, kSession, KeySchedule::Role::kResponder,
                  fast_policy());
  // Attacker claims epoch 1 without the keys: MAC fails under the candidate
  // and Bob must NOT move off epoch 0.
  Message forged;
  forged.type = MessageType::kData;
  forged.session_id = kSession;
  forged.nonce = 1;
  forged.payload = {0, 0, 0, 1, 0xde, 0xad};
  forged.mac.assign(32, 0x42);
  EXPECT_FALSE(bob.open(forged, 0.0).has_value());
  EXPECT_EQ(bob.epoch(), 0u);
  EXPECT_EQ(bob.stats().mac_rejects, 1u);

  // Epochs further than one ahead are rejected outright.
  forged.payload = {0, 0, 0, 5, 0xde, 0xad};
  EXPECT_FALSE(bob.open(forged, 0.0).has_value());
  EXPECT_EQ(bob.stats().epoch_rejects, 1u);
}

// ----------------------------------------------------------- confirmation

TEST(KeySchedule, ConfirmRoundTripVerifiesAndRejectsReflection) {
  KeySchedule alice(kSecret, kSession, KeySchedule::Role::kInitiator);
  KeySchedule bob(kSecret, kSession, KeySchedule::Role::kResponder);

  const Message confirm = alice.make_confirm(1);
  EXPECT_EQ(confirm.type, MessageType::kKeyConfirm);
  EXPECT_TRUE(bob.verify_confirm(confirm));
  // Reflection: Alice must not accept her own confirm as the peer's.
  EXPECT_FALSE(alice.verify_confirm(confirm));

  const Message ack = bob.make_confirm(2);
  EXPECT_EQ(ack.type, MessageType::kKeyConfirmAck);
  EXPECT_TRUE(alice.verify_confirm(ack));
  EXPECT_FALSE(bob.verify_confirm(ack));
}

TEST(KeySchedule, ConfirmBindsEpochSessionAndTag) {
  KeySchedule alice(kSecret, kSession, KeySchedule::Role::kInitiator);
  KeySchedule bob(kSecret, kSession, KeySchedule::Role::kResponder);

  Message tampered = alice.make_confirm(1);
  tampered.mac[5] ^= 0x01;
  EXPECT_FALSE(bob.verify_confirm(tampered));

  tampered = alice.make_confirm(2);
  tampered.payload[3] = 9;  // claim a different epoch
  EXPECT_FALSE(bob.verify_confirm(tampered));

  // A confirm from a different secret never verifies.
  KeySchedule mallory(random_bits(128, vkey::Rng(0xbad)), kSession,
                      KeySchedule::Role::kInitiator);
  EXPECT_FALSE(bob.verify_confirm(mallory.make_confirm(3)));

  // After Bob rekeys, an old-epoch confirm is stale.
  bob.rekey(1000.0);
  EXPECT_FALSE(bob.verify_confirm(alice.make_confirm(4)));
}

// ------------------------------------------------------------- rekey timer

TEST(RekeyTimerTest, FiresOnScheduleAndAnnouncesEpochs) {
  SimClock clock;
  KeySchedule alice(kSecret, kSession, KeySchedule::Role::kInitiator,
                    fast_policy());
  RekeyTimer timer(clock, alice);
  timer.start();
  // The schedule announces each epoch the timer advances it to, on the
  // rekey interval's grid and nowhere between.
  std::vector<std::uint32_t> epochs;
  for (const double t : {999.0, 1000.0, 1999.0, 2000.0, 2999.0, 3500.0}) {
    clock.run_until(t);
    epochs.push_back(alice.epoch());
  }
  EXPECT_EQ(epochs, (std::vector<std::uint32_t>{0, 1, 1, 2, 2, 3}));
  EXPECT_DOUBLE_EQ(alice.last_rekey_ms(), 3000.0);
  timer.stop();
  clock.run_until(10'000.0);
  EXPECT_EQ(alice.epoch(), 3u);  // stopped timers stay stopped
}

TEST(RekeyTimerTest, PeerFastForwardDefersTheNextScheduledRekey) {
  SimClock clock;
  KeySchedule alice(kSecret, kSession, KeySchedule::Role::kInitiator,
                    fast_policy());
  KeySchedule bob(kSecret, kSession, KeySchedule::Role::kResponder,
                  fast_policy());
  RekeyTimer timer(clock, bob);
  timer.start();

  // At t=600 Alice rekeys (e.g. her own timer elsewhere) and her epoch-1
  // frame fast-forwards Bob. Bob's timer fires at t=1000, sees the rekey is
  // not due, and re-arms for t=1600 instead of double-advancing.
  clock.run_until(600.0);
  alice.rekey(600.0);
  ASSERT_TRUE(bob.open(alice.seal(1, {1}), clock.now_ms()).has_value());
  EXPECT_EQ(bob.epoch(), 1u);

  clock.run_until(1100.0);
  EXPECT_EQ(bob.epoch(), 1u);  // the t=1000 firing did not rekey
  clock.run_until(1700.0);
  EXPECT_EQ(bob.epoch(), 2u);  // the deferred firing did
}

// ------------------------------------- confirmation over the faulty link

TEST(KeyConfirmation, RoundTripSucceedsOnACleanLink) {
  SimClock clock;
  PublicChannel base;
  FaultConfig faults;  // fault-free
  UnreliableChannel link(clock, base, faults, fast_radio());
  KeySchedule alice(kSecret, kSession, KeySchedule::Role::kInitiator);
  KeySchedule bob(kSecret, kSession, KeySchedule::Role::kResponder);

  const auto report = run_key_confirmation(clock, link, alice, bob);
  EXPECT_TRUE(report.confirmed);
  EXPECT_EQ(report.transmissions, 1u);
  EXPECT_GT(report.duration_ms, 0.0);
}

TEST(KeyConfirmation, RetransmissionsSurviveALossyLink) {
  // 40% drop + 10% corruption: with 8 transmissions the round trip still
  // completes for every seed below (deterministic — fixed seeds).
  int confirmed = 0;
  std::size_t retransmissions = 0;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    SimClock clock;
    PublicChannel base;
    FaultConfig faults;
    faults.drop_prob = 0.4;
    faults.corrupt_prob = 0.1;
    faults.seed = seed;
    UnreliableChannel link(clock, base, faults, fast_radio());
    KeySchedule alice(kSecret, kSession,
                      KeySchedule::Role::kInitiator);
    KeySchedule bob(kSecret, kSession, KeySchedule::Role::kResponder);
    const auto report = run_key_confirmation(clock, link, alice, bob);
    if (report.confirmed) ++confirmed;
    retransmissions += report.transmissions - 1;
  }
  EXPECT_GE(confirmed, 18);      // a 0.4-drop link is survivable
  EXPECT_GT(retransmissions, 0u);  // and the retry path was exercised
}

TEST(KeyConfirmation, MismatchedSecretsNeverConfirm) {
  SimClock clock;
  PublicChannel base;
  FaultConfig faults;
  UnreliableChannel link(clock, base, faults, fast_radio());
  KeySchedule alice(random_bits(128, vkey::Rng(0xa)), kSession,
                    KeySchedule::Role::kInitiator);
  KeySchedule bob(random_bits(128, vkey::Rng(0xb)), kSession,
                  KeySchedule::Role::kResponder);
  const auto report = run_key_confirmation(clock, link, alice, bob, 4);
  EXPECT_FALSE(report.confirmed);
  EXPECT_EQ(report.transmissions, 4u);  // exhausted the budget
}

}  // namespace
}  // namespace vkey::protocol
