#include "protocol/key_schedule.h"

#include <array>
#include <utility>

#include "common/error.h"
#include "crypto/aes128.h"
#include "crypto/hkdf.h"
#include "crypto/hmac.h"
#include "protocol/unreliable_channel.h"
#include "protocol/wire.h"

namespace vkey::protocol {

namespace {

/// The ASCII bytes of a string literal without its terminator: the HKDF
/// labels and the salt prefix as compile-time byte strings.
template <std::size_t N>
constexpr std::array<std::uint8_t, N - 1> ascii(const char (&text)[N]) {
  std::array<std::uint8_t, N - 1> bytes{};
  for (std::size_t i = 0; i + 1 < N; ++i) {
    bytes[i] = static_cast<std::uint8_t>(text[i]);
  }
  return bytes;
}

// The label schedule of the header diagram. "v1" versions the key schedule,
// not the frame codec (wire.h's kWireVersion): no key or tag depends on how
// a frame is encoded, and new labels would change every derived key.
constexpr auto kSaltPrefix = ascii("vkey/wire/v1");
constexpr auto kA2bEnc = ascii("vkey v1 a2b enc");
constexpr auto kA2bMac = ascii("vkey v1 a2b mac");
constexpr auto kA2bNonce = ascii("vkey v1 a2b nonce");
constexpr auto kB2aEnc = ascii("vkey v1 b2a enc");
constexpr auto kB2aMac = ascii("vkey v1 b2a mac");
constexpr auto kB2aNonce = ascii("vkey v1 b2a nonce");
constexpr auto kConfirm = ascii("vkey v1 confirm");
constexpr auto kRatchet = ascii("vkey v1 ratchet");

/// Extraction salt: protocol string || be64(session) || be32(epoch), 24
/// bytes. Putting the epoch in the salt (not just the expand labels)
/// separates epochs at the extract step, so even identical input secrets
/// yield unrelated PRKs per epoch.
std::array<std::uint8_t, 24> epoch_salt(std::uint64_t session_id,
                                        std::uint32_t epoch) {
  static_assert(kSaltPrefix.size() + 8 + 4 == 24);
  std::array<std::uint8_t, 24> salt{};
  wire::FrameWriter w(salt);
  w.put_bytes(kSaltPrefix);
  w.put_u64(session_id);
  w.put_u32(epoch);
  return salt;
}

DirectionKeys derive_direction(const crypto::SecretBuffer& prk,
                               std::span<const std::uint8_t> enc_label,
                               std::span<const std::uint8_t> mac_label,
                               std::span<const std::uint8_t> nonce_label) {
  DirectionKeys keys;
  keys.enc = crypto::hkdf_expand(prk, enc_label, 16);
  keys.mac = crypto::hkdf_expand(prk, mac_label, 32);
  // The nonce base leaves the secret domain by design: it is XORed into
  // the CTR counter block, never exposed on the wire, and 8 bytes of OKM
  // are not key-equivalent for either direction key.
  const auto nonce = crypto::hkdf_expand(prk, nonce_label, 8);
  wire::FrameReader(nonce.expose()).read_u64(keys.nonce_base);
  return keys;
}

/// Tag = HMAC(confirm_key, mac_header(frame) || payload || role byte). The
/// header covers type|session|nonce|payload length, so the tag binds the
/// whole confirm frame; the role byte rules out reflection even if the
/// types were ever unified. The tag itself is public (it rides the frame);
/// only the key is secret.
std::array<std::uint8_t, 32> confirm_tag(const EpochKeys& keys,
                                         const Message& msg,
                                         KeySchedule::Role role) {
  const auto role_byte = static_cast<std::uint8_t>(role);
  return frame_mac(keys.confirm, msg,
                   std::span<const std::uint8_t>(&role_byte, 1));
}

}  // namespace

EpochKeys derive_epoch_keys(std::span<const std::uint8_t> secret,
                            std::uint64_t session_id, std::uint32_t epoch) {
  const auto prk =
      crypto::hkdf_extract(epoch_salt(session_id, epoch), secret);
  EpochKeys keys;
  keys.epoch = epoch;
  keys.a2b = derive_direction(prk, kA2bEnc, kA2bMac, kA2bNonce);
  keys.b2a = derive_direction(prk, kB2aEnc, kB2aMac, kB2aNonce);
  keys.confirm = crypto::hkdf_expand(prk, kConfirm, 32);
  return keys;
}

crypto::SecretBuffer ratchet_secret(std::span<const std::uint8_t> secret,
                                    std::uint64_t session_id,
                                    std::uint32_t next_epoch) {
  VKEY_REQUIRE(next_epoch >= 1, "epoch 0 has no predecessor to ratchet from");
  // Epoch e's PRK (salt carries e = next_epoch - 1) produces epoch e+1's
  // secret, matching the label schedule in the header diagram.
  const auto prk = crypto::hkdf_extract(
      epoch_salt(session_id, next_epoch - 1), secret);
  return crypto::hkdf_expand(prk, kRatchet, 32);
}

KeySchedule::KeySchedule(const BitVec& amplified_secret,
                         std::uint64_t session_id, Role role)
    : KeySchedule(amplified_secret, session_id, role, Policy()) {}

KeySchedule::KeySchedule(const BitVec& amplified_secret,
                         std::uint64_t session_id, Role role, Policy policy)
    : session_id_(session_id),
      role_(role),
      policy_(policy),
      secret_(crypto::SecretBuffer::zeros((amplified_secret.size() + 7) / 8)) {
  // Packed straight into the zeroizing buffer: no unwiped copy on the way.
  amplified_secret.pack_bytes(0, secret_.expose_mut());
  VKEY_REQUIRE(!secret_.empty(), "amplified secret must be non-empty");
  VKEY_REQUIRE(policy_.rekey_interval_ms > 0.0 && policy_.grace_ms >= 0.0,
               "rekey interval must be positive, grace non-negative");
  current_ = derive_epoch_keys(secret_, session_id_, 0);
}

bool KeySchedule::rekey_due(double now_ms) const noexcept {
  return now_ms - last_rekey_ms_ >= policy_.rekey_interval_ms;
}

void KeySchedule::rekey(double now_ms) {
  const std::uint32_t next = current_.epoch + 1;
  secret_ = ratchet_secret(secret_, session_id_, next);
  EpochKeys keys = derive_epoch_keys(secret_, session_id_, next);
  // The outgoing epoch moves into the grace slot: no key is copied.
  previous_ = std::move(current_);
  previous_expires_ms_ = now_ms + policy_.grace_ms;
  current_ = std::move(keys);
  last_rekey_ms_ = now_ms;
  ++stats_.rekeys;
}

Message KeySchedule::make_confirm(std::uint64_t nonce) const {
  Message msg;
  msg.type = role_ == Role::kInitiator ? MessageType::kKeyConfirm
                                       : MessageType::kKeyConfirmAck;
  msg.session_id = session_id_;
  msg.nonce = nonce;
  msg.payload.resize(4);  // the epoch prefix alone
  wire::FrameWriter(msg.payload).put_u32(current_.epoch);
  const auto tag = confirm_tag(current_, msg, role_);
  msg.mac.assign(tag);
  return msg;
}

bool KeySchedule::verify_confirm(const Message& msg) const {
  const Role peer =
      role_ == Role::kInitiator ? Role::kResponder : Role::kInitiator;
  const MessageType expected_type = peer == Role::kInitiator
                                        ? MessageType::kKeyConfirm
                                        : MessageType::kKeyConfirmAck;
  if (msg.type != expected_type || msg.session_id != session_id_) return false;
  wire::FrameReader reader(msg.payload);
  std::uint32_t epoch = 0;
  if (!reader.read_u32(epoch) || reader.remaining() != 0 ||
      epoch != current_.epoch) {
    return false;
  }
  return crypto::constant_time_equal(msg.mac, confirm_tag(current_, msg, peer));
}

Message KeySchedule::seal(std::uint64_t nonce,
                          const std::vector<std::uint8_t>& plain) {
  VKEY_REQUIRE(plain.size() <= kMaxPlaintextBytes,
               "plaintext outgrows one LoRa packet");
  const DirectionKeys& tx = send_keys(current_);
  Message msg;
  msg.type = MessageType::kData;
  msg.session_id = session_id_;
  msg.nonce = nonce;
  msg.payload.resize(4 + plain.size());  // epoch prefix || ciphertext
  wire::FrameWriter(msg.payload).put_u32(current_.epoch);
  crypto::Aes128(tx.enc).ctr_crypt(
      plain, tx.nonce_base ^ nonce,
      std::span<std::uint8_t>(msg.payload).subspan(4));
  const auto tag = frame_mac(tx.mac, msg);
  msg.mac.assign(tag);
  ++stats_.sealed;
  return msg;
}

std::optional<KeySchedule::Plaintext> KeySchedule::open(const Message& msg,
                                                        double now_ms) {
  std::uint32_t epoch = 0;
  if (msg.type != MessageType::kData || msg.session_id != session_id_ ||
      !wire::FrameReader(msg.payload).read_u32(epoch)) {
    ++stats_.malformed;
    return std::nullopt;
  }

  const EpochKeys* keys = nullptr;
  bool grace = false;
  // The next epoch's secret and keys, when the peer rekeyed first.
  crypto::SecretBuffer next_secret;
  std::optional<EpochKeys> candidate;
  if (epoch == current_.epoch) {
    keys = &current_;
  } else if (previous_.has_value() && epoch == previous_->epoch &&
             now_ms <= previous_expires_ms_) {
    keys = &*previous_;
    grace = true;
  } else if (epoch == current_.epoch + 1) {
    next_secret = ratchet_secret(secret_, session_id_, epoch);
    candidate = derive_epoch_keys(next_secret, session_id_, epoch);
    keys = &*candidate;
  } else {
    ++stats_.epoch_rejects;
    return std::nullopt;
  }

  const auto tag = frame_mac(recv_keys(*keys).mac, msg);
  if (!crypto::constant_time_equal(msg.mac, tag)) {
    ++stats_.mac_rejects;
    return std::nullopt;
  }
  if (candidate.has_value()) {
    // The frame authenticated under the candidate epoch: adopt it. Only
    // now — a forged epoch number alone must not move the schedule.
    previous_ = std::move(current_);
    previous_expires_ms_ = now_ms + policy_.grace_ms;
    secret_ = std::move(next_secret);
    current_ = std::move(*candidate);
    last_rekey_ms_ = now_ms;
    ++stats_.rekeys;
    ++stats_.fast_forwards;
    keys = &current_;
  }
  const DirectionKeys& rx = recv_keys(*keys);

  // Decrypt straight from the frame: the ciphertext follows the 4-byte
  // epoch prefix read above.
  const auto cipher = std::span<const std::uint8_t>(msg.payload).subspan(4);
  Plaintext plain(cipher.size());
  crypto::Aes128(rx.enc).ctr_crypt(cipher, rx.nonce_base ^ msg.nonce, plain);
  ++stats_.opened;
  if (grace) ++stats_.grace_opens;
  return plain;
}

RekeyTimer::RekeyTimer(SimClock& clock, KeySchedule& schedule)
    : clock_(clock), schedule_(schedule) {}

RekeyTimer::~RekeyTimer() { stop(); }

void RekeyTimer::start() {
  if (running_) return;
  running_ = true;
  arm(schedule_.policy().rekey_interval_ms);
}

void RekeyTimer::stop() {
  running_ = false;
  clock_.cancel(pending_);
}

void RekeyTimer::arm(double delay_ms) {
  pending_ = clock_.schedule(delay_ms, [this] {
    if (!running_) return;
    const double now = clock_.now_ms();
    if (schedule_.rekey_due(now)) {
      schedule_.rekey(now);
      arm(schedule_.policy().rekey_interval_ms);
    } else {
      // The peer fast-forwarded us since the last firing; re-arm for the
      // remainder of the current epoch's interval instead of rekeying
      // early (which would race the peer one epoch ahead).
      arm(schedule_.last_rekey_ms() + schedule_.policy().rekey_interval_ms -
          now);
    }
  });
}

ConfirmReport run_key_confirmation(SimClock& clock, UnreliableChannel& link,
                                   KeySchedule& initiator,
                                   KeySchedule& responder,
                                   std::size_t max_transmissions,
                                   std::uint64_t nonce_base) {
  using Endpoint = UnreliableChannel::Endpoint;
  VKEY_REQUIRE(max_transmissions >= 1, "need at least one transmission");

  // The round trip in one object: every handler and timer captures only a
  // pointer to it, which std::function stores inline.
  struct Round {
    SimClock& clock;
    UnreliableChannel& link;
    const KeySchedule& initiator;
    const KeySchedule& responder;
    std::size_t max_transmissions;
    std::uint64_t nonce_base;
    std::size_t transmissions = 0;
    std::uint64_t ack_nonce = 0;
    bool done = false;
    double done_at = 0.0;

    // Retransmit on a timeout of ~2 RTT plus slack for reordering and
    // duplicate echoes. All virtual time, so the choice only affects how
    // much simulated air the retries consume. The round trip is this
    // confirm and the ack it elicits, whose frame has the confirm's size
    // but for its own nonce's varint.
    void transmit() {
      if (done || transmissions >= max_transmissions) return;
      ++transmissions;
      const Message confirm =
          initiator.make_confirm(nonce_base + transmissions);
      Message ack = confirm;
      ack.nonce = ack_nonce;
      const double rtt_ms =
          link.nominal_latency_ms(confirm) + link.nominal_latency_ms(ack);
      link.send(Endpoint::kAlice, confirm);
      clock.schedule(2.0 * rtt_ms + kReorderWindowMs + 100.0,
                     [this] { transmit(); });
    }
    // The responder is stateless: every authentic confirm earns a fresh
    // ack, so a lost ack heals on the initiator's next retransmission.
    void at_responder(const Message& msg) {
      if (msg.type == MessageType::kKeyConfirm &&
          responder.verify_confirm(msg)) {
        link.send(Endpoint::kBob, responder.make_confirm(ack_nonce++));
      }
    }
    void at_initiator(const Message& msg) {
      if (!done && msg.type == MessageType::kKeyConfirmAck &&
          initiator.verify_confirm(msg)) {
        done = true;
        done_at = clock.now_ms();
      }
    }
  } round{clock, link, initiator, responder, max_transmissions, nonce_base};
  const double t0 = clock.now_ms();
  round.done_at = t0;
  round.ack_nonce = nonce_base + 500'000;

  link.set_handler(Endpoint::kBob,
                   [&round](const Message& msg) { round.at_responder(msg); });
  link.set_handler(Endpoint::kAlice,
                   [&round](const Message& msg) { round.at_initiator(msg); });

  round.transmit();
  clock.run_until_idle();

  // The handlers capture locals of this frame; leave inert ones behind so a
  // stale delivery scheduled by the caller later cannot touch dead stack.
  link.set_handler(Endpoint::kAlice, [](const Message&) {});
  link.set_handler(Endpoint::kBob, [](const Message&) {});

  ConfirmReport report;
  report.confirmed = round.done;
  report.transmissions = round.transmissions;
  report.duration_ms = (round.done ? round.done_at : clock.now_ms()) - t0;
  return report;
}

}  // namespace vkey::protocol
