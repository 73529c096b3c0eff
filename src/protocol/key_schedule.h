// Session key schedule: HKDF extract/expand over the privacy-amplified
// secret, key confirmation as a wire-frame round trip, and scheduled
// rekeying on virtual time.
//
// The paper's protocol (Sec. IV) ends at privacy amplification: both
// parties hold one 128-bit secret. A deployable link needs more — keys age
// out mid-drive, and one symmetric secret must never be used raw for both
// directions and both purposes. This module finishes the lifecycle:
//
//   amplified secret (epoch 0)
//        | HKDF-Extract(salt = "vkey/wire/v1" || be64(session) || be32(epoch))
//        v
//       PRK ── HKDF-Expand ──> "vkey v1 a2b enc"   (16 B, AES-128-CTR A->B)
//         ├──────────────────> "vkey v1 a2b mac"   (32 B, HMAC-SHA256 A->B)
//         ├──────────────────> "vkey v1 a2b nonce" ( 8 B, CTR nonce base)
//         ├──────────────────> "vkey v1 b2a enc" / "b2a mac" / "b2a nonce"
//         ├──────────────────> "vkey v1 confirm"   (32 B, confirmation key)
//         └──────────────────> "vkey v1 ratchet"   (32 B, epoch e+1 secret)
//
// Directional keys make reflected traffic self-evidently bogus; per-epoch
// extraction with the epoch in the salt cryptographically separates
// generations; the ratchet discards the old secret at each rekey, so a
// compromise of epoch e keys does not unwind earlier epochs. The labels and
// the salt prefix are constexpr byte strings, the salt a 24-byte array, and
// every PRK, HKDF output and ratchet secret fits a SecretBuffer's inline
// storage, so building a schedule, deriving an epoch and rekeying allocate
// nothing; a rekey moves the outgoing epoch into the grace slot rather than
// copying it.
//
// Key confirmation is an explicit frame round trip over the wire codec: the
// initiator sends a kKeyConfirm frame tagged with HMAC(confirm_key,
// transcript || role), the responder verifies and answers kKeyConfirmAck
// under its own role tag. Both tags bind the epoch, session id and frame
// header, so confirming proves live possession of this epoch's schedule —
// not a replay of an earlier one. Every tag (confirm, seal, open) is
// frame_mac() over the frame's fixed header array and its payload span
// (message.h), so a MAC assembles no input; open() checks a frame's MAC
// once and decrypts straight from the frame into inline storage.
//
// Rekeying is driven by virtual time (RekeyTimer on the SimClock — wall
// clocks are banned in library code). Old-epoch keys stay valid for a
// configurable grace window so frames sealed just before a rekey still
// authenticate just after it; a peer that rekeys first is caught up with by
// one epoch (fast-forward) after its frame authenticates under the
// candidate keys, never before.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "channel/lora_phy.h"
#include "common/bitvec.h"
#include "crypto/secret_buffer.h"
#include "crypto/sha256.h"
#include "protocol/message.h"
#include "protocol/sim_clock.h"
#include "protocol/wire.h"

namespace vkey::protocol {

class UnreliableChannel;

/// One direction's traffic keys for one epoch. All key material lives in
/// zeroizing SecretBuffers (crypto/secret_buffer.h): wiped on destruction,
/// unstreamable, unserializable — the secret-flow analyzer audits the few
/// expose() sites instead of every use.
struct DirectionKeys {
  crypto::SecretBuffer enc;  ///< 16-byte AES-128-CTR key
  crypto::SecretBuffer mac;  ///< 32-byte HMAC-SHA256 key
  std::uint64_t nonce_base = 0;  ///< CTR nonce domain separator
};

/// Everything one epoch derives from its secret.
struct EpochKeys {
  std::uint32_t epoch = 0;
  DirectionKeys a2b;             ///< initiator -> responder
  DirectionKeys b2a;             ///< responder -> initiator
  crypto::SecretBuffer confirm;  ///< 32-byte key-confirmation key
};

/// Derive the full key set of one epoch from its secret (the HKDF label
/// schedule in the header comment). Deterministic: both parties derive
/// identical keys from the agreed secret.
EpochKeys derive_epoch_keys(std::span<const std::uint8_t> secret,
                            std::uint64_t session_id, std::uint32_t epoch);
inline EpochKeys derive_epoch_keys(const crypto::SecretBuffer& secret,
                                   std::uint64_t session_id,
                                   std::uint32_t epoch) {
  return derive_epoch_keys(secret.expose(), session_id, epoch);
}

/// The ratchet: epoch `next_epoch`'s secret from its predecessor's. One-way
/// (HKDF), so discarding the old secret gives forward secrecy across
/// rekeys.
crypto::SecretBuffer ratchet_secret(std::span<const std::uint8_t> secret,
                                    std::uint64_t session_id,
                                    std::uint32_t next_epoch);
inline crypto::SecretBuffer ratchet_secret(const crypto::SecretBuffer& secret,
                                           std::uint64_t session_id,
                                           std::uint32_t next_epoch) {
  return ratchet_secret(secret.expose(), session_id, next_epoch);
}

/// Full key lifecycle state of one endpoint after establishment.
class KeySchedule {
 public:
  enum class Role : std::uint8_t { kInitiator, kResponder };

  struct Policy {
    double rekey_interval_ms = 60'000.0;  ///< scheduled rekey period
    double grace_ms = 2'000.0;  ///< old-epoch acceptance window after rekey
  };

  struct Stats {
    std::size_t rekeys = 0;         ///< epochs advanced (incl. fast-forwards)
    std::size_t fast_forwards = 0;  ///< advances triggered by the peer
    std::size_t sealed = 0;
    std::size_t opened = 0;         ///< frames authenticated and decrypted
    std::size_t grace_opens = 0;    ///< opened under the previous epoch
    std::size_t epoch_rejects = 0;  ///< epoch outside current-1..current+1
    std::size_t mac_rejects = 0;    ///< authentication failures
    std::size_t malformed = 0;      ///< missing/short epoch prefix etc.
  };

  /// `amplified_secret` is the established 128-bit key (session.h). Both
  /// parties must agree on `session_id`; `role` picks the send direction.
  KeySchedule(const BitVec& amplified_secret, std::uint64_t session_id,
              Role role);
  KeySchedule(const BitVec& amplified_secret, std::uint64_t session_id,
              Role role, Policy policy);

  std::uint32_t epoch() const noexcept { return current_.epoch; }
  const EpochKeys& keys() const noexcept { return current_; }
  const Policy& policy() const noexcept { return policy_; }
  const Stats& stats() const noexcept { return stats_; }

  /// True once the scheduled interval has elapsed since the last advance.
  bool rekey_due(double now_ms) const noexcept;

  /// Virtual time of the last epoch advance (0 until the first rekey).
  double last_rekey_ms() const noexcept { return last_rekey_ms_; }

  /// Advance one epoch: ratchet the secret, re-derive keys, keep the old
  /// epoch openable until now + grace_ms.
  void rekey(double now_ms);

  // -------------------------------------------------- key confirmation
  // The initiator's tag rides a kKeyConfirm frame, the responder's a
  // kKeyConfirmAck; each tag is HMAC(confirm_key, header || be32(epoch) ||
  // role byte), so neither side can reflect the other's tag back.

  Message make_confirm(std::uint64_t nonce) const;
  /// Verify the *peer's* confirmation frame for the current epoch.
  bool verify_confirm(const Message& msg) const;

  // ---------------------------------------------------- data protection

  /// The most plaintext seal() takes: its frame (header, epoch, ciphertext,
  /// HMAC-SHA256 tag and CRC) then fits one LoRa packet whatever its
  /// session id and nonce, and fills one exactly when both take the
  /// longest varint.
  static constexpr std::size_t kMaxPlaintextBytes =
      channel::kMaxLoRaPayloadBytes - wire::kMaxHeaderBytes - 4 -
      crypto::Sha256::kDigestSize - wire::kCrcBytes;

  /// Seal plaintext into a kData frame under the current epoch's send
  /// direction: payload = be32(epoch) || AES-128-CTR ciphertext, MAC over
  /// the full header+payload. Throws on more than kMaxPlaintextBytes.
  Message seal(std::uint64_t nonce, const std::vector<std::uint8_t>& plain);

  /// An opened frame's plaintext: inline up to kInlinePayloadBytes, like
  /// the frame's payload, so opening a frame that size allocates nothing.
  using Plaintext = SmallBuffer<std::uint8_t, kInlinePayloadBytes>;

  /// Authenticate and decrypt. Routes by the epoch prefix: current epoch,
  /// previous epoch within the grace window, or — when the peer rekeyed
  /// first — the next epoch, adopted only after the frame authenticates
  /// under the candidate keys (a forged epoch number cannot wedge the
  /// schedule). Returns nullopt on any reject, counted in stats().
  std::optional<Plaintext> open(const Message& msg, double now_ms);

 private:
  const DirectionKeys& send_keys(const EpochKeys& e) const noexcept {
    return role_ == Role::kInitiator ? e.a2b : e.b2a;
  }
  const DirectionKeys& recv_keys(const EpochKeys& e) const noexcept {
    return role_ == Role::kInitiator ? e.b2a : e.a2b;
  }

  std::uint64_t session_id_;
  Role role_;
  Policy policy_;
  crypto::SecretBuffer secret_;  ///< current epoch's secret (zeroizing)
  EpochKeys current_;
  std::optional<EpochKeys> previous_;
  double previous_expires_ms_ = 0.0;
  double last_rekey_ms_ = 0.0;
  Stats stats_;
};

/// Scheduled re-establishment on virtual time: arms a SimClock event every
/// rekey_interval_ms; each firing advances the schedule unless the peer
/// already fast-forwarded it, in which case the timer just re-arms for the
/// remainder.
class RekeyTimer {
 public:
  RekeyTimer(SimClock& clock, KeySchedule& schedule);
  ~RekeyTimer();

  RekeyTimer(const RekeyTimer&) = delete;
  RekeyTimer& operator=(const RekeyTimer&) = delete;

  void start();
  void stop();

 private:
  void arm(double delay_ms);

  SimClock& clock_;
  KeySchedule& schedule_;
  SimClock::EventId pending_ = 0;
  bool running_ = false;
};

/// Outcome of driving the confirmation round trip over a lossy link.
struct ConfirmReport {
  bool confirmed = false;       ///< initiator verified the responder's tag
  std::size_t transmissions = 0;  ///< confirm frames the initiator sent
  double duration_ms = 0.0;     ///< virtual time the round trip consumed
};

/// Key confirmation as a frame round trip over the (faulty) link: the
/// initiator's confirm is retransmitted on a simple timeout until the
/// responder's ack authenticates or `max_transmissions` is exhausted. The
/// responder answers every valid confirm (retransmitted acks are how a
/// lost ack heals). Installs its own link handlers; callers re-install
/// theirs afterwards.
ConfirmReport run_key_confirmation(SimClock& clock, UnreliableChannel& link,
                                   KeySchedule& initiator,
                                   KeySchedule& responder,
                                   std::size_t max_transmissions = 8,
                                   std::uint64_t nonce_base = 1'000'000);

}  // namespace vkey::protocol
