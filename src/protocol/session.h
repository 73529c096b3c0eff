// Alice/Bob key-agreement session state machines.
//
// Sequence (after channel probing has produced each side's raw key bits):
//   Alice -> Bob : KeyGenRequest(session, nonce)
//   Bob   -> Alice: KeyGenAccept(session, nonce+1)
//   Bob   -> Alice: Syndrome { y_Bob, MAC(K_Bob, header||y_Bob) }
//   Alice        : reconcile; MAC verifies only if her corrected key equals
//                  Bob's (MITM modification or a failed correction aborts)
//   Alice -> Bob : KeyConfirm { H(final || session || "A") }
//   Bob   -> Alice: KeyConfirmAck { H(final || session || "B") }
// Replay defense: both sides track the highest nonce seen per session and
// reject non-increasing nonces or mismatched session ids (Sec. IV-C).
//
// After confirmation both sides hold the privacy-amplified 128-bit session
// key; KeySchedule (key_schedule.h) derives the directional AES-128-CTR +
// HMAC traffic keys from it.
//
// Frame ownership: a session reads inbound frames where the link holds
// them and copies an accepted one, with the response it elicited, into its
// duplicate cache — a fixed table of three entries inside the session (a
// session accepts at most three frames, and a fourth is refused). handle()
// returns a copy of the response, and an agreement frame lives inside its
// Message, so accepting, re-eliciting and suppressing frames allocates
// nothing. The syndrome MAC key, its tag and the confirmation digests live
// in fixed arrays; key bytes are wiped after use. Each side
// privacy-amplifies its key once, when the key is final, into wiped
// storage that the digests and final_key() read.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/bitvec.h"
#include "core/privacy.h"
#include "core/reconciler.h"
#include "protocol/message.h"

namespace vkey::protocol {

class FlightRecorder;

enum class SessionState : std::uint8_t {
  kIdle,
  kAwaitAccept,
  kAwaitSyndrome,
  kAwaitConfirm,
  kAwaitConfirmAck,
  kEstablished,
  kFailed,
};

/// Why a message was rejected (for diagnostics and the attack benches).
enum class RejectReason : std::uint8_t {
  kNone,
  kBadSession,
  kReplayedNonce,
  kMacMismatch,
  kBadState,
  kMalformed,
  kConfirmMismatch,
  /// Bit-identical retransmission of an already-accepted frame. Benign ARQ
  /// behaviour (the prior response is re-elicited), kept distinct from
  /// kReplayedNonce so retransmit suppression is distinguishable from attack.
  kDuplicate,
};

std::string to_string(SessionState s);
std::string to_string(RejectReason r);

/// Width of the established session key: the privacy amplifier's output,
/// the secret KeySchedule derives traffic keys from.
inline constexpr std::size_t kFinalKeyBits = 128;

/// Widest raw key a session takes: its packed bytes key the syndrome MAC
/// from one HMAC block on the stack.
inline constexpr std::size_t kMaxRawKeyBits = 512;

struct SessionConfig {
  std::uint64_t session_id = 1;
};

/// Shared inbound-envelope bookkeeping for both session roles: the replay
/// window (Sec. IV-C), the duplicate cache that makes retransmission
/// idempotent, and the per-session robustness counters.
class InboundGuard {
 public:
  enum class Verdict : std::uint8_t {
    kFresh,      ///< never-seen nonce: process normally
    kDuplicate,  ///< bit-identical retransmission of an accepted frame
    kReplay,     ///< old or reused nonce with different content (attack)
  };

  Verdict classify(const Message& msg) const;

  /// Remember a copy of an accepted frame and of the response it elicited,
  /// and advance the replay window. Rejected frames are deliberately *not*
  /// recorded so an out-of-order frame can still be accepted when
  /// retransmitted later.
  void accept(const Message& msg, const std::optional<Message>& response);

  /// A copy of the response originally elicited by the frame with this
  /// nonce (nullopt when it produced none, or the nonce was never
  /// accepted).
  std::optional<Message> response_for(std::uint64_t nonce) const;

  void count_duplicate() { ++duplicates_suppressed_; }
  void count_reject() { ++rejects_; }

  std::size_t duplicates_suppressed() const { return duplicates_suppressed_; }
  std::size_t rejects() const { return rejects_; }

 private:
  struct Entry {
    Message inbound;
    std::optional<Message> response;
  };
  /// A session accepts at most three frames (Alice: accept, syndrome,
  /// confirm-ack; Bob: request, confirm): the duplicate cache's size.
  static constexpr std::size_t kMaxAcceptedFrames = 3;

  const Entry* find(std::uint64_t nonce) const;

  /// Accepted frames, one per nonce: processed_[0, accepted_).
  std::array<Entry, kMaxAcceptedFrames> processed_{};
  std::size_t accepted_ = 0;
  std::uint64_t highest_nonce_ = 0;
  bool saw_any_nonce_ = false;
  std::size_t duplicates_suppressed_ = 0;
  std::size_t rejects_ = 0;
};

/// The endpoint core both roles share: one inbound envelope (session-id
/// check, InboundGuard verdict, duplicate re-elicitation, replay reject,
/// nonce advance, accept-or-count and the flight note), the session state
/// and the key material. A role adds dispatch(), its handler for fresh
/// in-session frames, and the frames it originates.
class SessionEndpoint {
 public:
  /// Feed an inbound message. Returns the response to transmit, if any: a
  /// copy of the one the duplicate cache keeps for the frame.
  std::optional<Message> handle(const Message& msg);

  /// A frame the session publishes on its own rather than in response:
  /// Bob's syndrome, queued when he accepts the request. Each is handed out
  /// once; send it right after the response to the frame that queued it.
  std::optional<Message> take_unprompted();

  /// Attach a flight recorder; state transitions and InboundGuard
  /// rejections are logged under the side's name, "alice" or "bob". Pass
  /// nullptr to detach.
  void set_recorder(FlightRecorder* recorder) { recorder_ = recorder; }

  SessionState state() const { return state_; }
  RejectReason last_reject() const { return last_reject_; }
  const SessionConfig& config() const { return cfg_; }

  /// Robustness counters (suppressed retransmissions / rejected frames).
  std::size_t duplicates_suppressed() const {
    return guard_.duplicates_suppressed();
  }
  std::size_t rejected_count() const { return guard_.rejects(); }

  /// Final kFinalKeyBits-wide key; valid once state() == kEstablished.
  BitVec final_key() const;

  /// True when both sides are established with the same final key
  /// (compared in constant time, without materializing either key).
  bool agrees_with(const SessionEndpoint& peer) const;

 protected:
  /// `raw_key` is this side's quantized key material (reconciler.key_bits()
  /// wide, at most kMaxRawKeyBits); `actor` names the side in flight
  /// timelines.
  SessionEndpoint(const SessionConfig& config,
                  const core::SyndromeCode& reconciler, BitVec raw_key,
                  std::string_view actor);
  ~SessionEndpoint();
  SessionEndpoint(const SessionEndpoint&) = delete;
  SessionEndpoint& operator=(const SessionEndpoint&) = delete;

  /// Handle a fresh in-session frame. Refuse it through reject() or fail().
  virtual std::optional<Message> dispatch(const Message& msg) = 0;

  /// Refuse the frame being dispatched with `reason`; returns nullopt, the
  /// response a refused frame gets.
  std::nullopt_t reject(RejectReason reason);
  /// reject(), and the session fails: it cannot recover.
  std::nullopt_t fail(RejectReason reason);

  /// The next outbound frame of `type` in this session.
  Message next_frame(MessageType type);

  /// Privacy-amplify key_ into the final key once, when this side's key is
  /// final: Bob when the confirm arrives, Alice once the syndrome MAC
  /// verifies.
  void fix_final_key();

  /// The digest a confirmation frame carries for `role` ('A' or 'B'):
  /// SHA-256(final key || be64 session || role), after fix_final_key().
  std::array<std::uint8_t, 32> confirm_digest(char role) const;

  /// Log a transition and/or rejection to the attached recorder.
  void note(SessionState before, RejectReason reason,
            const Message& msg) const;

  SessionConfig cfg_;
  const core::SyndromeCode& reconciler_;
  /// The side's key: its raw key, which Alice replaces with her reconciled
  /// key when the syndrome arrives.
  BitVec key_;
  SessionState state_ = SessionState::kIdle;
  std::optional<Message> unprompted_;  ///< see take_unprompted()

 private:
  core::PrivacyAmplifier amplifier_;
  /// The final key's packed bytes once fix_final_key() ran; wiped on
  /// destruction.
  std::array<std::uint8_t, kFinalKeyBits / 8> amplified_key_{};
  RejectReason last_reject_ = RejectReason::kNone;
  std::uint64_t next_nonce_ = 0;
  InboundGuard guard_;
  FlightRecorder* recorder_ = nullptr;
  std::string_view actor_;
};

class BobSession final : public SessionEndpoint {
 public:
  BobSession(const SessionConfig& config,
             const core::SyndromeCode& reconciler, BitVec raw_key);

 private:
  std::optional<Message> dispatch(const Message& msg) override;

  /// The syndrome message { y_Bob, MAC(K_Bob, header||y_Bob) }.
  Message make_syndrome();
};

class AliceSession final : public SessionEndpoint {
 public:
  AliceSession(const SessionConfig& config,
               const core::SyndromeCode& reconciler, BitVec raw_key);

  /// Kick off the exchange.
  Message start();

 private:
  std::optional<Message> dispatch(const Message& msg) override;
};

}  // namespace vkey::protocol
