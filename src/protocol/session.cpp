#include "protocol/session.h"

#include <utility>

#include "common/error.h"
#include "crypto/hmac.h"
#include "crypto/secret_buffer.h"
#include "crypto/sha256.h"
#include "protocol/flight_recorder.h"

namespace vkey::protocol {

namespace {

std::vector<std::uint8_t> hmac_of(const BitVec& key, const Message& msg) {
  // The serialized key bytes are a transient secret; wipe them as soon as
  // the compression function has absorbed them. The tag itself is public
  // (it rides the frame).
  auto key_bytes = key.to_bytes();
  auto tag = crypto::hmac_sha256(std::span<const std::uint8_t>(key_bytes),
                                 mac_input(msg));
  crypto::secure_wipe(key_bytes);
  return {tag.begin(), tag.end()};
}

std::vector<std::uint8_t> confirm_digest(const BitVec& final_key,
                                         std::uint64_t session_id,
                                         const char* role) {
  crypto::Sha256 h;
  auto kb = final_key.to_bytes();
  h.update(kb);
  crypto::secure_wipe(kb);
  std::uint8_t sid[8];
  for (int i = 0; i < 8; ++i) {
    sid[i] = static_cast<std::uint8_t>(session_id >> (56 - 8 * i));
  }
  h.update(sid, sizeof(sid));
  const std::uint8_t role_byte = static_cast<std::uint8_t>(role[0]);
  h.update(&role_byte, 1);
  const auto d = h.finalize();
  return {d.begin(), d.end()};
}

}  // namespace

std::string to_string(SessionState s) {
  switch (s) {
    case SessionState::kIdle: return "idle";
    case SessionState::kAwaitAccept: return "await-accept";
    case SessionState::kAwaitSyndrome: return "await-syndrome";
    case SessionState::kAwaitConfirm: return "await-confirm";
    case SessionState::kAwaitConfirmAck: return "await-confirm-ack";
    case SessionState::kEstablished: return "established";
    case SessionState::kFailed: return "failed";
  }
  return "?";
}

std::string to_string(RejectReason r) {
  switch (r) {
    case RejectReason::kNone: return "none";
    case RejectReason::kBadSession: return "bad-session";
    case RejectReason::kReplayedNonce: return "replayed-nonce";
    case RejectReason::kMacMismatch: return "mac-mismatch";
    case RejectReason::kBadState: return "bad-state";
    case RejectReason::kMalformed: return "malformed";
    case RejectReason::kConfirmMismatch: return "confirm-mismatch";
    case RejectReason::kDuplicate: return "duplicate";
  }
  return "?";
}

// --------------------------------------------------------------- InboundGuard

InboundGuard::Verdict InboundGuard::classify(const Message& msg) const {
  const auto it = processed_.find(msg.nonce);
  if (it != processed_.end()) {
    return it->second.inbound == msg ? Verdict::kDuplicate : Verdict::kReplay;
  }
  if (saw_any_nonce_ && msg.nonce <= highest_nonce_) return Verdict::kReplay;
  return Verdict::kFresh;
}

void InboundGuard::accept(const Message& msg,
                          const std::optional<Message>& response) {
  highest_nonce_ = saw_any_nonce_ ? std::max(highest_nonce_, msg.nonce)
                                  : msg.nonce;
  saw_any_nonce_ = true;
  processed_[msg.nonce] = Entry{msg, response};
}

std::optional<Message> InboundGuard::response_for(std::uint64_t nonce) const {
  const auto it = processed_.find(nonce);
  if (it == processed_.end()) return std::nullopt;
  return it->second.response;
}

// ------------------------------------------------------------ SessionEndpoint

SessionEndpoint::SessionEndpoint(const SessionConfig& config,
                                 const core::AutoencoderReconciler& reconciler,
                                 BitVec raw_key)
    : cfg_(config),
      reconciler_(reconciler),
      key_(std::move(raw_key)),
      amplifier_(kFinalKeyBits) {
  VKEY_REQUIRE(key_.size() == reconciler.config().key_bits,
               "session key width must match the reconciler");
}

std::optional<Message> SessionEndpoint::handle(const Message& msg) {
  const SessionState before = state_;
  last_reject_ = RejectReason::kNone;
  std::optional<Message> response;
  if (msg.session_id != cfg_.session_id) {
    last_reject_ = RejectReason::kBadSession;
    guard_.count_reject();
  } else {
    switch (guard_.classify(msg)) {
      case InboundGuard::Verdict::kDuplicate:
        // ARQ retransmission: the peer did not see our response, so
        // re-elicit the original one instead of tripping the replay defense.
        last_reject_ = RejectReason::kDuplicate;
        guard_.count_duplicate();
        response = guard_.response_for(msg.nonce);
        break;
      case InboundGuard::Verdict::kReplay:
        last_reject_ = RejectReason::kReplayedNonce;
        guard_.count_reject();
        break;
      case InboundGuard::Verdict::kFresh:
        next_nonce_ = std::max(next_nonce_, msg.nonce + 1);
        response = dispatch(msg);
        if (last_reject_ == RejectReason::kNone) {
          guard_.accept(msg, response);
        } else {
          guard_.count_reject();
        }
        break;
    }
  }
  note(before, last_reject_, msg);
  return response;
}

std::optional<Message> SessionEndpoint::take_unprompted() {
  return std::exchange(unprompted_, std::nullopt);
}

void SessionEndpoint::set_recorder(FlightRecorder* recorder,
                                   std::string actor) {
  recorder_ = recorder;
  actor_ = std::move(actor);
}

BitVec SessionEndpoint::final_key() const {
  VKEY_REQUIRE(state_ == SessionState::kEstablished,
               "session not established");
  return amplified_key();
}

std::nullopt_t SessionEndpoint::reject(RejectReason reason) {
  last_reject_ = reason;
  return std::nullopt;
}

std::nullopt_t SessionEndpoint::fail(RejectReason reason) {
  state_ = SessionState::kFailed;
  return reject(reason);
}

Message SessionEndpoint::next_frame(MessageType type) {
  Message msg;
  msg.type = type;
  msg.session_id = cfg_.session_id;
  msg.nonce = next_nonce_++;
  return msg;
}

BitVec SessionEndpoint::amplified_key() const {
  return amplifier_.amplify(key_, cfg_.session_id);
}

// One kReject per rejected frame (reason + offending message type) and one
// kStateChange per transition, e.g. "await-syndrome->failed".
void SessionEndpoint::note(SessionState before, RejectReason reason,
                           const Message& msg) const {
  if (recorder_ == nullptr) return;
  if (reason != RejectReason::kNone) {
    recorder_->record(FlightEventKind::kReject, actor_,
                      to_string(reason) + " on " + to_string(msg.type),
                      msg.session_id, msg.nonce);
  }
  if (state_ != before) {
    recorder_->record(FlightEventKind::kStateChange, actor_,
                      to_string(before) + "->" + to_string(state_),
                      msg.session_id, msg.nonce);
  }
}

// ---------------------------------------------------------------- BobSession

BobSession::BobSession(const SessionConfig& config,
                       const core::AutoencoderReconciler& reconciler,
                       BitVec raw_key)
    : SessionEndpoint(config, reconciler, std::move(raw_key)) {}

std::optional<Message> BobSession::dispatch(const Message& msg) {
  switch (msg.type) {
    case MessageType::kKeyGenRequest: {
      if (state_ != SessionState::kIdle) {
        return reject(RejectReason::kBadState);
      }
      // Accept, and publish y_Bob + MAC right after the accept.
      state_ = SessionState::kAwaitConfirm;
      Message accept = next_frame(MessageType::kKeyGenAccept);
      unprompted_ = make_syndrome();
      return accept;
    }
    case MessageType::kKeyConfirm: {
      if (state_ != SessionState::kAwaitConfirm) {
        return reject(RejectReason::kBadState);
      }
      const BitVec key = amplified_key();
      if (!crypto::constant_time_equal(
              msg.payload, confirm_digest(key, cfg_.session_id, "A"))) {
        return fail(RejectReason::kConfirmMismatch);
      }
      state_ = SessionState::kEstablished;
      Message ack = next_frame(MessageType::kKeyConfirmAck);
      ack.payload = confirm_digest(key, cfg_.session_id, "B");
      return ack;
    }
    default:
      return reject(RejectReason::kBadState);
  }
}

Message BobSession::make_syndrome() {
  Message msg = next_frame(MessageType::kSyndrome);
  msg.payload = pack_doubles(reconciler_.encode_bob(key_));
  msg.mac = hmac_of(key_, msg);
  return msg;
}

// -------------------------------------------------------------- AliceSession

AliceSession::AliceSession(const SessionConfig& config,
                           const core::AutoencoderReconciler& reconciler,
                           BitVec raw_key)
    : SessionEndpoint(config, reconciler, std::move(raw_key)) {}

Message AliceSession::start() {
  VKEY_REQUIRE(state_ == SessionState::kIdle, "session already started");
  Message req = next_frame(MessageType::kKeyGenRequest);
  state_ = SessionState::kAwaitAccept;
  note(SessionState::kIdle, RejectReason::kNone, req);
  return req;
}

std::optional<Message> AliceSession::dispatch(const Message& msg) {
  switch (msg.type) {
    case MessageType::kKeyGenAccept:
      if (state_ != SessionState::kAwaitAccept) {
        return reject(RejectReason::kBadState);
      }
      state_ = SessionState::kAwaitSyndrome;
      return std::nullopt;  // Bob sends the syndrome unprompted
    case MessageType::kSyndrome: {
      if (state_ != SessionState::kAwaitSyndrome) {
        return reject(RejectReason::kBadState);
      }
      std::vector<double> y_bob;
      try {
        y_bob = unpack_doubles(msg.payload);
      } catch (const vkey::Error&) {
        return reject(RejectReason::kMalformed);
      }
      if (y_bob.size() != core::kCodeDim) {
        return reject(RejectReason::kMalformed);
      }
      key_ = reconciler_.reconcile(key_, y_bob);
      // MAC check: verifies only when the corrected key equals K_Bob, so an
      // in-flight modification (MITM) or a failed correction aborts here.
      if (!crypto::constant_time_equal(msg.mac, hmac_of(key_, msg))) {
        return fail(RejectReason::kMacMismatch);
      }
      state_ = SessionState::kAwaitConfirmAck;
      Message confirm = next_frame(MessageType::kKeyConfirm);
      confirm.payload = confirm_digest(amplified_key(), cfg_.session_id, "A");
      return confirm;
    }
    case MessageType::kKeyConfirmAck:
      if (state_ != SessionState::kAwaitConfirmAck) {
        return reject(RejectReason::kBadState);
      }
      if (!crypto::constant_time_equal(
              msg.payload,
              confirm_digest(amplified_key(), cfg_.session_id, "B"))) {
        return fail(RejectReason::kConfirmMismatch);
      }
      state_ = SessionState::kEstablished;
      return std::nullopt;
    default:
      return reject(RejectReason::kBadState);
  }
}

}  // namespace vkey::protocol
