#include "protocol/session.h"

#include <algorithm>
#include <span>
#include <string_view>
#include <utility>

#include "channel/lora_phy.h"
#include "common/error.h"
#include "crypto/secret_buffer.h"
#include "crypto/sha256.h"
#include "protocol/flight_recorder.h"
#include "protocol/wire.h"

namespace vkey::protocol {

// The syndrome frame, the largest an agreement sends, fits one LoRa packet.
static_assert(wire::kHeaderBytes + core::kSyndromeBytes +
                      crypto::Sha256::kDigestSize + wire::kCrcBytes <=
                  channel::kMaxLoRaPayloadBytes,
              "the syndrome frame outgrows a LoRa packet");

namespace {

/// The syndrome MAC: frame_mac() keyed by the packed bytes of `key`, staged
/// in a stack block that is wiped as soon as the MAC has absorbed it.
std::array<std::uint8_t, 32> syndrome_mac(const BitVec& key,
                                          const Message& msg) {
  std::array<std::uint8_t, kMaxRawKeyBits / 8> key_bytes{};
  const auto packed = std::span(key_bytes).first((key.size() + 7) / 8);
  key.pack_bytes(0, packed);
  const auto tag = frame_mac(packed, msg);
  crypto::secure_wipe(key_bytes);
  return tag;
}

// The names to_string() returns, as views: flight notes format them in
// place, and a name past std::string's short-string size would allocate.
std::string_view name(SessionState s) {
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

std::string_view name(RejectReason r) {
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

}  // namespace

std::string to_string(SessionState s) { return std::string(name(s)); }

std::string to_string(RejectReason r) { return std::string(name(r)); }

// --------------------------------------------------------------- InboundGuard

const InboundGuard::Entry* InboundGuard::find(std::uint64_t nonce) const {
  const auto accepted = std::span(processed_).first(accepted_);
  const auto it =
      std::find_if(accepted.begin(), accepted.end(),
                   [nonce](const Entry& e) { return e.inbound.nonce == nonce; });
  return it == accepted.end() ? nullptr : &*it;
}

InboundGuard::Verdict InboundGuard::classify(const Message& msg) const {
  if (const Entry* e = find(msg.nonce)) {
    return e->inbound == msg ? Verdict::kDuplicate : Verdict::kReplay;
  }
  if (saw_any_nonce_ && msg.nonce <= highest_nonce_) return Verdict::kReplay;
  return Verdict::kFresh;
}

void InboundGuard::accept(const Message& msg,
                          const std::optional<Message>& response) {
  VKEY_REQUIRE(accepted_ < kMaxAcceptedFrames,
               "a session accepts at most three frames");
  highest_nonce_ = saw_any_nonce_ ? std::max(highest_nonce_, msg.nonce)
                                  : msg.nonce;
  saw_any_nonce_ = true;
  Entry& e = processed_[accepted_++];
  e.inbound = msg;
  e.response = response;
}

std::optional<Message> InboundGuard::response_for(std::uint64_t nonce) const {
  const Entry* e = find(nonce);
  return e != nullptr ? e->response : std::nullopt;
}

// ------------------------------------------------------------ SessionEndpoint

SessionEndpoint::SessionEndpoint(const SessionConfig& config,
                                 const core::SyndromeCode& reconciler,
                                 BitVec raw_key)
    : cfg_(config),
      reconciler_(reconciler),
      key_(std::move(raw_key)),
      amplifier_(kFinalKeyBits) {
  VKEY_REQUIRE(key_.size() == reconciler.key_bits(),
               "session key width must match the reconciler");
  VKEY_REQUIRE(key_.size() <= kMaxRawKeyBits,
               "session key wider than one HMAC block");
}

SessionEndpoint::~SessionEndpoint() {
  crypto::secure_wipe(amplified_key_);
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
        response = dispatch(msg);  // nullopt when refused
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
  return BitVec::from_bytes(amplified_key_, kFinalKeyBits);
}

bool SessionEndpoint::agrees_with(const SessionEndpoint& peer) const {
  return state_ == SessionState::kEstablished &&
         peer.state_ == SessionState::kEstablished &&
         crypto::constant_time_equal(amplified_key_, peer.amplified_key_);
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

void SessionEndpoint::fix_final_key() {
  amplifier_.amplify_into(key_, cfg_.session_id, amplified_key_);
}

std::array<std::uint8_t, 32> SessionEndpoint::confirm_digest(
    char role) const {
  crypto::Sha256 h;
  h.update(amplified_key_);
  std::array<std::uint8_t, 9> tail{};  // be64 session || role
  wire::FrameWriter w(tail);
  w.put_u64(cfg_.session_id);
  w.put_u8(static_cast<std::uint8_t>(role));
  h.update(tail);
  return h.finalize();
}

// One kReject per rejected frame (reason + offending message type) and one
// kStateChange per transition, e.g. "await-syndrome->failed".
void SessionEndpoint::note(SessionState before, RejectReason reason,
                           const Message& msg) const {
  if (recorder_ == nullptr) return;
  if (reason != RejectReason::kNone) {
    FlightDetail detail;
    detail << name(reason) << " on " << to_string(msg.type);
    recorder_->record(FlightEventKind::kReject, actor_, detail,
                      msg.session_id, msg.nonce);
  }
  if (state_ != before) {
    FlightDetail detail;
    detail << name(before) << "->" << name(state_);
    recorder_->record(FlightEventKind::kStateChange, actor_, detail,
                      msg.session_id, msg.nonce);
  }
}

// ---------------------------------------------------------------- BobSession

BobSession::BobSession(const SessionConfig& config,
                       const core::SyndromeCode& reconciler,
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
      fix_final_key();
      if (!crypto::constant_time_equal(msg.payload, confirm_digest('A'))) {
        return fail(RejectReason::kConfirmMismatch);
      }
      state_ = SessionState::kEstablished;
      Message ack = next_frame(MessageType::kKeyConfirmAck);
      const auto digest = confirm_digest('B');
      ack.payload.assign(digest);
      return ack;
    }
    default:
      return reject(RejectReason::kBadState);
  }
}

Message BobSession::make_syndrome() {
  Message msg = next_frame(MessageType::kSyndrome);
  msg.payload.resize(core::kSyndromeBytes);
  reconciler_.syndrome(key_, msg.payload);
  const auto tag = syndrome_mac(key_, msg);
  msg.mac.assign(tag);
  return msg;
}

// -------------------------------------------------------------- AliceSession

AliceSession::AliceSession(const SessionConfig& config,
                           const core::SyndromeCode& reconciler,
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
      std::optional<BitVec> corrected = reconciler_.correct(key_, msg.payload);
      if (!corrected) return reject(RejectReason::kMalformed);
      key_ = std::move(*corrected);
      // MAC check: verifies only when the corrected key equals K_Bob, so an
      // in-flight modification (MITM) or a failed correction aborts here.
      if (!crypto::constant_time_equal(msg.mac, syndrome_mac(key_, msg))) {
        return fail(RejectReason::kMacMismatch);
      }
      fix_final_key();
      state_ = SessionState::kAwaitConfirmAck;
      Message confirm = next_frame(MessageType::kKeyConfirm);
      const auto digest = confirm_digest('A');
      confirm.payload.assign(digest);
      return confirm;
    }
    case MessageType::kKeyConfirmAck:
      if (state_ != SessionState::kAwaitConfirmAck) {
        return reject(RejectReason::kBadState);
      }
      if (!crypto::constant_time_equal(msg.payload, confirm_digest('B'))) {
        return fail(RejectReason::kConfirmMismatch);
      }
      state_ = SessionState::kEstablished;
      return std::nullopt;
    default:
      return reject(RejectReason::kBadState);
  }
}

}  // namespace vkey::protocol
