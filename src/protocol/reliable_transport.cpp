#include "protocol/reliable_transport.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/json.h"
#include "common/metrics.h"
#include "protocol/flight_recorder.h"
#include "protocol/session.h"

namespace vkey::protocol {

namespace {

/// A session publishes at most three distinct frames (Bob: accept,
/// syndrome, confirm-ack): the frame table's size.
constexpr std::size_t kMaxTrackedFrames = 3;

/// The kAck frame acknowledging `msg`: same (session, nonce), no payload.
Message ack_for(const Message& msg) {
  Message ack;
  ack.type = MessageType::kAck;
  ack.session_id = msg.session_id;
  ack.nonce = msg.nonce;
  return ack;
}

}  // namespace

double arq_backoff_delay_ms(std::size_t attempt, vkey::Rng& rng) {
  const double ceiling =
      std::min(kMaxBackoffMs,
               kBaseBackoffMs *
                   std::pow(kBackoffFactor, static_cast<double>(attempt)));
  const double hi = std::max(kBaseBackoffMs, ceiling);
  return rng.uniform(kBaseBackoffMs, hi);
}

ReliableTransport::ReliableTransport(SimClock& clock, const ArqConfig& config,
                                     UnreliableChannel& link,
                                     UnreliableChannel::Endpoint endpoint,
                                     SessionEndpoint& session)
    : clock_(clock),
      link_(link),
      endpoint_(endpoint),
      session_(session),
      ack_latency_ms_(link.nominal_latency_ms(ack_for(Message{}))),
      rng_(config.seed) {
  link_.set_handler(endpoint_, [this](const Message& m) { on_wire(m); });
}

std::vector<ReliableTransport::Tracked>::iterator ReliableTransport::find(
    std::uint64_t nonce) {
  return std::find_if(frames_.begin(), frames_.end(),
                      [nonce](const Tracked& t) { return t.msg.nonce == nonce; });
}

void ReliableTransport::arm_timer(Tracked& entry) {
  const double backoff = arq_backoff_delay_ms(entry.attempt, rng_);
  metrics::histogram<"arq.backoff_ms">().observe(backoff);
  const double timeout =
      link_.nominal_latency_ms(entry.msg) + ack_latency_ms_ + backoff;
  const std::uint64_t nonce = entry.msg.nonce;
  if (FlightRecorder* rec = link_.recorder()) {
    rec->record(FlightEventKind::kBackoff, to_string(endpoint_),
                "attempt=" + std::to_string(entry.attempt) +
                    " delay_ms=" + json::format_number(timeout),
                entry.msg.session_id, nonce);
  }
  entry.timer = clock_.schedule(timeout, [this, nonce] { on_timeout(nonce); });
}

void ReliableTransport::on_timeout(std::uint64_t nonce) {
  const auto entry = find(nonce);
  if (entry == frames_.end() || entry->acked) return;  // acked while queued
  if (entry->attempt >= kMaxRetries) {
    ++stats_.gave_up;
    metrics::counter<"arq.gave_up">().add(1);
    if (FlightRecorder* rec = link_.recorder()) {
      rec->record(FlightEventKind::kGaveUp, to_string(endpoint_),
                  to_string(entry->msg.type) + " after " +
                      std::to_string(kMaxRetries) + " retries",
                  entry->msg.session_id, nonce);
    }
    exhausted_ = true;
    frames_.erase(entry);
    return;
  }
  ++entry->attempt;
  ++stats_.retransmissions;
  metrics::counter<"arq.timeouts">().add(1);
  metrics::counter<"arq.retransmissions">().add(1);
  if (FlightRecorder* rec = link_.recorder()) {
    rec->record(FlightEventKind::kRetransmit, to_string(endpoint_),
                "timeout attempt=" + std::to_string(entry->attempt),
                entry->msg.session_id, nonce);
  }
  link_.send(endpoint_, entry->msg);
  arm_timer(*entry);
}

void ReliableTransport::send(const Message& msg) {
  if (!resend(msg)) track(msg);
}

void ReliableTransport::send(Message&& msg) {
  if (!resend(msg)) track(std::move(msg));
}

bool ReliableTransport::resend(const Message& msg) {
  VKEY_REQUIRE(msg.type != MessageType::kAck,
               "acks are transport-internal; send() takes protocol frames");
  const auto entry = find(msg.nonce);
  if (entry == frames_.end()) return false;
  if (entry->acked) return true;  // peer already acked it
  // Fast retransmit: the session re-elicited this response because the
  // peer asked again, so don't wait for the timer.
  ++stats_.retransmissions;
  metrics::counter<"arq.retransmissions">().add(1);
  if (FlightRecorder* rec = link_.recorder()) {
    rec->record(FlightEventKind::kRetransmit, to_string(endpoint_), "fast",
                entry->msg.session_id, msg.nonce);
  }
  link_.send(endpoint_, entry->msg);
  return true;
}

void ReliableTransport::track(Message msg) {
  if (frames_.empty()) frames_.reserve(kMaxTrackedFrames);
  Tracked& entry = frames_.emplace_back();
  entry.msg = std::move(msg);
  ++stats_.data_sent;
  metrics::counter<"arq.data_sent">().add(1);
  link_.send(endpoint_, entry.msg);
  arm_timer(entry);
}

void ReliableTransport::on_wire(const Message& msg) {
  if (msg.type == MessageType::kAck) {
    const auto entry = find(msg.nonce);
    if (entry == frames_.end() || entry->acked) {
      ++stats_.stale_acks;
      if (FlightRecorder* rec = link_.recorder()) {
        rec->record(FlightEventKind::kStaleAck, to_string(endpoint_), {},
                    msg.session_id, msg.nonce);
      }
      return;
    }
    clock_.cancel(entry->timer);
    entry->acked = true;
    ++stats_.acks_received;
    metrics::counter<"arq.acks_received">().add(1);
    if (FlightRecorder* rec = link_.recorder()) {
      rec->record(FlightEventKind::kAckRx, to_string(endpoint_), {},
                  msg.session_id, msg.nonce);
    }
    return;
  }

  const Message* response = session_.respond(msg);
  if (auto unprompted = session_.take_unprompted()) {
    // A frame the session publishes on its own (Bob's syndrome once he
    // accepts) goes out one event later, after the response sent below.
    unprompted_ = std::move(*unprompted);
    clock_.schedule(0.0, [this] { send(std::move(unprompted_)); });
  }
  // Gated ACK: only frames the session accepted or recognized as benign
  // duplicates; a state-rejected frame waits for its retransmission.
  const RejectReason verdict = session_.last_reject();
  if (verdict == RejectReason::kNone || verdict == RejectReason::kDuplicate) {
    link_.send(endpoint_, ack_for(msg));
    ++stats_.acks_sent;
    metrics::counter<"arq.acks_sent">().add(1);
    if (FlightRecorder* rec = link_.recorder()) {
      rec->record(FlightEventKind::kAckTx, to_string(endpoint_),
                  "for " + to_string(msg.type), msg.session_id, msg.nonce);
    }
  }
  if (response != nullptr) send(*response);
}

}  // namespace vkey::protocol
