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

void ReliableTransport::arm_timer(std::uint64_t nonce) {
  auto& entry = inflight_.at(nonce);
  const double backoff = arq_backoff_delay_ms(entry.attempt, rng_);
  metrics::histogram<"arq.backoff_ms">().observe(backoff);
  const double timeout =
      link_.nominal_latency_ms(entry.msg) + ack_latency_ms_ + backoff;
  if (FlightRecorder* rec = link_.recorder()) {
    rec->record(FlightEventKind::kBackoff, to_string(endpoint_),
                "attempt=" + std::to_string(entry.attempt) +
                    " delay_ms=" + json::format_number(timeout),
                entry.msg.session_id, nonce);
  }
  entry.timer = clock_.schedule(timeout, [this, nonce] { on_timeout(nonce); });
}

void ReliableTransport::on_timeout(std::uint64_t nonce) {
  const auto it = inflight_.find(nonce);
  if (it == inflight_.end()) return;  // acked while the event was queued
  if (it->second.attempt >= kMaxRetries) {
    ++stats_.gave_up;
    metrics::counter<"arq.gave_up">().add(1);
    if (FlightRecorder* rec = link_.recorder()) {
      rec->record(FlightEventKind::kGaveUp, to_string(endpoint_),
                  to_string(it->second.msg.type) + " after " +
                      std::to_string(kMaxRetries) + " retries",
                  it->second.msg.session_id, nonce);
    }
    exhausted_ = true;
    inflight_.erase(it);
    return;
  }
  ++it->second.attempt;
  ++stats_.retransmissions;
  metrics::counter<"arq.timeouts">().add(1);
  metrics::counter<"arq.retransmissions">().add(1);
  if (FlightRecorder* rec = link_.recorder()) {
    rec->record(FlightEventKind::kRetransmit, to_string(endpoint_),
                "timeout attempt=" + std::to_string(it->second.attempt),
                it->second.msg.session_id, nonce);
  }
  link_.send(endpoint_, it->second.msg);
  arm_timer(nonce);
}

void ReliableTransport::send(const Message& msg) {
  VKEY_REQUIRE(msg.type != MessageType::kAck,
               "acks are transport-internal; send() takes protocol frames");
  if (completed_.count(msg.nonce) > 0) return;  // peer already acked it
  const auto it = inflight_.find(msg.nonce);
  if (it != inflight_.end()) {
    // Fast retransmit: the session re-elicited this response because the
    // peer asked again, so don't wait for the timer.
    ++stats_.retransmissions;
    metrics::counter<"arq.retransmissions">().add(1);
    if (FlightRecorder* rec = link_.recorder()) {
      rec->record(FlightEventKind::kRetransmit, to_string(endpoint_), "fast",
                  it->second.msg.session_id, msg.nonce);
    }
    link_.send(endpoint_, it->second.msg);
    return;
  }
  inflight_[msg.nonce] = Pending{msg, 0, 0};
  ++stats_.data_sent;
  metrics::counter<"arq.data_sent">().add(1);
  link_.send(endpoint_, msg);
  arm_timer(msg.nonce);
}

void ReliableTransport::on_wire(const Message& msg) {
  if (msg.type == MessageType::kAck) {
    const auto it = inflight_.find(msg.nonce);
    if (it == inflight_.end()) {
      ++stats_.stale_acks;
      if (FlightRecorder* rec = link_.recorder()) {
        rec->record(FlightEventKind::kStaleAck, to_string(endpoint_), {},
                    msg.session_id, msg.nonce);
      }
      return;
    }
    clock_.cancel(it->second.timer);
    completed_.insert(msg.nonce);
    inflight_.erase(it);
    ++stats_.acks_received;
    metrics::counter<"arq.acks_received">().add(1);
    if (FlightRecorder* rec = link_.recorder()) {
      rec->record(FlightEventKind::kAckRx, to_string(endpoint_), {},
                  msg.session_id, msg.nonce);
    }
    return;
  }

  auto response = session_.handle(msg);
  if (auto unprompted = session_.take_unprompted()) {
    // A frame the session publishes on its own (Bob's syndrome once he
    // accepts) goes out one event later, after the response sent below.
    clock_.schedule(0.0, [this, frame = std::move(*unprompted)] {
      send(frame);
    });
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
  if (response.has_value()) send(*response);
}

}  // namespace vkey::protocol
