#include "protocol/reliable_transport.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <utility>

#include "common/error.h"
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

ReliableTransport::Tracked* ReliableTransport::find(std::uint64_t nonce) {
  const auto in_use = std::span(frames_).first(tracked_);
  const auto it =
      std::find_if(in_use.begin(), in_use.end(),
                   [nonce](const Tracked& t) { return t.msg.nonce == nonce; });
  return it == in_use.end() ? nullptr : &*it;
}

void ReliableTransport::arm_timer(Tracked& entry) {
  const double backoff = arq_backoff_delay_ms(entry.attempt, rng_);
  metrics::histogram<"arq.backoff_ms">().observe(backoff);
  const double timeout =
      link_.nominal_latency_ms(entry.msg) + ack_latency_ms_ + backoff;
  const std::uint64_t nonce = entry.msg.nonce;
  if (FlightRecorder* rec = link_.recorder()) {
    FlightDetail detail;
    (detail << "attempt=" << entry.attempt << " delay_ms=").number(timeout);
    rec->record(FlightEventKind::kBackoff, to_string(endpoint_), detail,
                entry.msg.session_id, nonce);
  }
  entry.timer = clock_.schedule(timeout, [this, nonce] { on_timeout(nonce); });
}

void ReliableTransport::on_timeout(std::uint64_t nonce) {
  Tracked* const entry = find(nonce);
  if (entry == nullptr || entry->acked) return;  // acked while queued
  if (entry->attempt >= kMaxRetries) {
    ++stats_.gave_up;
    metrics::counter<"arq.gave_up">().add(1);
    if (FlightRecorder* rec = link_.recorder()) {
      FlightDetail detail;
      detail << to_string(entry->msg.type) << " after " << kMaxRetries
             << " retries";
      rec->record(FlightEventKind::kGaveUp, to_string(endpoint_), detail,
                  entry->msg.session_id, nonce);
    }
    exhausted_ = true;
    // Untrack it: later frames move up one entry.
    const auto at = frames_.begin() + (entry - &frames_[0]);
    std::move(at + 1, frames_.begin() + tracked_, at);
    --tracked_;
    return;
  }
  ++entry->attempt;
  ++stats_.retransmissions;
  metrics::counter<"arq.timeouts">().add(1);
  metrics::counter<"arq.retransmissions">().add(1);
  if (FlightRecorder* rec = link_.recorder()) {
    FlightDetail detail;
    detail << "timeout attempt=" << entry->attempt;
    rec->record(FlightEventKind::kRetransmit, to_string(endpoint_), detail,
                entry->msg.session_id, nonce);
  }
  link_.send(endpoint_, entry->msg);
  arm_timer(*entry);
}

void ReliableTransport::send(Message msg) {
  if (!resend(msg)) track(std::move(msg));
}

bool ReliableTransport::resend(const Message& msg) {
  VKEY_REQUIRE(msg.type != MessageType::kAck,
               "acks are transport-internal; send() takes protocol frames");
  const Tracked* const entry = find(msg.nonce);
  if (entry == nullptr) return false;
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
  VKEY_REQUIRE(tracked_ < kMaxTrackedFrames,
               "a session publishes at most three distinct frames");
  Tracked& entry = frames_[tracked_++];
  entry = Tracked{std::move(msg)};
  ++stats_.data_sent;
  metrics::counter<"arq.data_sent">().add(1);
  link_.send(endpoint_, entry.msg);
  arm_timer(entry);
}

void ReliableTransport::on_wire(const Message& msg) {
  if (msg.type == MessageType::kAck) {
    Tracked* const entry = find(msg.nonce);
    if (entry == nullptr || entry->acked) {
      ++stats_.stale_acks;
      if (FlightRecorder* rec = link_.recorder()) {
        rec->record(FlightEventKind::kStaleAck, to_string(endpoint_), "",
                    msg.session_id, msg.nonce);
      }
      return;
    }
    clock_.cancel(entry->timer);
    entry->acked = true;
    ++stats_.acks_received;
    metrics::counter<"arq.acks_received">().add(1);
    if (FlightRecorder* rec = link_.recorder()) {
      rec->record(FlightEventKind::kAckRx, to_string(endpoint_), "",
                  msg.session_id, msg.nonce);
    }
    return;
  }

  std::optional<Message> response = session_.handle(msg);
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
      FlightDetail detail;
      detail << "for " << to_string(msg.type);
      rec->record(FlightEventKind::kAckTx, to_string(endpoint_), detail,
                  msg.session_id, msg.nonce);
    }
  }
  if (response) send(std::move(*response));
}

}  // namespace vkey::protocol
