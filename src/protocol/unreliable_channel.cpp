#include "protocol/unreliable_channel.h"

#include "common/error.h"
#include "common/json.h"
#include "common/metrics.h"
#include "protocol/flight_recorder.h"
#include "protocol/message.h"
#include "protocol/wire.h"

namespace vkey::protocol {

namespace {

// Echo delay of a duplicated frame, and rx chain latency on top of airtime.
constexpr double kDupDelayMs = 150.0;
constexpr double kProcessingDelayMs = 5.0;

}  // namespace

std::string to_string(UnreliableChannel::Endpoint endpoint) {
  return endpoint == UnreliableChannel::Endpoint::kAlice ? "alice" : "bob";
}

UnreliableChannel::UnreliableChannel(SimClock& clock, PublicChannel& base,
                                     const FaultConfig& faults,
                                     const channel::LoRaParams& radio)
    : clock_(clock),
      base_(base),
      faults_(faults),
      radio_(radio),
      rng_(faults.seed) {
  VKEY_REQUIRE(faults.drop_prob >= 0.0 && faults.drop_prob < 1.0,
               "drop probability must be in [0, 1)");
  VKEY_REQUIRE(faults.dup_prob >= 0.0 && faults.dup_prob <= 1.0 &&
                   faults.corrupt_prob >= 0.0 && faults.corrupt_prob <= 1.0 &&
                   faults.reorder_prob >= 0.0 && faults.reorder_prob <= 1.0,
               "fault probabilities must be in [0, 1]");
}

void UnreliableChannel::set_handler(Endpoint endpoint, Handler handler) {
  handlers_[static_cast<int>(endpoint)] = std::move(handler);
}

double UnreliableChannel::airtime_ms(const Message& msg) const {
  channel::LoRaParams p = radio_;
  // The radio carries the packed v1 frame, not the in-memory serialization;
  // airtime (and therefore every ARQ timeout) follows the frame size.
  p.payload_bytes = static_cast<int>(wire::frame_size(msg));
  return channel::LoRaPhy(p).airtime() * 1000.0;
}

double UnreliableChannel::nominal_latency_ms(const Message& msg) const {
  return airtime_ms(msg) + kProcessingDelayMs;
}

void UnreliableChannel::deliver(Endpoint to, const Message& msg,
                                double delay_ms) {
  Handler& handler = handlers_[static_cast<int>(to)];
  VKEY_REQUIRE(static_cast<bool>(handler), "endpoint handler not installed");
  clock_.schedule(delay_ms, [this, to, msg] {
    ++stats_.delivered;
    if (recorder_ != nullptr) {
      recorder_->record(FlightEventKind::kFrameRx, to_string(to),
                        to_string(msg.type), msg.session_id, msg.nonce);
    }
    handlers_[static_cast<int>(to)](msg);
  });
}

void UnreliableChannel::send(Endpoint from, const Message& msg) {
  ++stats_.sent;
  // Transmit cost in wire bytes: spent whether or not the frame survives
  // the channel. This is what "steady-state bytes/session" in the gateway
  // report measures.
  stats_.bytes_sent += wire::frame_size(msg);
  metrics::counter<"link.sent">().add(1);
  if (recorder_ != nullptr) {
    recorder_->record(FlightEventKind::kFrameTx, to_string(from),
                      to_string(msg.type), msg.session_id, msg.nonce);
  }
  if (metrics::enabled()) {
    // Airtime is spent by the transmitter whether or not the frame
    // survives the channel.
    channel::LoRaParams p = radio_;
    p.payload_bytes = static_cast<int>(wire::frame_size(msg));
    channel::LoRaPhy(p).account_airtime(channel::AirtimeUse::kWire);
  }
  const Endpoint to =
      from == Endpoint::kAlice ? Endpoint::kBob : Endpoint::kAlice;

  // Through the base channel first: keeps the eavesdropper transcript and
  // lets an installed MITM interceptor rewrite or drop the frame.
  auto in_flight = base_.transmit(msg);
  if (!in_flight.has_value()) return;  // intercepted and dropped

  if (rng_.bernoulli(faults_.drop_prob)) {
    ++stats_.dropped;
    metrics::counter<"link.dropped">().add(1);
    if (recorder_ != nullptr) {
      recorder_->record(FlightEventKind::kDrop, "link", to_string(msg.type),
                        msg.session_id, msg.nonce);
    }
    return;
  }

  if (rng_.bernoulli(faults_.corrupt_prob)) {
    // Corruption happens to the *serialized frame* — the actual bytes on
    // the air — so the frame CRC catches almost all damage (typed reject,
    // frame lost like a radio CRC drop) and the rare CRC-colliding flip
    // must still get past the protocol-layer MAC.
    auto bytes = wire::encode_frame(*in_flight);
    const int flips = 1 + static_cast<int>(rng_.uniform_int(3));
    for (int f = 0; f < flips; ++f) {
      bytes[rng_.uniform_int(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng_.uniform_int(8));
    }
    ++stats_.corrupted;
    metrics::counter<"link.corrupted">().add(1);
    wire::WireError err = wire::WireError::kNone;
    auto reparsed = wire::decode_frame(bytes, &err);
    if (!reparsed.has_value()) {
      ++stats_.crc_lost;  // the radio discards the damaged frame
      metrics::counter<"link.crc_lost">().add(1);
      if (recorder_ != nullptr) {
        recorder_->record(FlightEventKind::kWireReject, "link",
                          wire::to_string(err) + " on " + to_string(msg.type) +
                              " flips=" + std::to_string(flips),
                          msg.session_id, msg.nonce);
      }
      return;
    }
    if (recorder_ != nullptr) {
      recorder_->record(FlightEventKind::kCorrupt, "link",
                        to_string(msg.type) + " flips=" +
                            std::to_string(flips),
                        msg.session_id, msg.nonce);
    }
    in_flight = std::move(reparsed);
  }

  double delay = nominal_latency_ms(msg);
  if (rng_.bernoulli(faults_.reorder_prob)) {
    ++stats_.reordered;
    metrics::counter<"link.reordered">().add(1);
    const double extra = rng_.uniform(0.0, kReorderWindowMs);
    delay += extra;
    if (recorder_ != nullptr) {
      recorder_->record(FlightEventKind::kReorder, "link",
                        to_string(msg.type) + " extra_ms=" +
                            json::format_number(extra),
                        msg.session_id, msg.nonce);
    }
  }
  deliver(to, *in_flight, delay);

  if (rng_.bernoulli(faults_.dup_prob)) {
    ++stats_.duplicated;
    metrics::counter<"link.duplicated">().add(1);
    if (recorder_ != nullptr) {
      recorder_->record(FlightEventKind::kDuplicate, "link",
                        to_string(msg.type), msg.session_id, msg.nonce);
    }
    deliver(to, *in_flight, delay + kDupDelayMs);
  }
}

}  // namespace vkey::protocol
