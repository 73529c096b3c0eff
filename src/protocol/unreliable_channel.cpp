#include "protocol/unreliable_channel.h"

#include <optional>
#include <utility>

#include "common/error.h"
#include "common/metrics.h"
#include "protocol/flight_recorder.h"
#include "protocol/message.h"
#include "protocol/wire.h"

namespace vkey::protocol {

namespace {

// Echo delay of a duplicated frame, and rx chain latency on top of airtime.
constexpr double kDupDelayMs = 150.0;
constexpr double kProcessingDelayMs = 5.0;

/// One-way latency [ms] of a frame `phy` prices: its time on air plus the
/// rx chain's processing delay.
double latency_ms(const channel::LoRaPhy& phy) {
  return phy.airtime() * 1000.0 + kProcessingDelayMs;
}

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

double UnreliableChannel::nominal_latency_ms(const Message& msg) const {
  // The radio carries the packed v2 frame, not the in-memory serialization;
  // airtime (and therefore every ARQ timeout) follows the frame size.
  return latency_ms(channel::LoRaPhy(radio_, wire::frame_size(msg)));
}

UnreliableChannel::Slot& UnreliableChannel::slot_at(std::size_t i) {
  return i < kInlineSlots ? inline_slots_[i] : *extra_slots_[i - kInlineSlots];
}

std::size_t UnreliableChannel::acquire_slot() {
  for (std::size_t i = 0; i < slot_count_; ++i) {
    if (slot_at(i).deliveries == 0) return i;
  }
  if (slot_count_ >= kInlineSlots) {
    // Room for as many again as live inline: the pointers take one block.
    if (extra_slots_.empty()) extra_slots_.reserve(kInlineSlots);
    extra_slots_.push_back(std::make_unique<Slot>());
  }
  return slot_count_++;
}

void UnreliableChannel::deliver(Endpoint to, std::size_t slot,
                                double delay_ms) {
  VKEY_REQUIRE(static_cast<bool>(handlers_[static_cast<int>(to)]),
               "endpoint handler not installed");
  ++slot_at(slot).deliveries;
  // Slot and endpoint in one word: with `this`, two words of capture.
  const std::uint64_t ref = (std::uint64_t{slot} << 1) |
                            static_cast<std::uint64_t>(to);
  clock_.schedule(delay_ms, [this, ref] { on_delivery(ref); });
}

void UnreliableChannel::on_delivery(std::uint64_t ref) {
  const auto to = static_cast<Endpoint>(ref & 1u);
  Slot& slot = slot_at(ref >> 1);
  ++stats_.delivered;
  if (recorder_ != nullptr) {
    recorder_->record(FlightEventKind::kFrameRx, to_string(to),
                      to_string(slot.msg.type), slot.msg.session_id,
                      slot.msg.nonce);
  }
  // The frame is the handler's until it returns: this delivery still
  // counts, so a handler that sends never gets this slot back.
  handlers_[static_cast<int>(to)](slot.msg);
  --slot.deliveries;
}

void UnreliableChannel::send(Endpoint from, const Message& msg) {
  // The packed v2 frame goes on the air, and its size prices it. Its bytes
  // and airtime are spent whether or not it survives the channel; the bytes
  // are what "steady-state bytes/session" in the gateway report measures.
  const std::size_t frame_bytes = wire::frame_size(msg);
  const channel::LoRaPhy phy(radio_, frame_bytes);
  ++stats_.sent;
  stats_.bytes_sent += frame_bytes;
  metrics::counter<"link.sent">().add(1);
  if (recorder_ != nullptr) {
    recorder_->record(FlightEventKind::kFrameTx, to_string(from),
                      to_string(msg.type), msg.session_id, msg.nonce);
  }
  phy.account_airtime(channel::AirtimeUse::kWire);
  const Endpoint to =
      from == Endpoint::kAlice ? Endpoint::kBob : Endpoint::kAlice;

  // The frame's slot owns it from here until its deliveries have run.
  const std::size_t slot = acquire_slot();
  Message& in_flight = slot_at(slot).msg;
  in_flight = msg;
  // Through the base channel first: an installed interceptor sees the
  // frame as sent (Eve's view) and may rewrite or drop it (MITM).
  if (!base_.transmit(in_flight)) return;  // intercepted and dropped

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
    wire::FrameBytes bytes = wire::encode_frame(in_flight);
    const int flips = 1 + static_cast<int>(rng_.uniform_int(3));
    for (int f = 0; f < flips; ++f) {
      bytes[rng_.uniform_int(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng_.uniform_int(8));
    }
    ++stats_.corrupted;
    metrics::counter<"link.corrupted">().add(1);
    wire::WireError err = wire::WireError::kNone;
    std::optional<Message> decoded = wire::decode_frame(bytes, &err);
    if (!decoded) {
      ++stats_.crc_lost;  // the radio discards the damaged frame
      metrics::counter<"link.crc_lost">().add(1);
      if (recorder_ != nullptr) {
        FlightDetail detail;
        detail << wire::to_string(err) << " on " << to_string(msg.type)
               << " flips=" << static_cast<std::uint64_t>(flips);
        recorder_->record(FlightEventKind::kWireReject, "link", detail,
                          msg.session_id, msg.nonce);
      }
      return;
    }
    in_flight = std::move(*decoded);
    if (recorder_ != nullptr) {
      FlightDetail detail;
      detail << to_string(msg.type) << " flips="
             << static_cast<std::uint64_t>(flips);
      recorder_->record(FlightEventKind::kCorrupt, "link", detail,
                        msg.session_id, msg.nonce);
    }
  }

  double delay = latency_ms(phy);
  if (rng_.bernoulli(faults_.reorder_prob)) {
    ++stats_.reordered;
    metrics::counter<"link.reordered">().add(1);
    const double extra = rng_.uniform(0.0, kReorderWindowMs);
    delay += extra;
    if (recorder_ != nullptr) {
      FlightDetail detail;
      (detail << to_string(msg.type) << " extra_ms=").number(extra);
      recorder_->record(FlightEventKind::kReorder, "link", detail,
                        msg.session_id, msg.nonce);
    }
  }
  deliver(to, slot, delay);

  if (rng_.bernoulli(faults_.dup_prob)) {
    ++stats_.duplicated;
    metrics::counter<"link.duplicated">().add(1);
    if (recorder_ != nullptr) {
      recorder_->record(FlightEventKind::kDuplicate, "link",
                        to_string(msg.type), msg.session_id, msg.nonce);
    }
    deliver(to, slot, delay + kDupDelayMs);
  }
}

}  // namespace vkey::protocol
