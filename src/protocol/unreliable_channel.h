// Fault-injecting decorator over PublicChannel.
//
// Real SX127x links drop, duplicate, reorder and corrupt frames, and every
// frame occupies the air for a duration given by the LoRa PHY timing
// formulas. UnreliableChannel models all of that on top of the existing
// PublicChannel (which holds the attacker's interceptor hook): each send()
// passes through the base channel's transmit() first — so Eve sees every
// frame as sent, and MITM interception is unchanged — and is then
// subjected to a seeded fault model before being delivered to the far
// endpoint through the SimClock:
//
//   * drop:        frame lost with probability drop_prob;
//   * corruption:  1..3 random bit flips in the *packed wire frame*
//                  (protocol/wire.h) with probability corrupt_prob; a frame
//                  the codec rejects counts as lost, with the typed
//                  WireError recorded in the flight recorder — the frame
//                  CRC32 catches almost all damage, the protocol MAC
//                  catches the rest;
//   * latency:     time-on-air of the packed wire frame (channel::LoRaPhy
//                  prices it from its byte count) plus a fixed 5 ms
//                  processing delay;
//   * reordering:  extra uniform delay in [0, kReorderWindowMs] with
//                  probability reorder_prob, letting later frames overtake;
//   * duplication: a second copy delivered 150 ms later with
//                  probability dup_prob.
//
// Frame ownership: send() copies the frame into a slot of the link's slot
// table, and the slot owns it until its last delivery has run; the handler
// reads it there as a `const Message&`, valid for the call. A delivery
// event captures only the link and a packed (slot, endpoint) word, so it
// fits std::function's inline storage. The first kInlineSlots slots live
// inside the link (enough for every frame an agreement or a confirmation
// holds in flight at once) and an agreement frame lives inside its slot,
// so a link moves frames without allocating; a burst beyond those slots
// takes one heap slot each, kept for the link's life. The corruption path
// encodes the frame into a FrameBytes on the stack and moves the decoded
// frame into its slot. A slot is free once its deliveries have run; a
// delivery counts until its handler returns, so a handler that sends never
// gets its own slot back.
//
// A link serves one exchange. When its clock is cleared under it, the
// slots of the dropped deliveries stay busy for the rest of the link's
// life (nothing reads those frames again); an owner that runs exchanges
// back to back builds a fresh link for each.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "channel/lora_phy.h"
#include "common/rng.h"
#include "protocol/channel.h"
#include "protocol/sim_clock.h"

namespace vkey::protocol {

class FlightRecorder;

/// Max extra delay [ms] of a reordered frame.
inline constexpr double kReorderWindowMs = 400.0;

/// Seeded fault model parameters (probabilities in [0, 1]).
struct FaultConfig {
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  double corrupt_prob = 0.0;
  double reorder_prob = 0.0;
  std::uint64_t seed = 1;
};

struct LinkStats {
  std::size_t sent = 0;       ///< frames handed to the link
  std::size_t bytes_sent = 0;  ///< packed wire bytes put on the air (v2
                               ///< frames, retransmissions and acks included)
  std::size_t delivered = 0;  ///< frames that reached the far endpoint
  std::size_t dropped = 0;    ///< lost to the drop fault
  std::size_t corrupted = 0;  ///< frames with injected bit errors
  std::size_t crc_lost = 0;   ///< corrupted frames the wire codec rejected
  std::size_t duplicated = 0;
  std::size_t reordered = 0;
};

/// A two-endpoint lossy link for one exchange. Endpoint 0 is Alice's radio,
/// endpoint 1 Bob's; send(from, msg) delivers to the opposite endpoint's
/// handler via the virtual clock. Deliveries capture the link: its owner
/// clears the clock before the link goes.
class UnreliableChannel {
 public:
  enum class Endpoint : int { kAlice = 0, kBob = 1 };
  using Handler = std::function<void(const Message&)>;

  UnreliableChannel(SimClock& clock, PublicChannel& base,
                    const FaultConfig& faults,
                    const channel::LoRaParams& radio);
  UnreliableChannel(const UnreliableChannel&) = delete;
  UnreliableChannel& operator=(const UnreliableChannel&) = delete;

  /// The handler runs inside a delivery event. It may send, but must not
  /// replace its own endpoint's handler while it runs.
  void set_handler(Endpoint endpoint, Handler handler);

  /// Attach a flight recorder: every tx/rx and every injected fault is
  /// logged with the frame's type and nonce. Pass nullptr to detach. The
  /// recorder must outlive every later send and delivery (the supervisor
  /// owns both for one attempt).
  void set_recorder(FlightRecorder* recorder) { recorder_ = recorder; }
  /// The attached recorder (nullptr when detached); the transports on the
  /// link's ends log their ARQ events to it too.
  FlightRecorder* recorder() const { return recorder_; }

  void send(Endpoint from, const Message& msg);

  /// One-way delivery latency [ms] excluding fault-induced extra delay:
  /// the time-on-air of `msg`'s packed frame on the configured radio plus
  /// the processing delay.
  double nominal_latency_ms(const Message& msg) const;

  const LinkStats& stats() const { return stats_; }

 private:
  struct Slot {
    Message msg;
    int deliveries = 0;  ///< scheduled deliveries still to run
  };

  /// Slots inside the link; more come from the heap, one at a time.
  static constexpr std::size_t kInlineSlots = 8;

  /// Index of a free slot, adding one when every slot holds a frame.
  std::size_t acquire_slot();
  Slot& slot_at(std::size_t i);
  void deliver(Endpoint to, std::size_t slot, double delay_ms);
  void on_delivery(std::uint64_t ref);

  SimClock& clock_;
  PublicChannel& base_;
  FaultConfig faults_;
  channel::LoRaParams radio_;
  vkey::Rng rng_;
  Handler handlers_[2];
  LinkStats stats_;
  FlightRecorder* recorder_ = nullptr;
  /// In-flight frames: slot i is inline_slots_[i], then extra_slots_. A
  /// slot never moves, so it stays put while a handler reads it and sends
  /// (which may add slots).
  std::array<Slot, kInlineSlots> inline_slots_{};
  std::vector<std::unique_ptr<Slot>> extra_slots_;
  std::size_t slot_count_ = 0;  ///< slots handed out so far
};

/// "alice" / "bob": the endpoint's actor name in flight-recorder timelines.
std::string to_string(UnreliableChannel::Endpoint endpoint);

}  // namespace vkey::protocol
