// ARQ transport: per-message ACKs, timeouts, bounded retransmission with
// exponential backoff + decorrelated jitter.
//
// A transport drives one session over its end of an UnreliableChannel: it
// installs that end's link handler, hands every inbound protocol frame to
// SessionEndpoint::handle() and sends the response reliably, and sends the
// frames the session publishes unprompted (Bob's syndrome) one event later.
//
// Each protocol frame a party sends is tracked until the peer's transport
// acknowledges it with a kAck frame carrying the same (session, nonce).
// Retransmissions reuse the original nonce, so the receiving session's
// duplicate cache (InboundGuard) recognizes them and re-elicits the prior
// response instead of tripping the replay defense. The transport only ACKs
// frames the session accepted or recognized as duplicates — a frame
// rejected for arriving out of order (kBadState / kReplayedNonce) is left
// unacknowledged so the sender's retransmission can deliver it again once
// the earlier frames have landed.
//
// The retransmission timer for attempt k fires after
//   latency(frame) + latency(ack) + backoff(k)
// where backoff(k) ~ Uniform[kBaseBackoffMs, min(kMaxBackoffMs,
// kBaseBackoffMs * kBackoffFactor^k)] — exponential growth with
// decorrelated jitter, so colliding retransmitters desynchronize (attempt 0
// is exactly the base: the interval is degenerate). After kMaxRetries
// unacknowledged retransmissions the transport gives up and reports
// exhaustion; session recovery is the supervisor's job (see reliability.h).
//
// Retransmissions, backoff arming, ack traffic and exhaustion are logged to
// the link's flight recorder under the endpoint's name ("alice"/"bob").
//
// Frame ownership: the transport keeps one copy of every frame it tracks
// (moved in from send()'s by-value argument) in a fixed table of
// three entries inside the transport — a session publishes at most three
// distinct frames, and a fourth is refused — and an acked frame stays
// there, marked, so tracking, retransmitting, fast-resending or acking a
// frame allocates nothing.
#pragma once

#include <array>
#include <cstdint>

#include "common/rng.h"
#include "protocol/message.h"
#include "protocol/sim_clock.h"
#include "protocol/unreliable_channel.h"

namespace vkey::protocol {

class SessionEndpoint;

/// Backoff floor (the attempt-0 delay) and cap [ms].
inline constexpr double kBaseBackoffMs = 100.0;
inline constexpr double kMaxBackoffMs = 4000.0;
/// Exponential growth of the backoff ceiling per attempt.
inline constexpr double kBackoffFactor = 2.0;
/// Retransmissions beyond the first transmission before giving up.
inline constexpr std::size_t kMaxRetries = 8;

struct ArqConfig {
  std::uint64_t seed = 7;  ///< jitter stream seed
};

/// Retry delay for the given attempt (0-based): a draw from
/// Uniform[base, min(cap, base * factor^attempt)]. Deterministic for a
/// given rng state; exposed as a free function for the property tests.
double arq_backoff_delay_ms(std::size_t attempt, vkey::Rng& rng);

struct TransportStats {
  std::size_t data_sent = 0;        ///< distinct frames first-transmitted
  std::size_t retransmissions = 0;  ///< timer- and duplicate-driven resends
  std::size_t acks_sent = 0;
  std::size_t acks_received = 0;
  std::size_t stale_acks = 0;  ///< acks for frames not (or no longer) in flight
  std::size_t gave_up = 0;     ///< frames abandoned after kMaxRetries
};

class ReliableTransport {
 public:
  /// Drive `session` over `link`'s `endpoint` end. Installs that end's link
  /// handler, so the transport must outlive every delivery the link still
  /// has queued (the supervisor clears the clock before both go).
  ReliableTransport(SimClock& clock, const ArqConfig& config,
                    UnreliableChannel& link,
                    UnreliableChannel::Endpoint endpoint,
                    SessionEndpoint& session);
  ReliableTransport(const ReliableTransport&) = delete;
  ReliableTransport& operator=(const ReliableTransport&) = delete;

  /// Reliable send: transmit now and retransmit on timeout until acked or
  /// the retry budget is exhausted. Re-sending a frame already in flight
  /// (a session re-eliciting its cached response) triggers an immediate
  /// fast retransmission instead of a new tracking entry; re-sending an
  /// acked one does nothing. Only a new frame is moved into the table.
  void send(Message msg);

  /// True once any frame ran out of retries (the session attempt is dead).
  bool exhausted() const { return exhausted_; }

  const TransportStats& stats() const { return stats_; }

 private:
  struct Tracked {
    Message msg;
    std::size_t attempt = 0;
    SimClock::EventId timer = 0;
    bool acked = false;  ///< the peer acknowledged it: no longer in flight
  };

  /// A session publishes at most three distinct frames (Bob: accept,
  /// syndrome, confirm-ack): the frame table's size.
  static constexpr std::size_t kMaxTrackedFrames = 3;

  /// The tracked frame with this nonce, in flight or acked (nullptr when
  /// untracked: never sent, or given up).
  Tracked* find(std::uint64_t nonce);
  /// send() of a frame already tracked: fast retransmission while it is in
  /// flight, nothing once acked. False when `msg` is new.
  bool resend(const Message& msg);
  /// First transmission of a new frame.
  void track(Message msg);
  void on_wire(const Message& msg);
  void arm_timer(Tracked& entry);
  void on_timeout(std::uint64_t nonce);

  SimClock& clock_;
  UnreliableChannel& link_;
  UnreliableChannel::Endpoint endpoint_;
  SessionEndpoint& session_;
  double ack_latency_ms_;  ///< one-way latency of an ack frame
  vkey::Rng rng_;
  std::array<Tracked, kMaxTrackedFrames> frames_{};  ///< one per nonce
  std::size_t tracked_ = 0;  ///< frames_[0, tracked_) are in use
  Message unprompted_;  ///< the session's unprompted frame, sent next event
  TransportStats stats_;
  bool exhausted_ = false;
};

}  // namespace vkey::protocol
