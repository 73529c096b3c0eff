// Per-session flight recorder: a bounded ring of protocol events stamped
// with SimClock virtual time.
//
// The metrics layer (PR 2) answers aggregate questions — how many frames
// were dropped across a bench run — but cannot explain why ONE session
// failed: which injected fault hit which frame, what the ARQ did about it,
// and how the state machines reacted. The flight recorder is that causal
// timeline. When asked for one (failure_dump(), which replays an agreement,
// or a trace), the reliability supervisor creates one per attempt and hands
// it to the link, both transports and both sessions; every layer appends
// its events (frame tx/rx, drop/reorder/dup/corrupt injections, retransmits
// and backoff arming, InboundGuard rejections, session state transitions),
// so a failed — or fuzzed — session can dump its full history next to its
// FailureReason.
//
// Determinism: events are stamped from the attempt's SimClock (virtual ms)
// and carry a per-recorder insertion ordinal `seq`, so dump() is
// byte-identical for identical seeds and independent of host timing or
// worker-lane count. Without a clock (harness/fuzz use) the ordinal itself
// is the timestamp, which keeps ordering visible and deterministic. The
// ring (a BoundedRing, shared with TraceLog and the telemetry sampler) is
// single-writer by design — the protocol stack runs inside one SimClock
// event loop — so there is no lock.
//
// Storage: an event keeps its detail inline (a FlightDetail, formatted in
// place from text and numbers; every detail the stack writes fits its
// kInlineDetailChars), and the ring reserves its first block on the first
// event, so an attempt's timeline costs one allocation until it outgrows
// that block — recording builds no std::string per event.
//
// When the global TraceLog is enabled each event is mirrored as a
// virtual-domain instant span ("flight.<kind>"), so `vkey_sim --trace-out`
// interleaves link-level events with the reliability spans in Perfetto.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/bounded_ring.h"
#include "common/small_buffer.h"
#include "common/trace.h"

namespace vkey::protocol {

enum class FlightEventKind : std::uint8_t {
  kAttemptStart,  ///< supervisor opened a session attempt
  kAttemptEnd,    ///< attempt terminated (detail: outcome / failure reason)
  kFrameTx,       ///< frame handed to the link by an endpoint
  kFrameRx,       ///< frame delivered to the far endpoint
  kDrop,          ///< fault injector lost the frame
  kCorrupt,       ///< fault injector flipped bits (frame still parsed)
  kWireReject,    ///< frame codec rejected the bytes (detail: WireError);
                  ///< the radio CRC discards such a frame
  kReorder,       ///< fault injector added reordering delay
  kDuplicate,     ///< fault injector scheduled an echo copy
  kRetransmit,    ///< ARQ resent a frame (detail: "timeout ..." or "fast")
  kBackoff,       ///< ARQ armed a retransmission timer (detail: delay)
  kAckTx,         ///< transport acknowledged an accepted frame
  kAckRx,         ///< transport consumed an ack for an in-flight frame
  kStaleAck,      ///< ack for a frame not (or no longer) in flight
  kGaveUp,        ///< retry budget exhausted; the attempt is dead
  kReject,        ///< session rejected a frame (detail: RejectReason)
  kStateChange,   ///< session state transition (detail: "from->to")
  kInjected,      ///< harness-injected fault (fuzz tests name theirs here)
};

std::string to_string(FlightEventKind k);

/// Detail characters an event keeps inline: the longest the stack writes
/// is a wire reject or a reorder note, under 50.
inline constexpr std::size_t kInlineDetailChars = 56;

/// A flight event's detail text, formatted in place: text and numbers are
/// appended into inline storage, so no std::string is built on the way.
///   FlightDetail d;
///   (d << "attempt=" << attempt << " delay_ms=").number(timeout);
class FlightDetail {
 public:
  FlightDetail& operator<<(std::string_view text);
  FlightDetail& operator<<(std::uint64_t n);
  /// `v` as json::format_number() writes it (shortest round trip).
  FlightDetail& number(double v);

  std::string_view str() const noexcept { return text_.str(); }
  bool empty() const noexcept { return text_.empty(); }

  friend bool operator==(const FlightDetail& d, std::string_view s) noexcept {
    return d.str() == s;
  }

 private:
  SmallBuffer<char, kInlineDetailChars> text_;
};

struct FlightEvent {
  double t_ms = 0.0;       ///< virtual time; the ordinal when no clock is set
  std::uint64_t seq = 0;   ///< per-recorder insertion ordinal (0-based)
  FlightEventKind kind = FlightEventKind::kAttemptStart;
  std::string actor;       ///< "alice" | "bob" | "link" | "supervisor" | ...
  FlightDetail detail;     ///< kind-specific context, may be empty
  std::uint64_t session_id = 0;
  std::uint64_t nonce = 0;
};

/// Bounded single-writer event ring (oldest events drop first).
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 512, trace::NowFn now = {});

  std::size_t size() const noexcept { return ring_.size(); }
  std::size_t dropped() const noexcept { return ring_.dropped(); }
  std::uint64_t total() const noexcept { return next_seq_; }

  void record(FlightEventKind kind, std::string_view actor,
              const FlightDetail& detail, std::uint64_t session_id = 0,
              std::uint64_t nonce = 0);
  /// record() with a plain-text detail.
  void record(FlightEventKind kind, std::string_view actor,
              std::string_view detail = {}, std::uint64_t session_id = 0,
              std::uint64_t nonce = 0);

  /// Events oldest -> newest.
  std::vector<FlightEvent> events() const { return ring_.to_vector(); }

  /// Deterministic human-readable timeline, one event per line:
  ///   [  123.456 ms] #17 retransmit alice timeout attempt=1 nonce=3
  /// Byte-identical for identical event sequences (virtual stamps only).
  std::string dump() const;

 private:
  trace::NowFn now_;
  BoundedRing<FlightEvent> ring_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace vkey::protocol
