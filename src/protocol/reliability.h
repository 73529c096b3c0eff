// Session-recovery supervisor: reliable key agreement over a lossy link.
//
// Per attempt it puts AliceSession and BobSession on the two ends of an
// UnreliableChannel, each driven by its own ReliableTransport on the
// agreement's private virtual clock, and supervises the exchange: when a
// transport exhausts its retry budget, a party fails, or the attempt
// deadline passes, the supervisor tears the attempt down and restarts
// negotiation under a *fresh* session id with *fresh* probe material (and a
// fresh fault/jitter stream — a retransmission storm must not replay
// identically). The caller gets a structured report — failure reason,
// attempt count, per-attempt transport counters, link counters and virtual
// time-to-establish — instead of a bare bool.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "core/reconciler.h"
#include "protocol/reliable_transport.h"
#include "protocol/session.h"
#include "protocol/unreliable_channel.h"

namespace vkey::protocol {

/// Terminal diagnosis of a (possibly multi-attempt) agreement run.
enum class FailureReason : std::uint8_t {
  kNone,             ///< established
  kRetryExhausted,   ///< a transport ran out of retransmissions
  kMacMismatch,      ///< syndrome MAC failed (tamper or hopeless mismatch)
  kConfirmMismatch,  ///< key-confirmation digest failed
  kTimeout,          ///< attempt deadline passed without termination
  kProtocolError,    ///< deadlock/quiescence without an established key
};

std::string to_string(FailureReason r);

struct ReliabilityConfig {
  FaultConfig fault;
  ArqConfig arq;
  /// Radio timing for airtime-derived latency and RTT estimation.
  channel::LoRaParams radio;
  std::size_t max_session_attempts = 3;
  std::uint64_t base_session_id = 1;  ///< attempt k uses base + k
};

/// Counters and outcome of one negotiation attempt.
struct AttemptReport {
  std::uint64_t session_id = 0;
  bool established = false;
  FailureReason failure = FailureReason::kNone;
  SessionState alice_state = SessionState::kIdle;
  SessionState bob_state = SessionState::kIdle;
  RejectReason alice_reject = RejectReason::kNone;
  RejectReason bob_reject = RejectReason::kNone;
  double duration_ms = 0.0;  ///< virtual time this attempt consumed
  TransportStats alice_transport;
  TransportStats bob_transport;
  std::size_t alice_duplicates_suppressed = 0;
  std::size_t bob_duplicates_suppressed = 0;
};

struct AgreementReport {
  bool established = false;
  FailureReason failure = FailureReason::kNone;  ///< of the last attempt
  std::size_t attempts = 0;
  /// Virtual ms from the first transmission to key establishment, summed
  /// across attempts (failed ones included).
  double time_to_establish_ms = 0.0;
  /// Aggregated over attempts. `link.sent` counts the frames put on the
  /// air (data + retransmissions + acks): the per-establishment message
  /// overhead of the reliability layer.
  LinkStats link;
  std::vector<AttemptReport> attempt_log;
  BitVec key;  ///< the established 128-bit key; empty on failure

  explicit operator bool() const { return established; }
};

/// What run_reliable_key_agreement takes for its probe material: a
/// non-owning reference to any callable that, given attempt k, returns
/// fresh material (alice_raw, bob_raw), each reconciler.key_bits() wide.
/// Recovery re-probes the channel, so successive attempts should return
/// different material. It is two words and never copies the callable, so
/// passing a lambda allocates nothing whatever it captures. The callable
/// must outlive the call, which a lambda written as the argument does.
class ProbeMaterialRef {
 public:
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, ProbeMaterialRef> &&
                std::is_invocable_r_v<std::pair<BitVec, BitVec>, F&,
                                      std::size_t>>>
  ProbeMaterialRef(F&& callable) noexcept  // implicit: call sites pass lambdas
      : callable_(std::addressof(callable)),
        call_([](const void* c, std::size_t attempt) {
          using Callable = std::remove_reference_t<F>;
          return std::pair<BitVec, BitVec>((*static_cast<Callable*>(
              const_cast<void*>(c)))(attempt));
        }) {}

  std::pair<BitVec, BitVec> operator()(std::size_t attempt) const {
    return call_(callable_, attempt);
  }

 private:
  const void* callable_;
  std::pair<BitVec, BitVec> (*call_)(const void*, std::size_t);
};

/// Run key agreement with ARQ + session recovery over a faulty link, on a
/// virtual clock of its own. Every attempt's frames pass `base`, whose
/// interceptor (when one is installed) records them for Eve or tampers
/// with them. It keeps no event timeline: while the global TraceLog is on,
/// every layer's flight events are mirrored there as `flight.*` instants;
/// failure_dump() replays the agreement to print them.
AgreementReport run_reliable_key_agreement(
    PublicChannel& base, const core::SyndromeCode& reconciler,
    const ReliabilityConfig& config, ProbeMaterialRef material);

/// Post-mortem of the agreement run_reliable_key_agreement() runs with the
/// same arguments, by replaying it with every layer recording into a
/// 512-event flight ring per attempt: the timelines of up to the last three
/// failed attempts (oldest first), each prefixed with its FailureReason,
/// after a single "N earlier attempt(s) suppressed" line when more failed,
/// so a sweep of thousands of sessions stays debuggable without drowning
/// the console. Empty when the agreement establishes.
///
/// The replay is a run like any other: it counts in the metrics, appears in
/// the trace while tracing is on, and its frames pass `base`'s interceptor.
/// It retraces the original run only because that run is deterministic, so
/// `material` must be pure: the same material for the same attempt, every
/// time it is called.
std::string failure_dump(PublicChannel& base,
                         const core::SyndromeCode& reconciler,
                         const ReliabilityConfig& config,
                         ProbeMaterialRef material);

/// Eagerly register every instrument the session/ARQ/link/reliability stack
/// creates lazily — including the rare-path taxonomy (the per-kind
/// `reliability.failure.*` counters, `arq.gave_up`, the fault-dependent link
/// counters) whose first registration may otherwise land hours into a run.
/// Snapshot structure and steady-state heap accounting must not depend on
/// which faults happened to fire. Delegates to wire::register_wire_metrics()
/// for the frame-reject taxonomy.
void register_protocol_metrics();

}  // namespace vkey::protocol
