#include "protocol/reliability.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <optional>

#include "common/error.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/trace.h"
#include "protocol/flight_recorder.h"
#include "protocol/wire.h"

namespace vkey::protocol {

namespace {

/// reliability.failure.<reason>, looked up once per reason on its first
/// use (lazily, like metrics::counter<>, so a snapshot lists only the
/// reasons that occurred).
metrics::Counter& failure_counter(FailureReason reason) {
  static std::array<std::atomic<metrics::Counter*>, 6> slots{};
  std::atomic<metrics::Counter*>& slot =
      slots.at(static_cast<std::size_t>(reason));
  metrics::Counter* c = slot.load(std::memory_order_acquire);
  if (c == nullptr) {
    c = &metrics::Registry::global().counter("reliability.failure." +
                                              to_string(reason));
    slot.store(c, std::memory_order_release);
  }
  return *c;
}

// Runaway guard per attempt: far above anything a sane exchange needs
// (~6 frames * (1 + kMaxRetries) events each, plus duplicates).
constexpr std::size_t kMaxEventsPerAttempt = 200000;

// Attempt deadline in virtual time (30 virtual minutes); an attempt still
// running past it ends as FailureReason::kTimeout.
constexpr double kAttemptTimeoutMs = 1.8e6;

// Failed attempts a failure dump shows, the most recent ones.
constexpr std::size_t kDumpedAttempts = 3;

// Events each attempt's flight ring keeps in a failure_dump() replay.
constexpr std::size_t kFlightCapacity = 512;

void accumulate(LinkStats& into, const LinkStats& from) {
  into.sent += from.sent;
  into.bytes_sent += from.bytes_sent;
  into.delivered += from.delivered;
  into.dropped += from.dropped;
  into.corrupted += from.corrupted;
  into.crc_lost += from.crc_lost;
  into.duplicated += from.duplicated;
  into.reordered += from.reordered;
}

FailureReason classify_failure(const AliceSession& alice,
                               const BobSession& bob, bool exhausted,
                               bool timed_out) {
  const auto failed_reason = [](RejectReason r) {
    switch (r) {
      case RejectReason::kMacMismatch: return FailureReason::kMacMismatch;
      case RejectReason::kConfirmMismatch:
        return FailureReason::kConfirmMismatch;
      default: return FailureReason::kProtocolError;
    }
  };
  if (alice.state() == SessionState::kFailed) {
    return failed_reason(alice.last_reject());
  }
  if (bob.state() == SessionState::kFailed) {
    return failed_reason(bob.last_reject());
  }
  if (exhausted) return FailureReason::kRetryExhausted;
  if (timed_out) return FailureReason::kTimeout;
  return FailureReason::kProtocolError;
}

/// The supervisor behind run_reliable_key_agreement() and failure_dump().
/// With `dump` set every layer records each attempt into a flight ring, and
/// `dump` collects the timelines a failed agreement shows.
AgreementReport supervise(PublicChannel& base,
                          const core::SyndromeCode& reconciler,
                          const ReliabilityConfig& config,
                          ProbeMaterialRef material, std::string* dump) {
  VKEY_REQUIRE(config.max_session_attempts >= 1, "need at least one attempt");
  AgreementReport report;
  // An agreement fails only once every attempt has, so the attempts a
  // failure dump shows are the last kDumpedAttempts.
  const std::size_t first_dumped =
      config.max_session_attempts > kDumpedAttempts
          ? config.max_session_attempts - kDumpedAttempts
          : 0;
  if (dump != nullptr && first_dumped > 0) {
    *dump = std::to_string(first_dumped) + " earlier attempt(s) suppressed\n";
  }

  // The agreement's workspace, reused by every attempt: its private
  // timeline (attempts run on it back to back; clear() drops a torn-down
  // attempt's events but never rewinds time, and its heap stays warm) and
  // one link, whose frame slots stay warm too. Each attempt restarts the
  // link's fault stream and builds fresh sessions and transports.
  SimClock clock;  // vkey-lint: allow(sim-clock-owner)
  UnreliableChannel link(clock, base, config.fault, config.radio);
  // Room for the usual handful of attempts up front.
  report.attempt_log.reserve(
      std::min<std::size_t>(config.max_session_attempts, 8));

  // Virtual time-to-establish across the whole agreement (all attempts),
  // accumulated from the per-attempt spans.
  static metrics::Histogram& establish_hist =
      metrics::Registry::global().histogram(
          "reliability.time_to_establish_ms");

  for (std::size_t attempt = 0; attempt < config.max_session_attempts;
       ++attempt) {
    ++report.attempts;
    metrics::counter<"reliability.attempts">().add(1);

    // Fresh session id, probe material, fault stream and jitter stream per
    // attempt: a loss pattern that killed attempt k must not repeat
    // identically in attempt k+1.
    SessionConfig scfg;
    scfg.session_id = config.base_session_id + attempt;
    auto [alice_raw, bob_raw] = material(attempt);
    AliceSession alice(scfg, reconciler, std::move(alice_raw));
    BobSession bob(scfg, reconciler, std::move(bob_raw));

    const double attempt_start_ms = clock.now_ms();
    // Virtual-time span: the timer reads the attempt's SimClock, not the
    // wall clock, so the observed duration is bit-reproducible.
    trace::ScopedTimer attempt_timer(
        metrics::histogram<"reliability.attempt_ms">(),
        [&clock] { return clock.now_ms(); }, "reliability.attempt");
    link.reset(hash_combine64(config.fault.seed, attempt));

    // The attempt's flight recorder, stamped with its virtual clock: every
    // layer below appends its events to the same timeline. A replay keeps
    // them in a ring; otherwise the recorder exists only to mirror them
    // into the TraceLog, and without a trace the layers stay detached and
    // never format an event detail.
    std::optional<FlightRecorder> flight;
    if (dump != nullptr || trace::TraceLog::global().enabled()) {
      flight.emplace(dump != nullptr ? kFlightCapacity : 0,
                     [&clock] { return clock.now_ms(); });
      FlightDetail start;
      start << "attempt=" << attempt + 1;
      flight->record(FlightEventKind::kAttemptStart, "supervisor", start,
                     scfg.session_id);
      link.set_recorder(&*flight);
      alice.set_recorder(&*flight, "alice");
      bob.set_recorder(&*flight, "bob");
    }

    ReliableTransport alice_tx(
        clock, ArqConfig{hash_combine64(config.arq.seed, 2 * attempt)}, link,
        UnreliableChannel::Endpoint::kAlice, alice);
    ReliableTransport bob_tx(
        clock, ArqConfig{hash_combine64(config.arq.seed, 2 * attempt + 1)},
        link, UnreliableChannel::Endpoint::kBob, bob);
    alice_tx.send(alice.start());

    bool timed_out = false;
    std::size_t events = 0;
    const auto established = [&] {
      return alice.state() == SessionState::kEstablished &&
             bob.state() == SessionState::kEstablished;
    };
    const auto terminal = [&] {
      return established() ||
             alice.state() == SessionState::kFailed ||
             bob.state() == SessionState::kFailed ||
             alice_tx.exhausted() || bob_tx.exhausted();
    };
    while (!terminal() && events < kMaxEventsPerAttempt) {
      if (clock.now_ms() - attempt_start_ms > kAttemptTimeoutMs) {
        timed_out = true;
        break;
      }
      if (!clock.run_next()) break;  // quiescent: nothing can make progress
      ++events;
    }

    AttemptReport att;
    att.session_id = scfg.session_id;
    att.alice_state = alice.state();
    att.bob_state = bob.state();
    att.alice_reject = alice.last_reject();
    att.bob_reject = bob.last_reject();
    att.duration_ms = clock.now_ms() - attempt_start_ms;
    att.alice_transport = alice_tx.stats();
    att.bob_transport = bob_tx.stats();
    att.alice_duplicates_suppressed = alice.duplicates_suppressed();
    att.bob_duplicates_suppressed = bob.duplicates_suppressed();
    att.established = alice.agrees_with(bob);
    att.failure = att.established
                      ? FailureReason::kNone
                      : classify_failure(alice, bob,
                                         alice_tx.exhausted() ||
                                             bob_tx.exhausted(),
                                         timed_out);
    if (flight) {
      flight->record(FlightEventKind::kAttemptEnd, "supervisor",
                     att.established ? "established" : to_string(att.failure),
                     scfg.session_id);
      if (dump != nullptr && !att.established && attempt >= first_dumped) {
        *dump += "attempt " + std::to_string(attempt + 1) + " failed (" +
                 to_string(att.failure) + ")\n" + flight->dump();
      }
    }

    // Tear down the attempt's residue: un-fired ARQ timers and in-flight
    // deliveries hold closures over the transports and sessions that die
    // with this scope (and clearing frees the link's slots).
    clock.clear();

    report.time_to_establish_ms += att.duration_ms;
    accumulate(report.link, link.stats());
    report.failure = att.failure;
    const bool success = att.established;
    if (success) {
      report.key = alice.final_key();
    } else {
      failure_counter(att.failure).add(1);
    }
    report.attempt_log.push_back(std::move(att));
    if (success) {
      report.established = true;
      metrics::counter<"reliability.established">().add(1);
      establish_hist.observe(report.time_to_establish_ms);
      break;
    }
  }
  if (!report.established) {
    metrics::counter<"reliability.exhausted">().add(1);
  }
  return report;
}

}  // namespace

std::string to_string(FailureReason r) {
  switch (r) {
    case FailureReason::kNone: return "none";
    case FailureReason::kRetryExhausted: return "retry-exhausted";
    case FailureReason::kMacMismatch: return "mac-mismatch";
    case FailureReason::kConfirmMismatch: return "confirm-mismatch";
    case FailureReason::kTimeout: return "timeout";
    case FailureReason::kProtocolError: return "protocol-error";
  }
  return "?";
}

AgreementReport run_reliable_key_agreement(
    PublicChannel& base, const core::SyndromeCode& reconciler,
    const ReliabilityConfig& config, ProbeMaterialRef material) {
  return supervise(base, reconciler, config, material, nullptr);
}

std::string failure_dump(PublicChannel& base,
                         const core::SyndromeCode& reconciler,
                         const ReliabilityConfig& config,
                         ProbeMaterialRef material) {
  std::string dump;
  if (supervise(base, reconciler, config, material, &dump).established) {
    return {};
  }
  return dump;
}

void register_protocol_metrics() {
  auto& reg = metrics::Registry::global();
  for (const char* n : {"data_sent", "retransmissions", "timeouts", "gave_up",
                        "acks_received", "acks_sent"}) {
    reg.counter(std::string("arq.") + n);
  }
  reg.histogram("arq.backoff_ms");
  for (const char* n :
       {"sent", "dropped", "corrupted", "crc_lost", "reordered",
        "duplicated"}) {
    reg.counter(std::string("link.") + n);
  }
  for (const char* n : {"attempts", "established", "exhausted"}) {
    reg.counter(std::string("reliability.") + n);
  }
  reg.histogram("reliability.attempt_ms");
  for (const FailureReason r :
       {FailureReason::kRetryExhausted, FailureReason::kMacMismatch,
        FailureReason::kConfirmMismatch, FailureReason::kTimeout,
        FailureReason::kProtocolError}) {
    failure_counter(r);
  }
  reg.counter("phy.packets");
  reg.gauge("phy.airtime_ms");
  wire::register_wire_metrics();
}

}  // namespace vkey::protocol
