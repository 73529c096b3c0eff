// Gateway-scale multi-session engine.
//
// The paper evaluates one Alice/Bob pair per run; the deployment it targets
// is a roadside gateway establishing keys with thousands of vehicles
// concurrently. GatewayEngine is that gateway: ONE shared SimClock event
// queue drives every session's lifecycle (arrival, admission, establishment
// completion, rekey, eviction), a SessionRegistry enforces admission
// control and owns the per-device state machines, and the heavy per-session
// RF sub-simulations (ARQ, fault injection, reconciliation — the
// reliability supervisor) run batched through the deterministic parallel
// pool.
//
// Two-level scheduling. Lifecycle events live on the shared gateway
// timeline; each admitted session's radio exchange is one
// run_reliable_key_agreement() call on that agreement's own sub-clock. This
// split is what makes gateway-scale parallelism compatible with the
// bit-exactness contract (DESIGN.md §9):
// an RF exchange depends only on its device's seeds and probe material —
// never on admission time or on other sessions — so exchanges are per-index
// pure and the pool may advance many of them concurrently, in arrival-order
// batches, while the single-threaded lifecycle loop folds their outcomes in
// device order. `threads=1` and `threads=N` produce byte-identical reports
// (CI diffs the bench_gateway snapshots).
//
// Determinism also buys free post-mortems: a failed session replayed with
// the same seeds reproduces its exact frame-level history, so the engine
// records nothing at scale and regenerates bounded per-session
// flight-recorder timelines (failure_dump()) for the first few failures
// after the run.
//
// Instrumentation: `gateway.*` counters/gauges (arrivals, admissions,
// keys_established, evictions.idle/failed, rekeys, active/queued/inflight
// session gauges) plus `gateway.time_to_key_ms` / `gateway.queue_wait_ms`
// histograms.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "core/reconciler.h"
#include "protocol/key_schedule.h"
#include "protocol/reliability.h"
#include "protocol/session_registry.h"
#include "protocol/sim_clock.h"

namespace vkey::protocol {

/// Period of the observer tick on the shared timeline [virtual ms]. With
/// an observer installed (GatewayEngine::set_tick), each tick invokes it at
/// a grid point — the hook the telemetry sampler uses to take
/// lane-invariant samples mid-run. Ticks are ordinary lifecycle events: RF
/// sub-simulation batches join before any timeline event runs, so the
/// metric totals a tick observes do not depend on the pool lane count. The
/// final tick lands on the first grid point at or after the last lifecycle
/// event (an observed run's makespan rounds up to the tick grid).
inline constexpr double kTickIntervalMs = 1000.0;

struct GatewayConfig {
  std::size_t sessions = 1000;     ///< devices arriving at the gateway
  std::size_t max_inflight = 256;  ///< admission control: concurrent
                                   ///< establishments; the rest queue FIFO
  double arrival_interval_ms = 5.0;  ///< inter-arrival spacing (virtual)
  double rekey_interval_ms = 10'000.0;  ///< per-session scheduled rekey
                                        ///< period (0 disables rekeying)
  std::size_t max_rekeys = 2;  ///< rekeys per session before it idles out
  std::size_t threads = 0;  ///< pool lanes for the batches (0 = default;
                            ///< 1 = bit-exact sequential reference)
  /// Fault model, ARQ, radio and retry budget of every session's exchange.
  /// `fault.seed`/`arq.seed` are re-derived per device from `seed`.
  ReliabilityConfig reliability;
  std::uint64_t seed = 1;
};

/// Scalar outcome of one device's RF exchange (the pure, per-index result
/// the pool computes). `establish_ms` spans all recovery attempts.
struct SessionOutcome {
  bool established = false;
  FailureReason failure = FailureReason::kNone;
  double establish_ms = 0.0;
  std::size_t attempts = 0;
  std::size_t wire_bytes = 0;  ///< packed v2 frame bytes incl. retx + acks
  BitVec key;  ///< established 128-bit key; empty on failure
};

struct GatewayReport {
  std::size_t sessions = 0;
  std::size_t established = 0;
  std::size_t failed = 0;
  std::size_t evicted_idle = 0;
  std::size_t evicted_failed = 0;
  std::size_t rekeys = 0;
  std::size_t peak_inflight = 0;
  std::size_t peak_queued = 0;
  double makespan_ms = 0.0;  ///< virtual span until the last eviction
  double establish_span_ms = 0.0;  ///< first arrival -> last establishment
  double keys_per_vsecond = 0.0;   ///< established / establish_span
  double median_time_to_key_ms = 0.0;  ///< arrival -> key, queueing included
  double p95_time_to_key_ms = 0.0;
  double p99_time_to_key_ms = 0.0;
  double mean_queue_wait_ms = 0.0;
  double mean_attempts = 0.0;
  double bytes_per_session = 0.0;  ///< wire bytes per *established* session
  /// Bounded post-mortems: the first three failed sessions' timelines,
  /// regenerated by failure_dump()'s deterministic replay, each prefixed
  /// with its device id.
  std::vector<std::string> failure_dumps;
  std::size_t failures_suppressed = 0;  ///< failed sessions beyond the cap
};

class GatewayEngine {
 public:
  /// Probe material for (device, recovery attempt): the (alice_raw, bob_raw)
  /// pair, each reconciler.key_bits() wide. Called from pool lanes — must be
  /// pure per device (read-only shared state, no shared Rng).
  using MaterialFn =
      std::function<std::pair<BitVec, BitVec>(std::uint64_t device,
                                              std::size_t attempt)>;

  /// Optional batched prefetch of *attempt-0* material for a contiguous
  /// device range [first_device, first_device + count). Called on the
  /// lifecycle thread immediately before each simulation batch's pool
  /// fan-out (256 arrivals), so a predictor-backed source can make one
  /// batch inference call per batch instead of one per session. Must
  /// return exactly `count` pairs, and each pair MUST equal
  /// material(device, 0) — recovery attempts (>= 1) and the post-run
  /// failure_dump() replays still go through MaterialFn, and the
  /// determinism contract (byte-identical post-mortems) relies on the two
  /// sources agreeing.
  using BatchMaterialFn = std::function<std::vector<std::pair<BitVec, BitVec>>(
      std::uint64_t first_device, std::size_t count)>;

  GatewayEngine(const GatewayConfig& config,
                const core::SyndromeCode& reconciler,
                MaterialFn material);

  /// Install the batched attempt-0 prefetch (see BatchMaterialFn). Must be
  /// called before run(); pass nullptr to clear.
  void set_batch_material(BatchMaterialFn prefetch);

  /// Install the observer-tick callback (see kTickIntervalMs). Runs on the
  /// lifecycle thread at each tick's virtual time; it may read
  /// metrics and sample telemetry but must not mutate engine state. Must be
  /// called before run(); pass nullptr to clear.
  void set_tick(std::function<void(double now_ms)> tick);

  /// Drive the full lifecycle of every session to eviction and fold the
  /// report. One-shot: a second call aborts.
  GatewayReport run();

  const SessionRegistry& registry() const noexcept { return registry_; }
  /// Per-device RF outcomes (valid for devices simulated so far).
  const std::vector<SessionOutcome>& outcomes() const noexcept {
    return outcomes_;
  }

 private:
  void on_arrival(std::uint64_t device);
  void on_tick();
  void try_admit();
  void on_establishment_done(std::uint64_t device);
  void on_rekey(std::uint64_t device, std::size_t ordinal);
  void arm_idle_eviction(std::uint64_t device);
  /// Simulate devices in arrival order, in pool batches, until `device` has
  /// an outcome.
  void ensure_outcome(std::uint64_t device);
  /// `attempt0` (optional) overrides material for attempt 0 only — the slot
  /// a BatchMaterialFn prefetched for this device, moved from: each slot
  /// serves its device's one scale-run simulation.
  SessionOutcome simulate(std::uint64_t device,
                          std::pair<BitVec, BitVec>* attempt0) const;
  GatewayReport finalize();

  GatewayConfig cfg_;
  const core::SyndromeCode& reconciler_;
  MaterialFn material_;
  BatchMaterialFn batch_material_;  ///< optional attempt-0 prefetch
  std::function<void(double)> tick_;  ///< optional observer tick
  SimClock clock_;  ///< THE shared gateway timeline
  SessionRegistry registry_;
  std::vector<SessionOutcome> outcomes_;
  std::size_t simulated_ = 0;  ///< outcomes_[0, simulated_) are filled
  /// Live key schedules of confirmed sessions (ratcheted by rekey events,
  /// dropped at eviction) — bounded by the number of concurrently confirmed
  /// sessions, not by the total device count.
  std::map<std::uint64_t, KeySchedule> schedules_;
  double last_establish_ms_ = 0.0;
  bool ran_ = false;
};

/// Eagerly register the gateway.* counters, gauges and histograms, then the
/// whole stack beneath them (register_protocol_metrics). Long-horizon
/// harnesses call this before arming allocation gates so that no instrument
/// is first registered — and heap-counted — mid-measurement.
void register_gateway_metrics();

}  // namespace vkey::protocol
