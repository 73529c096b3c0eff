#include "protocol/gateway.h"

#include <algorithm>
#include <utility>

#include "common/error.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/rng.h"

namespace vkey::protocol {

namespace {

/// RF exchanges simulated per pool batch (arrival order; bounds look-ahead
/// memory).
constexpr std::size_t kSimBatch = 256;

/// A confirmed session idle this long after its last activity is evicted.
constexpr double kIdleTimeoutMs = 30'000.0;

/// Failed sessions replayed for a post-mortem timeline, at most.
constexpr std::size_t kFailureDumpLimit = 3;

/// Session ids per device: the supervisor's attempt k runs under the
/// device's first id + k, so a retry budget up to this size never reaches
/// the next device's ids.
constexpr std::size_t kSessionIdsPerDevice = 16;

/// The first session id of `device`'s block.
std::uint64_t session_id_for(std::uint64_t device) {
  return 1 + device * kSessionIdsPerDevice;
}

/// The reliability config of `device`'s exchange. Per-device fault/backoff
/// streams: device k's loss pattern must be independent of device j's and
/// of the lane that simulates it.
ReliabilityConfig device_config(const GatewayConfig& cfg,
                                std::uint64_t device) {
  ReliabilityConfig rcfg = cfg.reliability;
  rcfg.fault.seed = hash_combine64(hash_combine64(cfg.seed, 0x6a7eu), device);
  rcfg.arq.seed = hash_combine64(hash_combine64(cfg.seed, 0xa49u), device);
  rcfg.base_session_id = session_id_for(device);
  return rcfg;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1));
  return sorted[idx];
}

}  // namespace

GatewayEngine::GatewayEngine(const GatewayConfig& config,
                             const core::SyndromeCode& reconciler,
                             MaterialFn material)
    : cfg_(config),
      reconciler_(reconciler),
      material_(std::move(material)),
      registry_(config.max_inflight),
      outcomes_(config.sessions) {
  VKEY_REQUIRE(cfg_.sessions >= 1, "gateway needs at least one session");
  VKEY_REQUIRE(cfg_.arrival_interval_ms >= 0.0,
               "arrival spacing must be >= 0");
  VKEY_REQUIRE(static_cast<bool>(material_), "probe material source required");
  VKEY_REQUIRE(cfg_.reliability.max_session_attempts <= kSessionIdsPerDevice,
               "retry budget exceeds a device's session ids");
}

void GatewayEngine::set_batch_material(BatchMaterialFn prefetch) {
  VKEY_REQUIRE(!ran_, "batch material must be installed before run()");
  batch_material_ = std::move(prefetch);
}

void GatewayEngine::set_tick(std::function<void(double)> tick) {
  VKEY_REQUIRE(!ran_, "tick observer must be installed before run()");
  tick_ = std::move(tick);
}

void GatewayEngine::on_tick() {
  tick_(clock_.now_ms());
  // Keep ticking only while other events remain: once the tick is the sole
  // event left, the timeline has quiesced and rescheduling would keep the
  // run alive forever. The executing tick is already off the queue, so
  // pending() counts everything else.
  if (clock_.pending() > 0) {
    clock_.schedule(kTickIntervalMs, [this] { on_tick(); });
  }
}

SessionOutcome GatewayEngine::simulate(
    std::uint64_t device, std::pair<BitVec, BitVec>* attempt0) const {
  PublicChannel base;
  const AgreementReport report = run_reliable_key_agreement(
      base, reconciler_, device_config(cfg_, device),
      [this, device, attempt0](std::size_t attempt) {
        // Recovery attempts fall back to the per-attempt source.
        if (attempt == 0 && attempt0 != nullptr) return std::move(*attempt0);
        return material_(device, attempt);
      });

  SessionOutcome out;
  out.established = report.established;
  out.failure = report.failure;
  out.establish_ms = report.time_to_establish_ms;
  out.attempts = report.attempts;
  out.wire_bytes = report.link.bytes_sent;
  if (report.established) {
    out.session_id = report.attempt_log.back().session_id;
    out.key = report.key;
  }
  return out;
}

void GatewayEngine::ensure_outcome(std::uint64_t device) {
  while (simulated_ <= device) {
    const std::size_t begin = simulated_;
    const std::size_t end =
        std::min(cfg_.sessions, begin + kSimBatch);
    // Batched attempt-0 prefetch (when installed) runs on this thread once
    // per batch, before the pool fans out.
    std::vector<std::pair<BitVec, BitVec>> prefetched;
    if (batch_material_) {
      prefetched = batch_material_(begin, end - begin);
      VKEY_REQUIRE(prefetched.size() == end - begin,
                   "batch material returned wrong count");
    }
    // Arrival-order batches through the pool: each lane writes only its
    // index-owned outcome slot, so the array is bit-identical for any lane
    // count (DESIGN.md §9 contract).
    parallel::parallel_for(
        end - begin,
        [this, begin, &prefetched](std::size_t i) {
          outcomes_[begin + i] =
              simulate(begin + i,
                       prefetched.empty() ? nullptr : &prefetched[i]);
        },
        cfg_.threads);
    simulated_ = end;
  }
}

void GatewayEngine::on_arrival(std::uint64_t device) {
  registry_.arrive(device, clock_.now_ms());
  if (device + 1 < cfg_.sessions) {
    clock_.schedule_at(
        cfg_.arrival_interval_ms * static_cast<double>(device + 1),
        [this, next = device + 1] { on_arrival(next); });
  }
  try_admit();
}

void GatewayEngine::try_admit() {
  while (auto admitted = registry_.admit_next(clock_.now_ms())) {
    const std::uint64_t device = *admitted;
    ensure_outcome(device);
    // The exchange's virtual duration is known (it is a function of the
    // device's seeds alone); completion lands on the shared timeline.
    clock_.schedule(outcomes_[device].establish_ms,
                    [this, device] { on_establishment_done(device); });
  }
}

void GatewayEngine::on_establishment_done(std::uint64_t device) {
  const double now = clock_.now_ms();
  const SessionOutcome& out = outcomes_[device];
  if (out.established) {
    registry_.established(device, now);
    last_establish_ms_ = now;
    const DeviceRecord& rec = registry_.record(device);
    metrics::histogram<"gateway.time_to_key_ms">().observe(
        rec.time_to_key_ms());
    metrics::histogram<"gateway.queue_wait_ms">().observe(rec.queue_wait_ms());
    // The confirmed session's live key state: rekey events ratchet it on
    // the shared timeline until the session idles out.
    schedules_.emplace(device, KeySchedule(out.key, out.session_id,
                                           KeySchedule::Role::kInitiator));
    if (cfg_.rekey_interval_ms > 0.0 && cfg_.max_rekeys > 0) {
      clock_.schedule(cfg_.rekey_interval_ms,
                      [this, device] { on_rekey(device, 1); });
    }
    arm_idle_eviction(device);
  } else {
    registry_.failed(device, now, out.failure);
    registry_.evict(device, now, EvictReason::kFailed);
  }
  try_admit();  // a slot freed either way
}

void GatewayEngine::on_rekey(std::uint64_t device, std::size_t ordinal) {
  if (registry_.record(device).state != DeviceState::kConfirmed) return;
  const double now = clock_.now_ms();
  schedules_.at(device).rekey(now);
  registry_.rekeyed(device, now);
  if (ordinal < cfg_.max_rekeys) {
    clock_.schedule(cfg_.rekey_interval_ms,
                    [this, device, ordinal] { on_rekey(device, ordinal + 1); });
  }
}

void GatewayEngine::arm_idle_eviction(std::uint64_t device) {
  const double due =
      registry_.record(device).last_activity_ms + kIdleTimeoutMs;
  clock_.schedule_at(due, [this, device] {
    const DeviceRecord& rec = registry_.record(device);
    if (rec.state != DeviceState::kConfirmed) return;
    if (clock_.now_ms() >= rec.last_activity_ms + kIdleTimeoutMs) {
      schedules_.erase(device);
      registry_.evict(device, clock_.now_ms(), EvictReason::kIdle);
    } else {
      // Rekeys (or traffic) refreshed the session after this check was
      // armed; re-arm for the new deadline.
      arm_idle_eviction(device);
    }
  });
}

GatewayReport GatewayEngine::run() {
  VKEY_REQUIRE(!ran_, "GatewayEngine::run() is one-shot");
  ran_ = true;
  clock_.schedule_at(0.0, [this] { on_arrival(0); });
  if (tick_) clock_.schedule(kTickIntervalMs, [this] { on_tick(); });
  // Runaway guard far above need: every session costs O(1) lifecycle events
  // (arrival, admission, completion, <= max_rekeys rekeys, idle checks).
  std::size_t cap = cfg_.sessions * (cfg_.max_rekeys + 8) + 1024;
  if (tick_) {
    // Observer ticks add makespan / interval events; bound the makespan by
    // the arrival span plus a generous per-session tail (establishments,
    // rekeys, the idle timeout). A too-low guess still fails loudly via the
    // quiesce check below, never silently.
    const double span_bound =
        cfg_.arrival_interval_ms * static_cast<double>(cfg_.sessions) +
        kIdleTimeoutMs * 4.0 +
        cfg_.rekey_interval_ms * static_cast<double>(cfg_.max_rekeys) +
        60'000.0;
    cap += static_cast<std::size_t>(span_bound / kTickIntervalMs) + 64;
  }
  clock_.run_until_idle(cap);
  VKEY_REQUIRE(registry_.queued() == 0 && registry_.establishing() == 0 &&
                   registry_.confirmed_active() == 0,
               "gateway timeline quiesced with live sessions (event cap "
               "too low or a lifecycle leak)");
  return finalize();
}

GatewayReport GatewayEngine::finalize() {
  const RegistryStats& rs = registry_.stats();
  GatewayReport rep;
  rep.sessions = cfg_.sessions;
  rep.established = rs.established;
  rep.failed = rs.failures;
  rep.evicted_idle = rs.evicted_idle;
  rep.evicted_failed = rs.evicted_failed;
  rep.rekeys = rs.rekeys;
  rep.peak_inflight = rs.peak_inflight;
  rep.peak_queued = rs.peak_queued;
  rep.makespan_ms = clock_.now_ms();
  rep.establish_span_ms = last_establish_ms_;
  if (last_establish_ms_ > 0.0 && rs.established > 0) {
    rep.keys_per_vsecond = static_cast<double>(rs.established) /
                           (last_establish_ms_ / 1000.0);
  }

  std::vector<double> ttk;
  ttk.reserve(rs.established);
  double wait_sum = 0.0;
  std::size_t attempts = 0, established_bytes = 0;
  for (std::uint64_t d = 0; d < cfg_.sessions; ++d) {
    const DeviceRecord& rec = registry_.record(d);
    wait_sum += rec.queue_wait_ms();
    attempts += outcomes_[d].attempts;
    if (rec.time_to_key_ms() >= 0.0) {
      ttk.push_back(rec.time_to_key_ms());
      established_bytes += outcomes_[d].wire_bytes;
    }
  }
  std::sort(ttk.begin(), ttk.end());
  rep.median_time_to_key_ms = percentile(ttk, 0.5);
  rep.p95_time_to_key_ms = percentile(ttk, 0.95);
  rep.p99_time_to_key_ms = percentile(ttk, 0.99);
  rep.mean_queue_wait_ms = wait_sum / static_cast<double>(cfg_.sessions);
  rep.mean_attempts =
      static_cast<double>(attempts) / static_cast<double>(cfg_.sessions);
  if (rs.established > 0) {
    rep.bytes_per_session = static_cast<double>(established_bytes) /
                            static_cast<double>(rs.established);
  }

  // Bounded post-mortems: determinism makes recording free after the fact —
  // replaying a failed device with the same seeds and material retraces its
  // exact frame history, this time with the flight recorder on.
  std::size_t failed_seen = 0;
  for (std::uint64_t d = 0; d < cfg_.sessions; ++d) {
    if (outcomes_[d].established) continue;
    ++failed_seen;
    if (rep.failure_dumps.size() >= kFailureDumpLimit) continue;
    PublicChannel base;
    rep.failure_dumps.push_back(
        "device " + std::to_string(d) + ": " +
        failure_dump(base, reconciler_, device_config(cfg_, d),
                     [this, d](std::size_t attempt) {
                       return material_(d, attempt);
                     }));
  }
  rep.failures_suppressed = failed_seen - rep.failure_dumps.size();
  return rep;
}

void register_gateway_metrics() {
  auto& reg = metrics::Registry::global();
  for (const char* n :
       {"arrivals", "admissions", "keys_established", "establish_failures",
        "rekeys", "evictions.idle", "evictions.failed"}) {
    reg.counter(std::string("gateway.") + n);
  }
  reg.gauge("gateway.inflight_sessions");
  reg.gauge("gateway.queued_sessions");
  reg.gauge("gateway.active_sessions");
  reg.histogram("gateway.time_to_key_ms");
  reg.histogram("gateway.queue_wait_ms");
  register_protocol_metrics();
}

}  // namespace vkey::protocol
