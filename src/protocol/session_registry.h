// Per-device session registry for the gateway engine.
//
// A roadside gateway juggles thousands of vehicles: each device owns a
// lifecycle state machine
//
//   kQueued ──admit──> kEstablishing ──success──> kConfirmed ──idle──> kEvicted
//                         │                          │ rekey (stays)
//                         └──failure──> kFailed ─────┴──────────────> kEvicted
//
// and the registry is the single authority over those transitions: it
// enforces admission control (at most `max_inflight` sessions establishing
// concurrently; arrivals beyond that wait in a FIFO queue), validates every
// transition (an illegal one is a programming error and aborts), tracks the
// per-device timestamps the gateway report is built from, and feeds the
// `gateway.*` metrics instruments. It holds no clock and schedules nothing —
// the GatewayEngine drives it from the shared SimClock timeline and passes
// `now_ms` into every mutation, which keeps the registry trivially testable.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "protocol/reliability.h"

namespace vkey::protocol {

enum class DeviceState : std::uint8_t {
  kQueued,        ///< arrived, waiting for an establishment slot
  kEstablishing,  ///< admitted; the RF exchange is in flight
  kConfirmed,     ///< holds an established (and confirmed) session key
  kFailed,        ///< establishment failed terminally
  kEvicted,       ///< removed from the active set (idle or failed)
};

std::string to_string(DeviceState s);

/// Why a device left the active set.
enum class EvictReason : std::uint8_t {
  kIdle,    ///< confirmed session aged out without activity
  kFailed,  ///< establishment failure
};

std::string to_string(EvictReason r);

/// Lifecycle record of one device. Timestamps are gateway virtual time
/// [ms]; -1 marks "not reached".
struct DeviceRecord {
  std::uint64_t device_id = 0;
  DeviceState state = DeviceState::kQueued;
  double arrival_ms = 0.0;
  double admitted_ms = -1.0;
  double established_ms = -1.0;
  double evicted_ms = -1.0;
  double last_activity_ms = 0.0;  ///< advanced by establish/rekey
  std::size_t rekeys = 0;
  FailureReason failure = FailureReason::kNone;
  std::optional<EvictReason> evict_reason;

  /// Queue wait: admission minus arrival (0 until admitted).
  double queue_wait_ms() const {
    return admitted_ms < 0.0 ? 0.0 : admitted_ms - arrival_ms;
  }
  /// Time-to-key under contention: establishment minus *arrival*, so the
  /// admission queue is part of the latency a vehicle experiences.
  double time_to_key_ms() const {
    return established_ms < 0.0 ? -1.0 : established_ms - arrival_ms;
  }
};

/// Aggregate counters the registry maintains as transitions happen.
struct RegistryStats {
  std::size_t arrivals = 0;
  std::size_t admissions = 0;
  std::size_t established = 0;
  std::size_t failures = 0;
  std::size_t evicted_idle = 0;
  std::size_t evicted_failed = 0;
  std::size_t rekeys = 0;
  std::size_t peak_inflight = 0;  ///< max concurrent kEstablishing
  std::size_t peak_queued = 0;    ///< max admission-queue depth
};

class SessionRegistry {
 public:
  /// `max_inflight` caps concurrent establishments (>= 1).
  explicit SessionRegistry(std::size_t max_inflight);

  // ------------------------------------------------------------ lifecycle

  /// A device arrives and joins the admission queue (kQueued). Device ids
  /// are dense: the i-th arrival must carry id i.
  DeviceRecord& arrive(std::uint64_t device_id, double now_ms);

  /// Admit the next queued device if a slot is free: FIFO order, at most
  /// max_inflight concurrently establishing. Returns the admitted id.
  std::optional<std::uint64_t> admit_next(double now_ms);

  /// kEstablishing -> kConfirmed: the RF exchange delivered a key.
  void established(std::uint64_t device_id, double now_ms);

  /// kEstablishing -> kFailed: terminal establishment failure.
  void failed(std::uint64_t device_id, double now_ms, FailureReason reason);

  /// A confirmed session rekeyed; counts and refreshes last activity.
  void rekeyed(std::uint64_t device_id, double now_ms);

  /// kConfirmed/kFailed -> kEvicted. Confirmed sessions evict as kIdle,
  /// failed ones as kFailed; passing a mismatched reason aborts.
  void evict(std::uint64_t device_id, double now_ms, EvictReason reason);

  // -------------------------------------------------------------- queries

  const DeviceRecord& record(std::uint64_t device_id) const;
  std::size_t size() const noexcept { return records_.size(); }
  std::size_t queued() const noexcept { return queue_.size(); }
  std::size_t establishing() const noexcept { return inflight_; }
  /// Confirmed sessions not yet evicted (the gateway's active key table).
  std::size_t confirmed_active() const noexcept { return confirmed_active_; }
  bool slot_free() const noexcept { return inflight_ < max_inflight_; }
  const RegistryStats& stats() const noexcept { return stats_; }

 private:
  DeviceRecord& mutable_record(std::uint64_t device_id);
  void update_gauges();

  std::size_t max_inflight_;
  std::vector<DeviceRecord> records_;  ///< indexed by dense device id
  std::deque<std::uint64_t> queue_;    ///< FIFO admission queue
  std::size_t inflight_ = 0;
  std::size_t confirmed_active_ = 0;
  RegistryStats stats_;
};

}  // namespace vkey::protocol
