// Deterministic virtual-clock event scheduler.
//
// The reliability layer (ARQ timeouts, fault-injected delivery latency,
// duplicate echoes) needs a notion of time, but wall-clock time would make
// every test slow and flaky. SimClock keeps virtual milliseconds: events are
// scheduled at absolute due times and executed in (due_time, insertion order)
// order, so two events at the same instant fire FIFO and every run is
// bit-reproducible. Callbacks may schedule or cancel further events while
// running — the scheduler snapshots the head entry before invoking it.
//
// A SimClock is either a per-agreement sub-scheduler (one RF exchange's ARQ
// timers and fault-delayed deliveries) or THE shared gateway timeline that
// drives every session's lifecycle events (arrival, admission, completion,
// rekey, eviction — see protocol/gateway.h). Ownership of instances inside
// src/protocol/ is linted: only the gateway engine and the reliability
// supervisor construct clocks (tools/vkey_lint.py `sim-clock-owner`), so
// virtual time has a single authority per simulation.
//
// Storage: one binary min-heap of (due, id, callback) entries in a vector
// the clock reuses, so a warm clock schedules and runs without allocating
// (beyond what a std::function needs for captures too large to store
// inline). The first schedule() reserves room for an agreement attempt's
// usual events (kInitialEvents), so a per-agreement clock allocates its
// heap once. cancel() finds its entry by a linear scan, erases it (its
// callback is released at once) and restores the heap: the clocks that
// cancel hold a handful of ARQ and rekey timers.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace vkey::protocol {

class SimClock {
 public:
  using EventId = std::uint64_t;
  using Callback = std::function<void()>;

  /// Current virtual time [ms]. Starts at 0.
  double now_ms() const noexcept { return now_ms_; }

  /// Schedule `fn` to run `delay_ms` from now (negative delays clamp to 0).
  /// Returns an id usable with cancel().
  EventId schedule(double delay_ms, Callback fn);

  /// Schedule `fn` at the absolute virtual instant `due_ms` (clamped to
  /// now_ms() when already past). The gateway engine plans lifecycle events
  /// on the shared timeline in absolute time; relative schedule() is the
  /// natural form for timeouts.
  EventId schedule_at(double due_ms, Callback fn);

  /// Remove a pending event; returns false when it already ran or was
  /// cancelled (cancelling a dead id is not an error — ARQ timers race
  /// with ACK arrivals by design).
  bool cancel(EventId id);

  /// Run the earliest pending event, advancing now_ms() to its due time.
  /// Returns false when the queue is empty.
  bool run_next();

  /// Run every event due at or before `until_ms`, then advance the clock to
  /// `until_ms` (even if idle earlier). Returns the number of events run.
  std::size_t run_until(double until_ms);

  /// Drain the queue completely (bounded by `max_events` as a runaway
  /// guard). Returns the number of events run.
  std::size_t run_until_idle(std::size_t max_events = 1u << 20);

  std::size_t pending() const noexcept { return heap_.size(); }

  /// Drop every pending event without running it; returns how many were
  /// discarded. The owner of a torn-down sub-simulation must clear the
  /// clock before reusing it: stale timer closures reference transports and
  /// sessions that no longer exist. now_ms() is unchanged — virtual time
  /// never rewinds.
  std::size_t clear();

 private:
  /// Events the first schedule() makes room for: more than an agreement
  /// attempt or a key confirmation holds at once on a lossless link.
  static constexpr std::size_t kInitialEvents = 16;

  struct Event {
    double due_ms;
    EventId id;  ///< insertion order: breaks ties between equal due times
    Callback fn;
  };

  /// Heap order (std::*_heap keep the greatest on top): the event that
  /// fires later is "greater". Ids are unique, so the order is total.
  static bool fires_after(const Event& a, const Event& b) {
    return a.due_ms != b.due_ms ? a.due_ms > b.due_ms : a.id > b.id;
  }

  double now_ms_ = 0.0;
  EventId next_id_ = 1;
  std::vector<Event> heap_;
};

}  // namespace vkey::protocol
