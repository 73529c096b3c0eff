// Structured tracing: scoped timers, hierarchical spans and a bounded span
// log on top of the metrics registry.
//
// A ScopedTimer measures the lifetime of a scope and, on destruction,
// observes the elapsed milliseconds into a Histogram and (optionally)
// appends a span to the global TraceLog. The time source is pluggable:
//   * default — the monotonic wall clock (benches, vkey_sim, the pipeline);
//   * any NowFn returning milliseconds — protocol code passes a lambda over
//     the PR-1 SimClock, so spans inside a simulated session are measured
//     in *virtual* time and stay bit-reproducible.
//
// Spans form per-run trees, not a flat list: every recording timer is
// assigned a process-unique id at start (its stable sequence number — ids
// are handed out in start order) and parents itself under the innermost
// open span of its execution lane via a thread-local span stack. The
// deterministic thread pool (common/parallel) propagates the submitting
// call's open span into its worker lanes and tags them with a lane id, so
// fan-out work still hangs off the stage that spawned it. Spans carry typed
// key=value attributes (`block=7`, `reason="duplicate"`) and a clock
// domain: kWall for wall-clock timers, kVirtual for SimClock-driven ones.
//
// The TraceLog is a bounded in-memory ring (a BoundedRing: oldest spans drop
// first) for post-run inspection and export; it is off by default (enable via
// VKEY_TRACE=on or TraceLog::set_enabled) because span capture allocates.
// chrome_trace() exports the buffer as Chrome trace-event JSON
// (chrome://tracing / Perfetto loadable): spans are emitted in canonical
// (start_ms, seq) order with ids remapped to dense indices, so a
// virtual-domain export is byte-identical for any worker-lane count — the
// PR-4 determinism contract extended to observability (DESIGN.md §10).
// Timers always honor the metrics enabled() switch: with VKEY_METRICS=off a
// ScopedTimer never reads the clock, and the disabled path performs no
// allocation at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/bounded_ring.h"
#include "common/json.h"
#include "common/metrics.h"

namespace vkey::trace {

/// Millisecond time source. Must be monotone within one timer's lifetime.
using NowFn = std::function<double()>;

/// Monotonic wall clock in milliseconds (steady_clock). This is the single
/// sanctioned wall-clock read in the library (vkey_lint's `wall-clock` rule
/// allowlists only its definition); all other code takes time from a NowFn.
double wall_now_ms();

/// Which clock produced a span's timestamps. Virtual-domain spans are
/// bit-reproducible and are the only ones a deterministic export may keep.
enum class Domain : std::uint8_t { kWall, kVirtual };

std::string to_string(Domain d);

/// Typed span attribute: key plus an int / double / string value.
struct Attr {
  enum class Kind : std::uint8_t { kInt, kDouble, kString };

  std::string key;
  Kind kind = Kind::kInt;
  std::int64_t i = 0;
  double d = 0.0;
  std::string s;

  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  Attr(std::string k, T v)
      : key(std::move(k)), kind(Kind::kInt), i(static_cast<std::int64_t>(v)) {}
  Attr(std::string k, double v)
      : key(std::move(k)), kind(Kind::kDouble), d(v) {}
  Attr(std::string k, std::string v)
      : key(std::move(k)), kind(Kind::kString), s(std::move(v)) {}
  Attr(std::string k, const char* v)
      : key(std::move(k)), kind(Kind::kString), s(v) {}

  json::Value to_json() const;
};

struct Span {
  std::string name;
  double start_ms = 0.0;
  double duration_ms = 0.0;
  /// Process-unique id, assigned in start order (the stable sequence
  /// number); record() assigns one to a span that arrives without.
  std::uint64_t id = 0;
  /// Id of the innermost span open when this one started; 0 = root.
  std::uint64_t parent = 0;
  /// Execution lane: 0 for the calling thread, 1..N-1 for borrowed pool
  /// workers (see parallel::parallel_for's lane annotation).
  std::uint32_t lane = 0;
  Domain domain = Domain::kWall;
  /// Instant event (zero duration, Chrome phase "i") rather than a scope.
  bool instant = false;
  std::vector<Attr> attrs;
};

/// Bounded global span ring. Oldest spans are dropped once `capacity`
/// is reached (the drop count is kept so exports are honest about it).
class TraceLog {
 public:
  static TraceLog& global();

  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  void set_capacity(std::size_t n);

  /// Reserve the next span id (ids are handed out in start order and double
  /// as the canonical-sort sequence number).
  std::uint64_t next_id() noexcept {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Append a fully-formed span (assigns an id if the span carries none).
  void record(Span span);
  /// Append an instant event at `t_ms` under the current open span.
  void instant(std::string name, double t_ms, Domain domain,
               std::vector<Attr> attrs = {});

  /// Retained spans, oldest first.
  std::vector<Span> spans() const;
  std::size_t dropped() const;
  void clear();

  /// Chrome trace-event JSON (chrome://tracing / Perfetto): complete events
  /// ("ph":"X") and instants ("ph":"i") in canonical (start_ms, seq) order
  /// with ids remapped to dense indices. `virtual_only` keeps only
  /// SimClock-domain spans — that export is byte-identical across runs and
  /// worker-lane counts (the determinism contract; CI byte-diffs it).
  json::Value chrome_trace(bool virtual_only = false) const;

  /// Write chrome_trace() to `path`; false (with a note on stderr) when the
  /// file cannot be opened.
  bool write_chrome_trace(const std::string& path,
                          bool virtual_only = false) const;

 private:
  TraceLog();

  mutable std::mutex mu_;
  // Atomic: read lock-free on every timer stop, possibly while another
  // thread toggles it (the TSan stress test exercises exactly this).
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  BoundedRing<Span> ring_{1 << 16};  // guarded by mu_
};

/// Innermost open span id on this thread (0 = none). New spans and instant
/// events parent under it.
std::uint64_t current_parent() noexcept;

/// Execution-lane id of this thread (0 = a calling thread).
std::uint32_t current_lane() noexcept;

/// RAII lane annotation for pool workers: installs a lane id and an
/// inherited ambient parent for the duration of a borrowed work chunk, so
/// spans opened inside parallel_for still hang off the submitting stage.
/// Restores the previous context on destruction.
class LaneScope {
 public:
  LaneScope(std::uint32_t lane, std::uint64_t ambient_parent) noexcept;
  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;
  ~LaneScope();

 private:
  std::uint32_t prev_lane_;
  std::uint64_t prev_parent_;
};

/// RAII scope timer. Records into `hist` (and the TraceLog, when enabled)
/// when the scope ends; stop() ends it early and returns the elapsed ms.
/// Tracing participation is decided at construction: metrics on, TraceLog
/// enabled and a non-empty name. When any of those is false the timer
/// performs no allocation for the trace machinery (and with metrics off it
/// never reads the clock at all).
class ScopedTimer {
 public:
  /// Time into an explicit histogram with the wall clock.
  explicit ScopedTimer(metrics::Histogram& hist, std::string_view name = {});
  /// Time with a custom clock (e.g. a SimClock lambda, in virtual ms).
  /// Spans from explicit clocks are tagged Domain::kVirtual: in this tree
  /// every explicit NowFn is a virtual time base.
  ScopedTimer(metrics::Histogram& hist, NowFn now, std::string_view name = {});

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  /// Attach a typed attribute to the recorded span. No-op (and
  /// allocation-free) when the timer is not tracing.
  template <typename T>
  ScopedTimer& attr(std::string_view key, T&& value) {
    if (id_ != 0) {
      attrs_.emplace_back(std::string(key), std::forward<T>(value));
    }
    return *this;
  }

  /// The span id this timer records under (0 when not tracing). Children
  /// started on this thread while the timer is open parent under it.
  std::uint64_t span_id() const noexcept { return id_; }

  /// Stop now (idempotent); returns elapsed ms (0 when metrics disabled).
  double stop();

  ~ScopedTimer();

 private:
  void begin(std::string_view name);

  metrics::Histogram* hist_;
  NowFn now_;  // empty -> wall clock
  std::string name_;           // filled only when tracing
  std::vector<Attr> attrs_;    // filled only when tracing
  double start_ms_ = 0.0;
  std::uint64_t id_ = 0;       // 0 -> not tracing
  std::uint64_t prev_parent_ = 0;
  std::uint32_t lane_ = 0;
  Domain domain_ = Domain::kWall;
  bool running_ = false;
};

}  // namespace vkey::trace
