// Process-wide metrics registry: counters, gauges, fixed-bucket histograms.
//
// Every layer of the stack reports into one global registry so a bench, the
// vkey_sim driver or a test can ask "where did the time / the bits go" after
// any run:
//   * Counter   — monotonically increasing u64 (bits produced, frames sent,
//                 retransmissions, FLOPs). Lock-free atomic adds.
//   * Gauge     — last-written double plus a lock-free accumulate mode
//                 (airtime milliseconds, link budget leftovers).
//   * Histogram — fixed upper-bucket-bound distribution with count/sum
//                 (stage latencies, backoff delays). Bounds are set at
//                 registration; observations are atomic per bucket.
//
// Instruments live for the process lifetime: the registry hands out stable
// references, so hot paths register once (function-local static, or
// `metrics::counter<"name">()` below, which is one per name) and then pay
// only an atomic add per event. reset() zeroes values but never
// invalidates references.
//
// The whole subsystem is gated by one flag: the VKEY_METRICS environment
// variable ("off"/"0"/"false" disables collection at startup) or
// set_enabled(). Disabled instruments drop writes; readers still work.
// This is what the `VKEY_METRICS=off` overhead comparison in the acceptance
// bench toggles.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"

namespace vkey::metrics {

/// Global collection switch (initialized from VKEY_METRICS; default on).
bool enabled() noexcept;
void set_enabled(bool on) noexcept;

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (enabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

class Gauge {
 public:
  void set(double v) noexcept {
    if (!enabled()) return;
    v_.store(v, std::memory_order_relaxed);
    update_watermarks(v);
  }
  /// Lock-free accumulate (compare-exchange loop).
  void add(double delta) noexcept;
  double value() const noexcept {
    return v_.load(std::memory_order_relaxed);
  }
  /// Highest / lowest value written since construction, reset() or
  /// reset_watermarks(). 0.0 before the first write (the watermarks of a
  /// never-written gauge carry no information; exporters must not invent
  /// ±inf). Watermark maintenance is relaxed-atomic: concurrent writers
  /// never lose the extreme of the values they actually stored, but a
  /// reader racing a writer may briefly see value() ahead of the
  /// watermarks.
  double high_watermark() const noexcept;
  double low_watermark() const noexcept;
  /// Re-arm both watermarks to the current value (a measurement window
  /// boundary: a persistent level like `gateway.inflight` starts the next
  /// window from its live level, not from zero). A never-written gauge
  /// stays unwatermarked.
  void reset_watermarks() noexcept;
  void reset() noexcept;

 private:
  void update_watermarks(double v) noexcept;

  std::atomic<double> v_{0.0};
  // ∓inf sentinels let the watermark updates be single monotone CAS loops
  // with no racy first-write seeding; accessors hide them behind written_.
  std::atomic<double> hi_{-std::numeric_limits<double>::infinity()};
  std::atomic<double> lo_{std::numeric_limits<double>::infinity()};
  std::atomic<bool> written_{false};
};

class Histogram {
 public:
  /// `bounds` are strictly increasing upper bucket bounds; an implicit
  /// +inf bucket is appended. An empty bounds list is rejected.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const;
  double mean() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// Cumulative-free per-bucket counts, bounds().size() + 1 entries (the
  /// last is the overflow bucket).
  std::vector<std::uint64_t> bucket_counts() const;
  /// Observations beyond the last finite bound (the +inf bucket). Reported
  /// explicitly in snapshots/CSV so saturated distributions are visible
  /// instead of silently folding into the top finite bucket.
  std::uint64_t overflow_count() const noexcept {
    return buckets_.back().load(std::memory_order_relaxed);
  }
  /// Largest value observed (0.0 while empty). Tracked so the overflow
  /// bucket has a real upper edge for quantile interpolation.
  double max() const noexcept;
  /// Quantile estimate from the buckets, q in [0, 1], by linear
  /// interpolation: the bucket containing rank q*count is located in the
  /// cumulative counts and the result is interpolated between its lower and
  /// upper bound proportionally to the rank's position inside the bucket.
  /// For the overflow bucket the upper edge is max() (the largest value
  /// actually seen), so values beyond the last finite bound still move the
  /// high quantiles instead of clamping at bounds().back(). q=1 therefore
  /// returns max() whenever the overflow bucket is populated.
  double quantile(double q) const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::vector<std::atomic<std::uint64_t>> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  // -inf sentinel, same monotone-CAS scheme as the Gauge watermarks.
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
  std::atomic<bool> max_written_{false};
};

/// Default latency buckets for millisecond-scale timers: 1 µs .. 100 s in
/// 1-2.5-5 steps.
const std::vector<double>& default_time_buckets_ms();

class Registry {
 public:
  /// The process-wide registry used by all built-in instrumentation.
  static Registry& global();

  /// Find-or-create. References stay valid for the registry's lifetime.
  /// Re-registering a histogram under the same name returns the existing
  /// instrument (the original bounds win).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name,
                       const std::vector<double>& bounds =
                           default_time_buckets_ms());

  /// Zero every instrument's value; registrations (and references) survive.
  void reset();

  /// Snapshot as {"counters": {...}, "gauges": {...}, "histograms": {...}},
  /// keys sorted. Gauges are {"value", "high", "low"} objects (watermarks);
  /// histograms carry count/sum/mean/p50/p90/p99/overflow/max and the raw
  /// buckets. Instruments with zero events are included (their registration
  /// is information too).
  json::Value snapshot() const;
  std::string to_json(int indent = 2) const;
  /// Flat CSV: kind,name,field,value — one line per scalar, one per bucket.
  std::string to_csv() const;

 private:
  mutable std::mutex mu_;  // guards the maps; instruments are lock-free
  std::vector<std::pair<std::string, std::unique_ptr<Counter>>> counters_;
  std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> gauges_;
  std::vector<std::pair<std::string, std::unique_ptr<Histogram>>> histograms_;
};

/// A string literal as a template argument: the instrument name of the
/// cached handles below.
template <std::size_t N>
struct Name {
  constexpr Name(const char (&text)[N]) {  // implicit: counter<"a.b">()
    for (std::size_t i = 0; i < N; ++i) chars[i] = text[i];
  }
  char chars[N]{};
};

/// The global registry's instrument `name`, looked up on its first use and
/// cached for the process: a hot path takes the registry's lock and scans
/// its entries once per name, not once per event. Registration stays lazy
/// per name, so snapshots list exactly the instruments a run touched.
template <Name name>
Counter& counter() {
  static Counter& c = Registry::global().counter(name.chars);
  return c;
}
template <Name name>
Gauge& gauge() {
  static Gauge& g = Registry::global().gauge(name.chars);
  return g;
}
template <Name name>
Histogram& histogram() {
  static Histogram& h = Registry::global().histogram(name.chars);
  return h;
}

}  // namespace vkey::metrics
