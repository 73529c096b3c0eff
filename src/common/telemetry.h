// Time-series telemetry: periodic delta-encoded samples of the metrics
// registry, streamed as canonical JSONL.
//
// The BENCH_*.json snapshots answer "where did the time go" for one run;
// they cannot show a slow leak, a drifting queue depth, or a keys/s
// regression over hours of virtual time. The Sampler closes that gap: a
// driver calls sample(t_ms) on its own clock — SimClock virtual time in
// gateway/soak runs, wall time in benches — and each call captures only what
// changed since the previous sample:
//   * counters   — the delta since the last sample,
//   * gauges     — the {value, high, low} triple when any component moved,
//   * histograms — the count delta plus absolute p50/p90/p99, overflow
//                  count and observed max when the count moved.
// Unchanged instruments are omitted, so an idle period costs a few bytes
// per sample and a steady-state run stays readable.
//
// Samples are rendered to compact JSON lines immediately and kept in a
// BoundedRing (oldest evicted first, eviction counted); the JSONL document
// is one header line, the retained sample lines, and one summary line.
//
// Determinism contract (same as the Chrome-trace exporter): when the driver
// samples at virtual-time instants and restricts itself to the
// deterministic_prefixes() metric families, the JSONL output is
// byte-identical across --threads lane counts — CI diffs 1-vs-4-lane runs.
// Wall-clock histograms, alloc.* and pool-internal metrics are lane- or
// schedule-dependent and are outside the default filter.
//
// The sampler never perturbs the allocation accounting it reports: every
// sample() runs under an alloc_stats::PauseScope, and alloc.* gauges are
// republished from alloc_stats immediately before each snapshot.
//
// Security note: samples carry instrument names and numeric values only.
// The annotate() side-channel is for run parameters (seed, lane count,
// interval); key material must never reach it — vkey_secretflow's
// secret-to-telemetry rule audits exactly this sink.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/bounded_ring.h"
#include "common/json.h"

namespace vkey::telemetry {

/// Metric-name prefixes whose values are functions of (seed, virtual time)
/// only — safe to byte-diff across thread counts. Excludes wall-clock timer
/// families (bench.*, nn.*, phy.*, pipeline.*), alloc.* and parallel.*
/// (lane-dependent by construction).
const std::vector<std::string>& deterministic_prefixes();

struct SamplerConfig {
  /// Keep an instrument only when its name starts with one of these;
  /// empty = keep everything (profiling mode, not byte-diffable).
  std::vector<std::string> include_prefixes;
  /// Retained samples; older lines are evicted (and counted as dropped).
  std::size_t ring_capacity = 4096;
  /// Free-form origin tag written into the header line.
  std::string source;
};

class Sampler {
 public:
  explicit Sampler(SamplerConfig cfg);

  /// Attach a run parameter to the header line (seed, sessions, interval).
  /// Later writes to the same key overwrite; insertion order is preserved.
  void annotate(const std::string& key, const std::string& value);

  /// Take one sample at time `t_ms` (caller's clock — virtual or wall).
  /// Sample times must be non-decreasing.
  void sample(double t_ms);

  std::uint64_t samples_taken() const noexcept { return seq_; }
  std::uint64_t dropped() const noexcept { return ring_.dropped(); }
  /// Retained sample lines, oldest first (compact JSON, no newlines).
  std::vector<std::string> lines() const { return ring_.to_vector(); }

  std::string header_line() const;
  std::string summary_line() const;
  /// Full JSONL document: header, retained samples, summary.
  std::string to_jsonl() const;
  void write_jsonl(const std::string& path) const;

 private:
  bool included(const std::string& name) const;

  SamplerConfig cfg_;
  json::Value annotations_ = json::Value::object();

  // Previous absolute state for the delta encoding (all instruments start
  // implicitly at zero, so the first sample is itself a delta from zero).
  std::map<std::string, double> prev_counters_;
  struct GaugeState {
    double value = 0.0, high = 0.0, low = 0.0;
    bool operator==(const GaugeState&) const = default;
  };
  std::map<std::string, GaugeState> prev_gauges_;
  std::map<std::string, double> prev_hist_counts_;

  BoundedRing<std::string> ring_;
  std::uint64_t seq_ = 0;
  double last_t_ms_ = 0.0;
};

}  // namespace vkey::telemetry
