// Machine-readable bench output.
//
// Every bench binary owns a BenchReport: it parses the flags common to the
// whole suite (`--json <path>` — write a BENCH_<name>.json snapshot,
// `--quick` — run a reduced-size variant for CI smoke runs, `--threads N` —
// worker lanes for the parallel stages; N=1 is the sequential reference and
// every N produces bit-identical results, `--trace-out <path>` — enable the
// span TraceLog for the run and write a Chrome trace-event JSON loadable in
// chrome://tracing / Perfetto, `--telemetry-out <path>` — write the bench's
// telemetry sampler as JSONL, with `--telemetry-all` widening the sample
// filter beyond the lane-invariant families), collects the tables the bench
// prints plus any extra scalars/notes, and writes one JSON document per run:
//
//   {
//     "bench": "<name>", "schema": 1, "quick": false,
//     "tables": [{"id", "caption", "headers", "rows"}, ...],
//     "scalars": {...}, "notes": {...},
//     "metrics": { ...Registry snapshot... }
//   }
//
// Table cells are the exact formatted strings the console shows, so
// bench_runner can regenerate EXPERIMENTS.md tables byte-identically from
// the snapshot. The metrics section carries the full registry (timings,
// FLOPs, airtime) for observability; it is the only non-deterministic part
// of the file. `--threads` deliberately does not appear in the document:
// the snapshot must byte-match across lane counts (CI diffs it).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>

#include "common/json.h"
#include "common/table.h"
#include "common/telemetry.h"

namespace vkey {

/// Strict count parse for command-line flags (`--threads`, `--sessions`,
/// `--rounds`): the whole token must be decimal digits and the value at
/// least 1. Anything else ("-1", "12abc", "0", "") is nullopt.
std::optional<std::size_t> parse_count(std::string_view s);

class BenchReport {
 public:
  /// `name` is the suite name without the BENCH_ prefix (e.g.
  /// "fig2_preliminary"). Exits with usage on unknown arguments.
  /// `--threads N` installs N as the process-wide default lane count
  /// (parallel::set_default_threads); the default is the hardware
  /// concurrency (or VKEY_THREADS).
  BenchReport(std::string name, int argc, char** argv);

  bool quick() const { return quick_; }
  /// Pick a size by mode: `full` normally, `quick_value` under --quick.
  std::size_t scaled(std::size_t full, std::size_t quick_value) const {
    return quick_ ? quick_value : full;
  }

  /// Register a table (in display order). `id` keys the table in the JSON
  /// and in EXPERIMENTS.md's AUTOGEN markers; `caption` is stored verbatim.
  void add_table(const std::string& id, const std::string& caption,
                 const Table& t);
  void add_scalar(const std::string& key, double value);
  void add_note(const std::string& key, const std::string& text);

  /// Attach the telemetry sampler whose JSONL write() should stream to the
  /// --telemetry-out path. The bench owns the sampler (it decides the clock
  /// and the sampling instants); the report only persists it. The pointer
  /// must stay valid until write().
  void set_telemetry(const telemetry::Sampler* sampler);

  /// Write the snapshot if --json was given (appends the current metrics
  /// registry), the Chrome trace if --trace-out was given, and the telemetry
  /// JSONL if --telemetry-out was given and a sampler is attached. Returns
  /// true when a snapshot file was written.
  bool write();

  const std::string& trace_path() const { return trace_path_; }
  const std::string& telemetry_path() const { return telemetry_path_; }
  /// --telemetry-all: sample every metric family, not just the
  /// lane-invariant telemetry::deterministic_prefixes() set (profiling
  /// mode; the output is no longer byte-diffable across --threads).
  bool telemetry_all() const { return telemetry_all_; }

 private:
  std::string name_;
  std::string path_;
  std::string trace_path_;
  std::string telemetry_path_;
  const telemetry::Sampler* telemetry_ = nullptr;
  bool telemetry_all_ = false;
  bool quick_ = false;
  json::Value tables_ = json::Value::array();
  json::Value scalars_ = json::Value::object();
  json::Value notes_ = json::Value::object();
};

}  // namespace vkey
