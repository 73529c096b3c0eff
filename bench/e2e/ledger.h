// Host clocks and the per-layer span ledger of bench_e2e.
//
// The ledger attributes host cost to the layers of the stack from outside:
// the benchmark opens a Span around each call it makes into a layer's
// public functions (TraceGenerator, extract_streams/make_samples,
// PredictorQuantizer::infer, the agreement, KeySchedule). A span measures
// the calling thread's CPU time and the heap allocations made while it is
// open, and subtracts what its child spans on the same thread measured, so
// every layer reports self cost. Spans nest on a fixed per-thread stack and
// fold into atomic per-layer totals, so recording allocates nothing.
//
// Allocation deltas read the process-wide counters of alloc_stats: they are
// exact while one thread works (single_link) and include the other lane's
// traffic when two lanes run at once.
//
// With export on, every closed span is also appended to the library's
// in-memory trace::TraceLog (under an alloc_stats::PauseScope, so the export
// does not show up in the counts); BenchReport writes it as a Chrome trace
// at exit.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace e2e {

/// Monotonic wall clock [ms].
double wall_ms();
/// CPU time of the whole process, all threads [ms].
double process_cpu_ms();
/// CPU time of the calling thread [ms].
double thread_cpu_ms();
/// Peak resident set size of the process [MiB].
double peak_rss_mb();

enum class Layer : std::uint8_t {
  kProbe,        ///< channel: TraceGenerator
  kExtract,      ///< core: extract_streams + make_samples
  kPredict,      ///< core: PredictorQuantizer::infer
  kAgree,        ///< protocol: reliable agreement / gateway engine
  kKeySchedule,  ///< protocol: KeySchedule build, confirm, rekey, seal/open
  kCount,
};

struct LayerTotals {
  std::uint64_t calls = 0;
  double self_cpu_ms = 0.0;
  std::uint64_t self_allocs = 0;
};

class Ledger {
 public:
  /// Spans record only while enabled (the untraced run opens no spans).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  /// Mirror closed spans into trace::TraceLog for the Chrome export.
  void set_export(bool on) { export_ = on; }

  LayerTotals totals(Layer layer) const;
  /// Account cost measured outside a span (e.g. the gateway engine's CPU on
  /// every lane, which no single-thread span can see).
  void add(Layer layer, std::uint64_t calls, double cpu_ms,
           std::uint64_t allocs);

  /// RAII span around one call into `layer`; `calls` is how many layer
  /// calls it stands for (a pool extraction covers many windows).
  class Span {
   public:
    Span(Ledger& ledger, Layer layer, std::uint64_t calls = 1);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Ledger* ledger_;  ///< null when the ledger was disabled at open
  };

 private:
  struct Slot {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> self_cpu_ns{0};
    std::atomic<std::uint64_t> self_allocs{0};
  };
  std::array<Slot, static_cast<std::size_t>(Layer::kCount)> slots_;
  bool enabled_ = false;
  bool export_ = false;
};

}  // namespace e2e
