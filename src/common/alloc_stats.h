// Library-level allocation accounting.
//
// A counting allocator as a reusable layer: binaries that want exact heap
// accounting additionally link the `vkey_alloc_hooks` object library, whose
// global operator new/delete replacements report every allocation here.
// Binaries that do not link the hooks pay nothing — the counters simply
// never move and hooks_installed() stays false, so callers can gate their
// assertions.
//
// What is counted:
//   * allocations / frees — exact block counts (unsized delete is still one
//     free), so live_blocks() == allocations - frees is exact and a
//     steady-state leak shows up as monotone growth.
//   * bytes — cumulative bytes requested from operator new. There is no
//     live-bytes figure: C++ deallocation is unsized in general, so only
//     block counts can be tracked exactly on free.
//
// The counters are namespace-scope relaxed atomics — safe to bump before
// main() and from any thread (operator new runs everywhere, including inside
// the deterministic pool's workers). A thread-local pause flag (PauseScope)
// lets measurement machinery — the telemetry sampler, report writers —
// allocate without polluting the numbers they are reporting.
//
// The soak harness wraps each engine round in a PhaseScope and asserts the
// live-block delta is exactly zero once warm — the "zero steady-state
// allocation growth" gate.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vkey::alloc_stats {

struct Totals {
  std::uint64_t allocations = 0;
  std::uint64_t frees = 0;
  std::uint64_t bytes = 0;  // cumulative bytes requested
};

/// True once the interposed operator new/delete (alloc_hooks.cpp) has
/// reported at least one event — i.e. this binary actually links the hooks.
/// Assertions about allocation counts must be skipped when false.
bool hooks_installed() noexcept;

Totals totals() noexcept;

/// Exact count of currently-live heap blocks seen by the hooks.
std::int64_t live_blocks() noexcept;

/// Reporting entry points for the interposed allocator (alloc_hooks.cpp).
/// No-ops while the calling thread holds a PauseScope.
void on_alloc(std::size_t bytes) noexcept;
void on_free() noexcept;

/// True while the calling thread is inside a PauseScope.
bool paused() noexcept;

/// Suspends accounting on this thread for the scope's lifetime. Used by the
/// measurement machinery itself (telemetry sampling, report assembly) so
/// observing the allocation counters never perturbs them. Nests.
class PauseScope {
 public:
  PauseScope() noexcept;
  ~PauseScope();
  PauseScope(const PauseScope&) = delete;
  PauseScope& operator=(const PauseScope&) = delete;

 private:
  bool prev_;
};

/// Captures the counters at construction; delta() / live_delta() report the
/// movement since. Purely observational — phases may overlap freely.
class PhaseScope {
 public:
  PhaseScope() noexcept;
  Totals delta() const noexcept;
  std::int64_t live_delta() const noexcept;

 private:
  Totals start_;
  std::int64_t live_start_;
};

/// Publish the current totals as `alloc.*` gauges in the global metrics
/// registry (alloc.allocations, alloc.frees, alloc.bytes, alloc.live_blocks)
/// so the telemetry sampler can capture steady-state allocation rate.
/// Registers the gauges even when the hooks are absent — the exported
/// structure must not depend on which binary runs the sampler.
void publish_metrics();

}  // namespace vkey::alloc_stats
