// Allocation audit for the ScopedTimer fast paths.
//
// The disabled paths are on the pipeline's per-sample hot loop, so they must
// not touch the heap: with VKEY_METRICS off a timer is a handful of loads;
// with metrics on but the TraceLog disabled a *named* timer must still skip
// the name copy and attribute storage entirely. The audit counts through
// alloc_stats, so it is built into test_alloc_stats — the test binary that
// links the counting allocator hooks — and asserts exact zero allocation
// across construction, attr() calls, and destruction.
#include <cstdint>

#include <gtest/gtest.h>

#include "common/alloc_stats.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "metrics_on.h"

namespace vkey::trace {
namespace {

metrics::Histogram& test_hist() {
  static metrics::Histogram& h =
      metrics::Registry::global().histogram("test.trace_alloc.ms");
  return h;
}

/// Allocations performed by `fn` after a warm-up call (the first run may
/// lazily initialize statics; steady state is what the hot loop sees).
template <typename Fn>
std::uint64_t allocations_in(Fn&& fn) {
  fn();  // warm up
  const alloc_stats::PhaseScope phase;
  fn();
  return phase.delta().allocations;
}

TEST(ScopedTimerAlloc, DisabledMetricsPathIsAllocationFree) {
  metrics::Histogram& h = test_hist();
  const bool metrics_on = metrics::enabled();
  TraceLog::global().set_enabled(true);  // even with the log on
  metrics::set_enabled(false);
  const std::uint64_t n = allocations_in([&h] {
    ScopedTimer t(h, "pipeline.reconcile_block");
    t.attr("block", 7).attr("reason", "duplicate");
  });
  metrics::set_enabled(metrics_on);
  TraceLog::global().set_enabled(false);
  TraceLog::global().clear();
  EXPECT_EQ(n, 0u);
}

TEST(ScopedTimerAlloc, NamedTimerWithTraceLogDisabledIsAllocationFree) {
  MetricsOn on;
  metrics::Histogram& h = test_hist();
  ASSERT_TRUE(metrics::enabled());
  ASSERT_FALSE(TraceLog::global().enabled());
  const std::uint64_t n = allocations_in([&h] {
    ScopedTimer t(h, "pipeline.reconcile_block");
    t.attr("block", 7).attr("reason", "duplicate");
  });
  EXPECT_EQ(n, 0u);
}

TEST(ScopedTimerAlloc, UnnamedTimerIsAllocationFreeEvenWhileTracing) {
  metrics::Histogram& h = test_hist();
  TraceLog::global().set_enabled(true);
  const std::uint64_t n = allocations_in([&h] { ScopedTimer t(h); });
  TraceLog::global().set_enabled(false);
  TraceLog::global().clear();
  EXPECT_EQ(n, 0u);
}

TEST(ScopedTimerAlloc, TracingTimerDoesAllocate) {
  MetricsOn on;
  // Control: the counter actually counts — a recording named span copies
  // its name into the log, which cannot be free.
  metrics::Histogram& h = test_hist();
  TraceLog::global().set_enabled(true);
  const std::uint64_t n = allocations_in([&h] {
    ScopedTimer t(h, "a span name comfortably beyond any SSO buffer");
  });
  TraceLog::global().set_enabled(false);
  TraceLog::global().clear();
  EXPECT_GT(n, 0u);
}

}  // namespace
}  // namespace vkey::trace
