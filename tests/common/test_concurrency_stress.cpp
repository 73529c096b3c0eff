// TSan-targeted stress tests for the concurrent observability primitives.
//
// The metrics registry and the bounded trace log are the only components in
// the tree that are written from several threads at once (a bench thread, a
// timer firing in protocol code, an exporter taking a snapshot). These tests
// hammer them with enough contention that ThreadSanitizer — the CI `tsan`
// job builds with -DVKEY_SANITIZE=thread — can see every ordering it cares
// about, and then assert *exact* final totals: relaxed atomics may reorder,
// but no increment is allowed to vanish.
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/alloc_stats.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "metrics_on.h"

namespace vkey::metrics {
namespace {

// ≥4 threads / ≥100k ops per instrument family, per the tooling issue.
constexpr int kThreads = 8;
constexpr int kOpsPerThread = 25000;  // 8 * 25k = 200k ops per test

TEST(ConcurrencyStress, CounterTotalsAreExactUnderContention) {
  MetricsOn on;
  Counter c;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c, t] {
      // Mix add(1) and wide adds so the total is sensitive to lost updates
      // of either flavor.
      for (int i = 0; i < kOpsPerThread; ++i) {
        c.add(i % 2 == 0 ? 1 : static_cast<std::uint64_t>(t) + 2);
      }
    });
  }
  for (auto& w : workers) w.join();

  std::uint64_t expected = 0;
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kOpsPerThread; ++i) {
      expected += i % 2 == 0 ? 1 : static_cast<std::uint64_t>(t) + 2;
    }
  }
  EXPECT_EQ(c.value(), expected);
}

TEST(ConcurrencyStress, GaugeAccumulateIsExactWithIntegralDeltas) {
  MetricsOn on;
  // Integral deltas below 2^53 are exactly representable in a double, so
  // the CAS accumulate loop must produce a bit-exact total.
  Gauge g;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&g] {
      for (int i = 0; i < kOpsPerThread; ++i) g.add(2.0);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_DOUBLE_EQ(g.value(), 2.0 * kThreads * kOpsPerThread);
}

TEST(ConcurrencyStress, HistogramCountSumAndBucketsAreExact) {
  MetricsOn on;
  Histogram h(std::vector<double>{1.0, 2.0, 4.0, 8.0});
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Cycle deterministically through all five buckets (incl. overflow).
        h.observe(static_cast<double>(i % 5) * 2.0);  // 0,2,4,6,8
      }
    });
  }
  for (auto& w : workers) w.join();

  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kOpsPerThread;
  EXPECT_EQ(h.count(), total);

  // Per-thread value pattern: 0→[≤1], 2→[≤2], 4→[≤4], 6→[≤8], 8→[≤8].
  const std::uint64_t per_value = total / 5;
  const auto buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), 5u);
  EXPECT_EQ(buckets[0], per_value);      // 0.0
  EXPECT_EQ(buckets[1], per_value);      // 2.0
  EXPECT_EQ(buckets[2], per_value);      // 4.0
  EXPECT_EQ(buckets[3], 2 * per_value);  // 6.0 and 8.0
  EXPECT_EQ(buckets[4], 0u);             // nothing above 8
  // Sum of 0+2+4+6+8 per 5-cycle, integral => exact in a double.
  EXPECT_DOUBLE_EQ(h.sum(), static_cast<double>(per_value) * 20.0);
}

TEST(ConcurrencyStress, RegistryFindOrCreateRacesYieldOneInstrument) {
  MetricsOn on;
  // All threads register the same names while hammering them; references
  // must all alias one instrument per name and no add may be lost.
  Registry& reg = Registry::global();
  const std::string name = "stress.registry.counter";
  reg.counter(name).reset();

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg, &name] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Re-look up every iteration: exercises the registry lock against
        // concurrent writers, not just the Counter atomics.
        reg.counter(name).add();
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(reg.counter(name).value(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

TEST(ConcurrencyStress, SnapshotWhileWritingIsInternallyConsistent) {
  MetricsOn on;
  Registry& reg = Registry::global();
  const std::string name = "stress.snapshot.counter";
  reg.counter(name).reset();

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&reg, &name] {
      for (int i = 0; i < kOpsPerThread; ++i) reg.counter(name).add();
    });
  }
  std::thread reader([&reg, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)reg.snapshot();
      (void)reg.to_csv();
    }
  });
  for (auto& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_EQ(reg.counter(name).value(),
            static_cast<std::uint64_t>(kThreads) * kOpsPerThread);
}

TEST(ConcurrencyStress, TraceLogWraparoundUnderContention) {
  trace::TraceLog& log = trace::TraceLog::global();
  const bool was_enabled = log.enabled();
  log.clear();
  log.set_capacity(64);  // far below the write volume => constant wraparound
  log.set_enabled(true);

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&log, t] {
      const std::string name = "w" + std::to_string(t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        trace::Span s;
        s.name = name;
        s.start_ms = static_cast<double>(i);
        s.duration_ms = 1.0;
        log.record(std::move(s));
      }
    });
  }
  // Concurrent readers + one thread flapping the enabled switch (this is
  // what caught the original non-atomic `enabled_` flag under TSan).
  std::atomic<bool> stop{false};
  std::uint64_t enabled_reads = 0;  // consumed below so the load survives -O2
  std::thread reader([&log, &stop, &enabled_reads] {
    while (!stop.load(std::memory_order_relaxed)) {
      if (log.enabled()) ++enabled_reads;  // races with flapper unless atomic
      (void)log.spans();
      (void)log.chrome_trace();
      (void)log.dropped();
    }
  });
  std::thread flapper([&log, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      log.set_enabled(false);
      log.set_enabled(true);
    }
  });
  for (auto& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  flapper.join();

  // Every record either sits in the buffer or was counted as dropped.
  const std::uint64_t total =
      static_cast<std::uint64_t>(kThreads) * kOpsPerThread;
  EXPECT_EQ(log.spans().size() + log.dropped(), total);
  EXPECT_LE(log.spans().size(), 64u);
  EXPECT_GE(enabled_reads, 0u);

  log.set_enabled(was_enabled);
  log.set_capacity(1 << 16);
  log.clear();
}

TEST(ConcurrencyStress, ScopedTimersFromManyThreadsObserveOnce) {
  MetricsOn on;
  Registry& reg = Registry::global();
  Histogram& h = reg.histogram("stress.timer.ms");
  h.reset();
  constexpr int kTimersPerThread = 12500;  // 8 * 12.5k = 100k timers

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&h] {
      double fake_ms = 0.0;
      trace::NowFn now = [&fake_ms] { return fake_ms; };
      for (int i = 0; i < kTimersPerThread; ++i) {
        trace::ScopedTimer timer(h, now);
        fake_ms += 1.0;
        timer.stop();
        timer.stop();  // idempotent: must not double-observe
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(h.count(),
            static_cast<std::uint64_t>(kThreads) * kTimersPerThread);
  EXPECT_DOUBLE_EQ(h.sum(),
                   static_cast<double>(kThreads) * kTimersPerThread);
}

TEST(ConcurrencyStress, AllocStatsCountsAreExactAcrossThreads) {
  // This binary does not link vkey_alloc_hooks, so the counters move only
  // through the direct reporting API — which makes the expected totals
  // exact, while TSan watches the relaxed atomics and the thread-local
  // pause flag for races.
  constexpr int kThreads = 8;
  constexpr int kEventsPerThread = 20'000;
  const alloc_stats::PhaseScope phase;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        alloc_stats::on_alloc(16);
        if (i % 4 == 0) {
          // A paused stretch on this thread must hide exactly its own
          // events and nobody else's.
          alloc_stats::PauseScope pause;
          alloc_stats::on_alloc(1 << 20);
          alloc_stats::on_free();
        }
        alloc_stats::on_free();
      }
    });
  }
  for (auto& w : workers) w.join();

  const alloc_stats::Totals d = phase.delta();
  const auto expected =
      static_cast<std::uint64_t>(kThreads) * kEventsPerThread;
  EXPECT_EQ(d.allocations, expected);
  EXPECT_EQ(d.frees, expected);
  EXPECT_EQ(d.bytes, expected * 16);
  EXPECT_EQ(phase.live_delta(), 0);
  EXPECT_FALSE(alloc_stats::paused());
}

}  // namespace
}  // namespace vkey::metrics
