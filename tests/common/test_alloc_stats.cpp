// Exactness of the allocation accounting with the hooks actually linked:
// this binary (and only this one besides bench_soak) links vkey_alloc_hooks,
// so operator new/delete report every block here. Kept out of test_common —
// interposing the global allocator there would turn every other suite's
// heap noise into accounting noise.
#include "common/alloc_stats.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "metrics_on.h"

namespace vkey {
namespace {

TEST(AllocStats, HooksAreInstalledInThisBinary) {
  // gtest infrastructure has allocated plenty before this line runs.
  EXPECT_TRUE(alloc_stats::hooks_installed());
}

TEST(AllocStats, CountsBlocksAndBytesExactly) {
  constexpr std::size_t kBlocks = 64;
  constexpr std::size_t kBytes = 48;
  const alloc_stats::PhaseScope phase;
  std::vector<void*> blocks;
  blocks.reserve(kBlocks + 1);  // one vector grow, counted below
  for (std::size_t i = 0; i < kBlocks; ++i) {
    blocks.push_back(::operator new(kBytes));
  }
  const alloc_stats::Totals mid = phase.delta();
  // kBlocks explicit allocations plus the vector's single buffer.
  EXPECT_EQ(mid.allocations, kBlocks + 1);
  EXPECT_GE(mid.bytes, kBlocks * kBytes);
  EXPECT_EQ(phase.live_delta(),
            static_cast<std::int64_t>(kBlocks + 1));

  for (void* p : blocks) ::operator delete(p);
  blocks = std::vector<void*>();  // release the buffer too
  EXPECT_EQ(phase.live_delta(), 0);
  const alloc_stats::Totals end = phase.delta();
  EXPECT_EQ(end.allocations, end.frees);
}

TEST(AllocStats, PauseScopeHidesThisThreadsTraffic) {
  const alloc_stats::PhaseScope phase;
  {
    alloc_stats::PauseScope pause;
    EXPECT_TRUE(alloc_stats::paused());
    auto p = std::make_unique<std::string>(
        "long enough to defeat the small-string optimisation buffer");
    p.reset();
    EXPECT_EQ(phase.delta().allocations, 0u);
    {
      alloc_stats::PauseScope nested;  // nesting must not re-enable early
      EXPECT_TRUE(alloc_stats::paused());
    }
    EXPECT_TRUE(alloc_stats::paused());
  }
  EXPECT_FALSE(alloc_stats::paused());
  void* p = ::operator new(16);
  EXPECT_EQ(phase.delta().allocations, 1u);
  ::operator delete(p);
  EXPECT_EQ(phase.live_delta(), 0);
}

TEST(AllocStats, SteadyStateChurnHasZeroLiveGrowth) {
  // The soak gate in miniature: repeated identical alloc/free rounds must
  // leave live_blocks unchanged round over round.
  auto churn = [] {
    std::vector<std::unique_ptr<int[]>> v;
    for (int i = 0; i < 100; ++i) v.push_back(std::make_unique<int[]>(32));
  };
  churn();  // warm-up (allocator pools, vector growth heuristics)
  const alloc_stats::PhaseScope phase;
  for (int round = 0; round < 5; ++round) {
    churn();
    EXPECT_EQ(phase.live_delta(), 0) << "round " << round;
  }
  const alloc_stats::Totals d = phase.delta();
  EXPECT_EQ(d.allocations, d.frees);
  EXPECT_GT(d.allocations, 0u);
}

TEST(AllocStats, PublishMetricsExportsTheAllocGauges) {
  MetricsOn on;
  alloc_stats::publish_metrics();
  const json::Value snap = metrics::Registry::global().snapshot();
  const alloc_stats::Totals now = alloc_stats::totals();
  const json::Value& gauges = snap.at("gauges");
  ASSERT_NE(gauges.find("alloc.allocations"), nullptr);
  ASSERT_NE(gauges.find("alloc.frees"), nullptr);
  ASSERT_NE(gauges.find("alloc.bytes"), nullptr);
  ASSERT_NE(gauges.find("alloc.live_blocks"), nullptr);
  // The published values are a snapshot no newer than `now`.
  EXPECT_LE(gauges.at("alloc.allocations").at("value").as_number(),
            static_cast<double>(now.allocations));
  EXPECT_GT(gauges.at("alloc.allocations").at("value").as_number(), 0.0);
}

}  // namespace
}  // namespace vkey
