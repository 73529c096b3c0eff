#include "nn/serialize.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "nn/dense.h"

namespace vkey::nn {
namespace {

TEST(Serialize, SnapshotRestoreRoundTrip) {
  vkey::Rng rng(1);
  Dense a(3, 4, rng), b(3, 4, rng);
  const auto snap = snapshot(a.parameters());
  restore(b.parameters(), snap);
  EXPECT_EQ(snapshot(b.parameters()), snap);
  // And the two layers now compute identically.
  const Vec x{0.1, 0.2, 0.3};
  EXPECT_EQ(a.infer(x), b.infer(x));
}

TEST(Serialize, RestoreSizeChecked) {
  vkey::Rng rng(2);
  Dense a(3, 4, rng);
  EXPECT_THROW(restore(a.parameters(), std::vector<double>(5)), vkey::Error);
}

}  // namespace
}  // namespace vkey::nn
