#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.h"
#include "common/rng.h"

namespace vkey::stats {
namespace {

const std::vector<double> kSeries{1.0, 2.0, 3.0, 4.0, 5.0};

TEST(Stats, Mean) { EXPECT_DOUBLE_EQ(mean(kSeries), 3.0); }

TEST(Stats, MeanOfEmptyThrows) {
  EXPECT_THROW(mean(std::vector<double>{}), vkey::Error);
}

TEST(Stats, Variance) { EXPECT_DOUBLE_EQ(variance(kSeries), 2.0); }

TEST(Stats, Stddev) { EXPECT_DOUBLE_EQ(stddev(kSeries), std::sqrt(2.0)); }

TEST(Stats, SampleStddev) {
  EXPECT_DOUBLE_EQ(sample_stddev(kSeries), std::sqrt(2.5));
}

TEST(Stats, SampleStddevNeedsTwo) {
  EXPECT_THROW(sample_stddev(std::vector<double>{1.0}), vkey::Error);
}

TEST(Stats, PearsonPerfectPositive) {
  const std::vector<double> y{2.0, 4.0, 6.0, 8.0, 10.0};
  EXPECT_NEAR(pearson(kSeries, y), 1.0, 1e-12);
}

TEST(Stats, PearsonPerfectNegative) {
  const std::vector<double> y{5.0, 4.0, 3.0, 2.0, 1.0};
  EXPECT_NEAR(pearson(kSeries, y), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSeriesIsZero) {
  const std::vector<double> y{1.0, 1.0, 1.0, 1.0, 1.0};
  EXPECT_DOUBLE_EQ(pearson(kSeries, y), 0.0);
}

TEST(Stats, PearsonSizeMismatchThrows) {
  EXPECT_THROW(pearson(kSeries, std::vector<double>{1.0}), vkey::Error);
}

TEST(Stats, PearsonOfIndependentNoiseIsSmall) {
  vkey::Rng rng(5);
  std::vector<double> x(5000), y(5000);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.gaussian();
    y[i] = rng.gaussian();
  }
  EXPECT_LT(std::fabs(pearson(x, y)), 0.05);
}

TEST(Stats, MinMaxMedian) {
  EXPECT_DOUBLE_EQ(min(kSeries), 1.0);
  EXPECT_DOUBLE_EQ(max(kSeries), 5.0);
  EXPECT_DOUBLE_EQ(median(kSeries), 3.0);
  const std::vector<double> even{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(even), 2.5);
}

TEST(Stats, MinMax01MapsToUnitInterval) {
  const auto m = minmax01(kSeries);
  EXPECT_DOUBLE_EQ(m.front(), 0.0);
  EXPECT_DOUBLE_EQ(m.back(), 1.0);
  EXPECT_DOUBLE_EQ(m[2], 0.5);
}

TEST(Stats, MinMax01ConstantSeriesIsHalf) {
  const auto m = minmax01(std::vector<double>{7.0, 7.0});
  EXPECT_DOUBLE_EQ(m[0], 0.5);
  EXPECT_DOUBLE_EQ(m[1], 0.5);
}

}  // namespace
}  // namespace vkey::stats
