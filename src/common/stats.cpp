#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace vkey::stats {

double mean(std::span<const double> x) {
  VKEY_REQUIRE(!x.empty(), "mean of empty series");
  double s = 0.0;
  for (double v : x) s += v;
  return s / static_cast<double>(x.size());
}

double variance(std::span<const double> x) {
  const double m = mean(x);
  double s = 0.0;
  for (double v : x) s += (v - m) * (v - m);
  return s / static_cast<double>(x.size());
}

double stddev(std::span<const double> x) { return std::sqrt(variance(x)); }

double sample_stddev(std::span<const double> x) {
  VKEY_REQUIRE(x.size() >= 2, "sample_stddev needs n >= 2");
  const double m = mean(x);
  double s = 0.0;
  for (double v : x) s += (v - m) * (v - m);
  return std::sqrt(s / static_cast<double>(x.size() - 1));
}

double pearson(std::span<const double> x, std::span<const double> y) {
  VKEY_REQUIRE(x.size() == y.size(), "pearson size mismatch");
  VKEY_REQUIRE(x.size() >= 2, "pearson needs n >= 2");
  const double mx = mean(x);
  const double my = mean(y);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx == 0.0 || syy == 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double min(std::span<const double> x) {
  VKEY_REQUIRE(!x.empty(), "min of empty series");
  return *std::min_element(x.begin(), x.end());
}

double max(std::span<const double> x) {
  VKEY_REQUIRE(!x.empty(), "max of empty series");
  return *std::max_element(x.begin(), x.end());
}

double median(std::span<const double> x) {
  VKEY_REQUIRE(!x.empty(), "median of empty series");
  std::vector<double> v(x.begin(), x.end());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return (n % 2 == 1) ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double> minmax01(std::span<const double> x) {
  const double lo = min(x);
  const double hi = max(x);
  std::vector<double> out(x.size());
  if (hi == lo) {
    std::fill(out.begin(), out.end(), 0.5);
    return out;
  }
  for (std::size_t i = 0; i < x.size(); ++i) out[i] = (x[i] - lo) / (hi - lo);
  return out;
}

}  // namespace vkey::stats
