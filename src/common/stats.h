// Descriptive statistics used across preliminary-study and evaluation code.
//
// Pearson correlation is the paper's figure of merit for channel reciprocity
// (Fig. 2, Fig. 3, Fig. 9); mean/stddev back every "average ± std" row.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace vkey::stats {

/// Arithmetic mean; requires non-empty input.
double mean(std::span<const double> x);

/// Population variance (divide by n); requires non-empty input.
double variance(std::span<const double> x);

/// Population standard deviation.
double stddev(std::span<const double> x);

/// Sample standard deviation (divide by n-1); requires n >= 2.
double sample_stddev(std::span<const double> x);

/// Pearson correlation coefficient of two equal-length series (n >= 2).
/// Returns 0 when either series is constant (degenerate correlation).
double pearson(std::span<const double> x, std::span<const double> y);

/// Minimum / maximum of a non-empty series.
double min(std::span<const double> x);
double max(std::span<const double> x);

/// Median (copies and sorts); requires non-empty input.
double median(std::span<const double> x);

/// Min-max normalization into [0,1]. A constant series maps to 0.5.
std::vector<double> minmax01(std::span<const double> x);

}  // namespace vkey::stats
