// NIST SP 800-22 statistical randomness tests (the subset reported in the
// paper's Table II, plus the Runs test). The rest of the battery (serial,
// overlapping template, universal, random excursions) is not implemented:
// nothing in the evaluation reports it.
//
// Each test returns a p-value; the randomness hypothesis is rejected when
// p < 0.01 (the paper's threshold). Implementations follow the formulas in
// NIST SP 800-22 rev 1a. Notes on deviations:
//  * The DFT test uses the first 2^k bits of the input (radix-2 FFT); the
//    reference implementation's arbitrary-length DFT has the same asymptotic
//    distribution.
//  * Recommended minimum input lengths vary per test; run_suite() skips a
//    test (marks it not-applicable) when the input is too short rather than
//    reporting a meaningless p-value.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/bitvec.h"

namespace vkey::nist {

/// Frequency (monobit) test.
double frequency_test(const BitVec& bits);

/// Frequency within a block; `block_len` = M (default 128).
double block_frequency_test(const BitVec& bits, std::size_t block_len = 128);

/// Runs test (oscillation rate).
double runs_test(const BitVec& bits);

/// Longest run of ones in a block. Supports n >= 128 (M = 8) and
/// n >= 6272 (M = 128).
double longest_run_test(const BitVec& bits);

/// Discrete Fourier Transform (spectral) test on the leading 2^k bits.
double dft_test(const BitVec& bits);

/// Cumulative sums test; `forward` selects the scan direction.
double cumulative_sums_test(const BitVec& bits, bool forward = true);

/// Approximate entropy with pattern length m (default 2).
double approximate_entropy_test(const BitVec& bits, std::size_t m = 2);

/// Non-overlapping template matching. Default template is the SP 800-22
/// example B = 000000001 with N = 8 blocks.
double non_overlapping_template_test(const BitVec& bits,
                                     const BitVec& tmpl = BitVec::from_string(
                                         "000000001"),
                                     std::size_t num_blocks = 8);

/// Linear complexity test (Berlekamp-Massey) with block length M
/// (default 500). Requires at least one full block.
double linear_complexity_test(const BitVec& bits, std::size_t block_len = 500);

/// Berlekamp-Massey: linear complexity of a binary sequence (exposed for
/// testing).
std::size_t berlekamp_massey(const std::vector<std::uint8_t>& s);

struct TestResult {
  std::string name;
  std::optional<double> p_value;  ///< nullopt if input too short for test
  bool pass() const { return p_value.has_value() && *p_value >= 0.01; }
};

/// Run the Table II battery on a bit sequence.
std::vector<TestResult> run_suite(const BitVec& bits);

}  // namespace vkey::nist
