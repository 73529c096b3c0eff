#include "nist/nist.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/fft.h"
#include "common/special.h"

namespace vkey::nist {

using vkey::special::erfc;
using vkey::special::igamc;
using vkey::special::normal_cdf;

double frequency_test(const BitVec& bits) {
  const std::size_t n = bits.size();
  VKEY_REQUIRE(n >= 100, "frequency test needs n >= 100");
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) s += bits.get(i) ? 1.0 : -1.0;
  const double s_obs = std::fabs(s) / std::sqrt(static_cast<double>(n));
  return erfc(s_obs / std::sqrt(2.0));
}

double block_frequency_test(const BitVec& bits, std::size_t block_len) {
  const std::size_t n = bits.size();
  VKEY_REQUIRE(block_len >= 20, "block length must be >= 20");
  const std::size_t num_blocks = n / block_len;
  VKEY_REQUIRE(num_blocks >= 1, "block frequency needs one full block");
  double chi2 = 0.0;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    std::size_t ones = 0;
    for (std::size_t i = 0; i < block_len; ++i) {
      ones += bits.get(b * block_len + i);
    }
    const double pi = static_cast<double>(ones) /
                      static_cast<double>(block_len);
    chi2 += (pi - 0.5) * (pi - 0.5);
  }
  chi2 *= 4.0 * static_cast<double>(block_len);
  return igamc(static_cast<double>(num_blocks) / 2.0, chi2 / 2.0);
}

double runs_test(const BitVec& bits) {
  const std::size_t n = bits.size();
  VKEY_REQUIRE(n >= 100, "runs test needs n >= 100");
  const double pi = static_cast<double>(bits.weight()) /
                    static_cast<double>(n);
  const double tau = 2.0 / std::sqrt(static_cast<double>(n));
  if (std::fabs(pi - 0.5) >= tau) return 0.0;  // frequency pre-test fails
  std::size_t v = 1;
  for (std::size_t i = 1; i < n; ++i) v += bits.get(i) != bits.get(i - 1);
  const double num =
      std::fabs(static_cast<double>(v) -
                2.0 * static_cast<double>(n) * pi * (1.0 - pi));
  const double den = 2.0 * std::sqrt(2.0 * static_cast<double>(n)) * pi *
                     (1.0 - pi);
  return erfc(num / den);
}

double longest_run_test(const BitVec& bits) {
  const std::size_t n = bits.size();
  VKEY_REQUIRE(n >= 128, "longest run test needs n >= 128");

  std::size_t m_len;
  std::vector<double> pi;
  std::vector<std::size_t> v_edges;  // category boundaries for longest run
  if (n < 6272) {
    m_len = 8;
    pi = {0.2148, 0.3672, 0.2305, 0.1875};
    v_edges = {1, 2, 3, 4};  // <=1, 2, 3, >=4
  } else {
    m_len = 128;
    pi = {0.1174, 0.2430, 0.2493, 0.1752, 0.1027, 0.1124};
    v_edges = {4, 5, 6, 7, 8, 9};  // <=4, 5, 6, 7, 8, >=9
  }
  const std::size_t num_blocks = n / m_len;
  std::vector<std::size_t> counts(pi.size(), 0);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    std::size_t longest = 0, run = 0;
    for (std::size_t i = 0; i < m_len; ++i) {
      if (bits.get(b * m_len + i)) {
        ++run;
        longest = std::max(longest, run);
      } else {
        run = 0;
      }
    }
    std::size_t cat = pi.size() - 1;
    for (std::size_t k = 0; k < v_edges.size(); ++k) {
      if (longest <= v_edges[k]) {
        cat = k;
        break;
      }
    }
    ++counts[cat];
  }
  double chi2 = 0.0;
  const double nb = static_cast<double>(num_blocks);
  for (std::size_t k = 0; k < pi.size(); ++k) {
    const double expect = nb * pi[k];
    const double d = static_cast<double>(counts[k]) - expect;
    chi2 += d * d / expect;
  }
  return igamc(static_cast<double>(pi.size() - 1) / 2.0, chi2 / 2.0);
}

double dft_test(const BitVec& bits) {
  VKEY_REQUIRE(bits.size() >= 128, "dft test needs n >= 128");
  // Use the leading power-of-two prefix (see header note).
  std::size_t n = 1;
  while (n * 2 <= bits.size()) n *= 2;

  std::vector<double> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = bits.get(i) ? 1.0 : -1.0;
  auto spectrum = vkey::fftmod::fft_real(x);

  const double threshold =
      std::sqrt(std::log(1.0 / 0.05) * static_cast<double>(n));
  const std::size_t half = n / 2;
  std::size_t below = 0;
  for (std::size_t i = 0; i < half; ++i) {
    if (std::abs(spectrum[i]) < threshold) ++below;
  }
  const double n0 = 0.95 * static_cast<double>(half);
  const double n1 = static_cast<double>(below);
  const double d =
      (n1 - n0) /
      std::sqrt(static_cast<double>(n) * 0.95 * 0.05 / 4.0);
  return erfc(std::fabs(d) / std::sqrt(2.0));
}

double cumulative_sums_test(const BitVec& bits, bool forward) {
  const std::size_t n = bits.size();
  VKEY_REQUIRE(n >= 100, "cumulative sums test needs n >= 100");
  long long sum = 0;
  long long z = 0;
  for (std::size_t idx = 0; idx < n; ++idx) {
    const std::size_t i = forward ? idx : n - 1 - idx;
    sum += bits.get(i) ? 1 : -1;
    z = std::max(z, std::llabs(sum));
  }
  const double zd = static_cast<double>(z);
  const double nd = static_cast<double>(n);
  const double sqrt_n = std::sqrt(nd);

  double p = 1.0;
  const long long k_lo1 = static_cast<long long>(
      std::floor((-nd / zd + 1.0) / 4.0));
  const long long k_hi1 = static_cast<long long>(
      std::floor((nd / zd - 1.0) / 4.0));
  for (long long k = k_lo1; k <= k_hi1; ++k) {
    p -= normal_cdf((4.0 * static_cast<double>(k) + 1.0) * zd / sqrt_n) -
         normal_cdf((4.0 * static_cast<double>(k) - 1.0) * zd / sqrt_n);
  }
  const long long k_lo2 = static_cast<long long>(
      std::floor((-nd / zd - 3.0) / 4.0));
  const long long k_hi2 = static_cast<long long>(
      std::floor((nd / zd - 1.0) / 4.0));
  for (long long k = k_lo2; k <= k_hi2; ++k) {
    p += normal_cdf((4.0 * static_cast<double>(k) + 3.0) * zd / sqrt_n) -
         normal_cdf((4.0 * static_cast<double>(k) + 1.0) * zd / sqrt_n);
  }
  return std::clamp(p, 0.0, 1.0);
}

namespace {
// phi(m) term of the approximate entropy statistic with wrap-around.
double apen_phi(const BitVec& bits, std::size_t m) {
  if (m == 0) return 0.0;
  const std::size_t n = bits.size();
  const std::size_t patterns = 1u << m;
  std::vector<std::size_t> counts(patterns, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t idx = 0;
    for (std::size_t j = 0; j < m; ++j) {
      idx = (idx << 1) | bits.get((i + j) % n);
    }
    ++counts[idx];
  }
  double phi = 0.0;
  for (std::size_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(n);
    phi += p * std::log(p);
  }
  return phi;
}
}  // namespace

double approximate_entropy_test(const BitVec& bits, std::size_t m) {
  const std::size_t n = bits.size();
  VKEY_REQUIRE(n >= 100, "approximate entropy test needs n >= 100");
  VKEY_REQUIRE(m >= 1 && (1u << (m + 1)) < n, "pattern length too large");
  const double apen = apen_phi(bits, m) - apen_phi(bits, m + 1);
  const double chi2 =
      2.0 * static_cast<double>(n) * (std::log(2.0) - apen);
  return igamc(std::pow(2.0, static_cast<double>(m) - 1.0), chi2 / 2.0);
}

double non_overlapping_template_test(const BitVec& bits, const BitVec& tmpl,
                                     std::size_t num_blocks) {
  const std::size_t n = bits.size();
  const std::size_t m = tmpl.size();
  VKEY_REQUIRE(m >= 2, "template too short");
  VKEY_REQUIRE(num_blocks >= 2, "need at least 2 blocks");
  const std::size_t block_len = n / num_blocks;
  VKEY_REQUIRE(block_len > m, "blocks shorter than template");

  const double mu =
      static_cast<double>(block_len - m + 1) /
      std::pow(2.0, static_cast<double>(m));
  const double sigma2 =
      static_cast<double>(block_len) *
      (1.0 / std::pow(2.0, static_cast<double>(m)) -
       (2.0 * static_cast<double>(m) - 1.0) /
           std::pow(2.0, 2.0 * static_cast<double>(m)));

  double chi2 = 0.0;
  for (std::size_t b = 0; b < num_blocks; ++b) {
    std::size_t w = 0;
    std::size_t i = 0;
    while (i + m <= block_len) {
      bool match = true;
      for (std::size_t j = 0; j < m; ++j) {
        if (bits.get(b * block_len + i + j) != tmpl.get(j)) {
          match = false;
          break;
        }
      }
      if (match) {
        ++w;
        i += m;  // non-overlapping scan
      } else {
        ++i;
      }
    }
    const double d = static_cast<double>(w) - mu;
    chi2 += d * d / sigma2;
  }
  return igamc(static_cast<double>(num_blocks) / 2.0, chi2 / 2.0);
}

std::size_t berlekamp_massey(const std::vector<std::uint8_t>& s) {
  const std::size_t n = s.size();
  std::vector<std::uint8_t> c(n, 0), b(n, 0);
  c[0] = 1;
  b[0] = 1;
  std::size_t l = 0;
  long long m = -1;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint8_t d = s[i];
    for (std::size_t j = 1; j <= l; ++j) d ^= static_cast<std::uint8_t>(c[j] & s[i - j]);
    if (d == 1) {
      const std::vector<std::uint8_t> t = c;
      const std::size_t shift = static_cast<std::size_t>(
          static_cast<long long>(i) - m);
      for (std::size_t j = 0; j + shift < n; ++j) {
        c[j + shift] = static_cast<std::uint8_t>(c[j + shift] ^ b[j]);
      }
      if (l <= i / 2) {
        l = i + 1 - l;
        m = static_cast<long long>(i);
        b = t;
      }
    }
  }
  return l;
}

double linear_complexity_test(const BitVec& bits, std::size_t block_len) {
  const std::size_t n = bits.size();
  VKEY_REQUIRE(block_len >= 100, "linear complexity block too short");
  const std::size_t num_blocks = n / block_len;
  VKEY_REQUIRE(num_blocks >= 1, "linear complexity needs one full block");

  const double m_d = static_cast<double>(block_len);
  const double sign = (block_len % 2 == 0) ? 1.0 : -1.0;
  const double mu = m_d / 2.0 + (9.0 - sign) / 36.0 -
                    (m_d / 3.0 + 2.0 / 9.0) / std::pow(2.0, m_d);

  static const double kPi[7] = {0.010417, 0.03125, 0.125,   0.5,
                                0.25,     0.0625,  0.020833};
  std::vector<std::size_t> counts(7, 0);
  for (std::size_t b = 0; b < num_blocks; ++b) {
    std::vector<std::uint8_t> block(block_len);
    for (std::size_t i = 0; i < block_len; ++i) {
      block[i] = bits.get(b * block_len + i);
    }
    const double l = static_cast<double>(berlekamp_massey(block));
    const double t = sign * (l - mu) + 2.0 / 9.0;
    std::size_t cat;
    if (t <= -2.5) cat = 0;
    else if (t <= -1.5) cat = 1;
    else if (t <= -0.5) cat = 2;
    else if (t <= 0.5) cat = 3;
    else if (t <= 1.5) cat = 4;
    else if (t <= 2.5) cat = 5;
    else cat = 6;
    ++counts[cat];
  }
  double chi2 = 0.0;
  for (std::size_t k = 0; k < 7; ++k) {
    const double expect = static_cast<double>(num_blocks) * kPi[k];
    const double d = static_cast<double>(counts[k]) - expect;
    chi2 += d * d / expect;
  }
  return igamc(3.0, chi2 / 2.0);
}

std::vector<TestResult> run_suite(const BitVec& bits) {
  std::vector<TestResult> out;
  auto run = [&](const std::string& name, auto&& fn,
                 std::size_t min_bits) {
    TestResult r{name, std::nullopt};
    if (bits.size() >= min_bits) r.p_value = fn();
    out.push_back(r);
  };
  run("Frequency", [&] { return frequency_test(bits); }, 100);
  run("DFT Test", [&] { return dft_test(bits); }, 128);
  run("Longest Run", [&] { return longest_run_test(bits); }, 128);
  run("Linear Complexity", [&] { return linear_complexity_test(bits); },
      500);
  run("Block Frequency", [&] { return block_frequency_test(bits); }, 128);
  run("Cumulative Sums", [&] { return cumulative_sums_test(bits); }, 100);
  run("Approximate Entropy", [&] { return approximate_entropy_test(bits); },
      100);
  run("Non Overlapping Template",
      [&] { return non_overlapping_template_test(bits); }, 100);
  run("Runs", [&] { return runs_test(bits); }, 100);
  return out;
}

}  // namespace vkey::nist
