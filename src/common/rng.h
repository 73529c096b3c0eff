// Deterministic random number generation for reproducible simulation.
//
// Every stochastic component in the library takes an explicit 64-bit seed and
// derives its own Rng so that experiments are bit-reproducible across runs.
// The generator is xoshiro256** (Blackman & Vigna), seeded via SplitMix64,
// which is fast, high-quality and fully self-contained (no libstdc++
// implementation-defined distributions: gaussian/uniform are implemented here
// so results are identical across standard libraries).
#pragma once

#include <cmath>
#include <cstdint>

namespace vkey {

/// SplitMix64 step; used for seeding and for cheap stateless hashing of
/// (seed, index) pairs, e.g. in the position-preserving Bloom filter.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Stateless 64-bit mix of two words (used for deriving per-component seeds).
inline std::uint64_t hash_combine64(std::uint64_t a, std::uint64_t b) {
  std::uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return splitmix64(s);
}

/// xoshiro256** PRNG with explicit seeding and portable distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0xc0ffee1234abcdefULL) {
    std::uint64_t sm = seed;
    for (auto& w : s_) w = splitmix64(sm);
  }

  /// Uniform 64-bit word.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_int(std::uint64_t n) {
    // Lemire's unbiased bounded generation (rejection on the low word).
    __uint128_t m = static_cast<__uint128_t>(next_u64()) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(next_u64()) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Standard normal via Box-Muller (cached second variate).
  double gaussian() {
    if (have_cached_) {
      have_cached_ = false;
      return cached_;
    }
    double u1 = 0.0;
    do {
      u1 = uniform();
    } while (u1 <= 0.0);
    const double u2 = uniform();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_ = r * std::sin(theta);
    have_cached_ = true;
    return r * std::cos(theta);
  }

  /// Normal with given mean and standard deviation.
  double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

  /// Bernoulli(p) draw.
  bool bernoulli(double p) { return uniform() < p; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4]{};
  double cached_ = 0.0;
  bool have_cached_ = false;
};

}  // namespace vkey
