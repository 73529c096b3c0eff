// Compact bit vector used for keys and quantizer outputs.
//
// Keys in Vehicle-Key are sequences of bits that flow through quantization,
// Bloom mapping, reconciliation (XOR algebra) and privacy amplification.
// BitVec provides exactly the operations those stages need: indexed access,
// XOR, Hamming distance/weight, byte (de)serialization and pretty printing.
// The synthetic-key generators below draw the keys that training, the
// figures and the tests feed those stages.
//
// Storage: one byte per bit in a SmallBuffer that keeps kInlineBits bits
// inside the object, which covers every raw, Bloom-mapped and final key
// (64 and 128 bits), so building, copying or XORing a key allocates
// nothing; longer vectors (key streams, quantizer outputs) use one heap
// block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/small_buffer.h"

namespace vkey {

class Rng;

class BitVec {
 public:
  /// Bits held without a heap block.
  static constexpr std::size_t kInlineBits = 128;

  BitVec() = default;

  /// All-zero vector of `n` bits.
  explicit BitVec(std::size_t n) : bits_(n, 0) {}

  /// From an explicit 0/1 sequence.
  explicit BitVec(std::span<const std::uint8_t> bits);

  /// Parse from a string of '0'/'1' characters (other chars are rejected).
  static BitVec from_string(const std::string& s);

  /// Unpack from bytes, MSB-first within each byte, taking `nbits` bits.
  static BitVec from_bytes(std::span<const std::uint8_t> bytes,
                           std::size_t nbits);

  std::size_t size() const noexcept { return bits_.size(); }
  bool empty() const noexcept { return bits_.empty(); }

  /// Bit access (0 or 1). Bounds-checked.
  std::uint8_t get(std::size_t i) const;
  void set(std::size_t i, bool v);
  void flip(std::size_t i);

  /// Append a single bit.
  void push_back(bool v) { bits_.push_back(v ? 1 : 0); }

  /// Room for `n` bits, so appending up to `n` allocates at most once.
  void reserve(std::size_t n) { bits_.reserve(n); }

  /// Append all bits of `other`.
  void append(const BitVec& other);

  /// Sub-range [pos, pos+len).
  BitVec slice(std::size_t pos, std::size_t len) const;

  /// Element-wise XOR; sizes must match.
  BitVec operator^(const BitVec& rhs) const;

  bool operator==(const BitVec& rhs) const noexcept {
    return bits_ == rhs.bits_;
  }
  bool operator!=(const BitVec& rhs) const noexcept {
    return bits_ != rhs.bits_;
  }

  /// Number of set bits.
  std::size_t weight() const;

  /// Number of differing positions; sizes must match.
  std::size_t hamming_distance(const BitVec& rhs) const;

  /// Fraction of agreeing bits in [0,1]; sizes must match, size > 0.
  double agreement(const BitVec& rhs) const;

  /// Pack MSB-first into bytes (last byte zero-padded).
  std::vector<std::uint8_t> to_bytes() const;

  /// Bytes [first_byte, first_byte + out.size()) of to_bytes(), written
  /// into `out` without allocating (callers that hash or MAC a key pack it
  /// into a stack block they wipe). The range must lie within to_bytes().
  void pack_bytes(std::size_t first_byte, std::span<std::uint8_t> out) const;

  /// Render as a '0'/'1' string.
  std::string to_string() const;

  /// Bits as a vector of 0.0/1.0 doubles (neural-network I/O).
  std::vector<double> to_doubles() const;

  /// Build from real values thresholded at 0.5.
  static BitVec from_doubles_threshold(std::span<const double> v,
                                       double threshold = 0.5);

 private:
  SmallBuffer<std::uint8_t, kInlineBits> bits_;  // one byte per bit: 0 or 1
};

// Synthetic keys: the pairs (K_B, K_A = K_B xor e) the reconciler trains
// on (paper Sec. IV-C), and the probe material of figures and tests. Each
// draws from the caller's stream in a fixed order, so a seed pins the key;
// the rvalue forms start a fresh stream in place: random_bits(64, Rng(7)).

/// `n` fair bits: bit i is rng.bernoulli(0.5), i ascending.
BitVec random_bits(std::size_t n, Rng& rng);
inline BitVec random_bits(std::size_t n, Rng&& rng) {
  return random_bits(n, rng);
}

/// `key` with `count` flips, each at rng.uniform_int(key.size()). A
/// position may repeat, so at most `count` bits differ.
BitVec with_flips(const BitVec& key, std::size_t count, Rng& rng);
inline BitVec with_flips(const BitVec& key, std::size_t count, Rng&& rng) {
  return with_flips(key, count, rng);
}

/// `key` through a binary symmetric channel: bit i flips when
/// rng.bernoulli(p), i ascending.
BitVec with_noise(const BitVec& key, double p, Rng& rng);

}  // namespace vkey
