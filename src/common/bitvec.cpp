#include "common/bitvec.h"

#include "common/error.h"
#include "common/rng.h"

namespace vkey {

BitVec::BitVec(std::span<const std::uint8_t> bits) : bits_(bits) {
  for (auto b : bits_) {
    VKEY_REQUIRE(b == 0 || b == 1, "BitVec elements must be 0 or 1");
  }
}

BitVec BitVec::from_string(const std::string& s) {
  BitVec out;
  out.bits_.reserve(s.size());
  for (char c : s) {
    VKEY_REQUIRE(c == '0' || c == '1', "BitVec string must be 0/1");
    out.bits_.push_back(c == '1' ? 1 : 0);
  }
  return out;
}

BitVec BitVec::from_bytes(std::span<const std::uint8_t> bytes,
                          std::size_t nbits) {
  VKEY_REQUIRE(nbits <= bytes.size() * 8, "not enough bytes for nbits");
  BitVec out;
  out.bits_.reserve(nbits);
  for (std::size_t i = 0; i < nbits; ++i) {
    const std::uint8_t byte = bytes[i / 8];
    out.bits_.push_back((byte >> (7 - (i % 8))) & 1u);
  }
  return out;
}

std::uint8_t BitVec::get(std::size_t i) const {
  VKEY_REQUIRE(i < bits_.size(), "BitVec index out of range");
  return bits_[i];
}

void BitVec::set(std::size_t i, bool v) {
  VKEY_REQUIRE(i < bits_.size(), "BitVec index out of range");
  bits_[i] = v ? 1 : 0;
}

void BitVec::flip(std::size_t i) {
  VKEY_REQUIRE(i < bits_.size(), "BitVec index out of range");
  bits_[i] ^= 1u;
}

void BitVec::append(const BitVec& other) { bits_.append(other.bits_); }

BitVec BitVec::slice(std::size_t pos, std::size_t len) const {
  VKEY_REQUIRE(pos + len <= bits_.size(), "BitVec slice out of range");
  BitVec out;
  out.bits_.assign(std::span<const std::uint8_t>(bits_).subspan(pos, len));
  return out;
}

BitVec BitVec::operator^(const BitVec& rhs) const {
  VKEY_REQUIRE(size() == rhs.size(), "BitVec XOR size mismatch");
  BitVec out(size());
  for (std::size_t i = 0; i < size(); ++i) {
    out.bits_[i] = bits_[i] ^ rhs.bits_[i];
  }
  return out;
}

std::size_t BitVec::weight() const {
  std::size_t w = 0;
  for (auto b : bits_) w += b;
  return w;
}

std::size_t BitVec::hamming_distance(const BitVec& rhs) const {
  VKEY_REQUIRE(size() == rhs.size(), "hamming_distance size mismatch");
  std::size_t d = 0;
  for (std::size_t i = 0; i < size(); ++i) d += bits_[i] != rhs.bits_[i];
  return d;
}

double BitVec::agreement(const BitVec& rhs) const {
  VKEY_REQUIRE(!empty(), "agreement of empty BitVec");
  const std::size_t d = hamming_distance(rhs);
  return 1.0 - static_cast<double>(d) / static_cast<double>(size());
}

std::vector<std::uint8_t> BitVec::to_bytes() const {
  std::vector<std::uint8_t> out((bits_.size() + 7) / 8);
  pack_bytes(0, out);
  return out;
}

void BitVec::pack_bytes(std::size_t first_byte,
                        std::span<std::uint8_t> out) const {
  VKEY_REQUIRE(first_byte + out.size() <= (bits_.size() + 7) / 8,
               "byte range beyond the packed bits");
  for (std::size_t b = 0; b < out.size(); ++b) {
    const std::size_t bit0 = 8 * (first_byte + b);
    std::uint8_t byte = 0;
    for (std::size_t i = 0; i < 8 && bit0 + i < bits_.size(); ++i) {
      if (bits_[bit0 + i]) byte |= static_cast<std::uint8_t>(1u << (7 - i));
    }
    out[b] = byte;
  }
}

std::string BitVec::to_string() const {
  std::string s;
  s.reserve(bits_.size());
  for (auto b : bits_) s.push_back(b ? '1' : '0');
  return s;
}

std::vector<double> BitVec::to_doubles() const {
  std::vector<double> v(bits_.size());
  for (std::size_t i = 0; i < bits_.size(); ++i) v[i] = bits_[i];
  return v;
}

BitVec BitVec::from_doubles_threshold(std::span<const double> v,
                                      double threshold) {
  BitVec out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out.bits_[i] = v[i] >= threshold;
  return out;
}

BitVec random_bits(std::size_t n, Rng& rng) {
  BitVec out(n);
  for (std::size_t i = 0; i < n; ++i) out.set(i, rng.bernoulli(0.5));
  return out;
}

BitVec with_flips(const BitVec& key, std::size_t count, Rng& rng) {
  BitVec out = key;
  for (std::size_t f = 0; f < count; ++f) {
    out.flip(static_cast<std::size_t>(rng.uniform_int(out.size())));
  }
  return out;
}

BitVec with_noise(const BitVec& key, double p, Rng& rng) {
  BitVec out = key;
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (rng.bernoulli(p)) out.flip(i);
  }
  return out;
}

std::pair<BitVec, BitVec> flipped_pair(std::size_t bits, std::size_t flips,
                                       std::uint64_t seed) {
  BitVec bob = random_bits(bits, Rng(seed));
  BitVec alice = with_flips(bob, flips, Rng(seed ^ 0x5a5a));
  return {std::move(alice), std::move(bob)};
}

}  // namespace vkey
