#include "crypto/aes128.h"

#include <cstring>

#include "common/error.h"

namespace vkey::crypto {

namespace {

// S-box computed once at startup from the AES definition (multiplicative
// inverse in GF(2^8) followed by the affine transform).
struct SBoxes {
  std::uint8_t sbox[256];

  SBoxes() {
    // Build GF(2^8) inverse table via exp/log tables over generator 3.
    std::uint8_t exp_table[256];
    std::uint8_t log_table[256] = {0};
    std::uint8_t x = 1;
    for (int i = 0; i < 255; ++i) {
      exp_table[i] = x;
      log_table[x] = static_cast<std::uint8_t>(i);
      // multiply x by 3 = x ^ (x*2)
      const std::uint8_t x2 =
          static_cast<std::uint8_t>((x << 1) ^ ((x & 0x80) ? 0x1b : 0));
      x = static_cast<std::uint8_t>(x2 ^ x);
    }
    exp_table[255] = exp_table[0];
    for (int i = 0; i < 256; ++i) {
      const std::uint8_t inv =
          (i == 0) ? 0 : exp_table[255 - log_table[static_cast<std::uint8_t>(i)]];
      // Affine transform.
      std::uint8_t b = inv;
      std::uint8_t res = 0x63;
      for (int bit = 0; bit < 8; ++bit) {
        const std::uint8_t v = static_cast<std::uint8_t>(
            ((b >> bit) & 1) ^ ((b >> ((bit + 4) % 8)) & 1) ^
            ((b >> ((bit + 5) % 8)) & 1) ^ ((b >> ((bit + 6) % 8)) & 1) ^
            ((b >> ((bit + 7) % 8)) & 1));
        res = static_cast<std::uint8_t>(res ^ (v << bit));
      }
      // res currently holds affine(inv) ^ 0x63 ^ 0x63... careful: start at
      // 0x63 then XOR the parity bits in, which equals the standard formula.
      sbox[i] = res;
    }
  }
};

const SBoxes& boxes() {
  static const SBoxes b;
  return b;
}

inline std::uint8_t xtime(std::uint8_t a) {
  return static_cast<std::uint8_t>((a << 1) ^ ((a & 0x80) ? 0x1b : 0));
}

}  // namespace

Aes128::Aes128(const std::array<std::uint8_t, kKeySize>& key)
    : Aes128(std::span<const std::uint8_t>(key)) {}

Aes128::Aes128(const SecretBuffer& key) : Aes128(key.expose()) {}

Aes128::~Aes128() { secure_wipe(round_keys_.data(), round_keys_.size()); }

Aes128::Aes128(std::span<const std::uint8_t> key) {
  VKEY_REQUIRE(key.size() == kKeySize, "AES-128 key must be 16 bytes");
  const auto& sb = boxes().sbox;
  std::memcpy(round_keys_.data(), key.data(), kKeySize);
  std::uint8_t rcon = 1;
  for (std::size_t i = kKeySize; i < round_keys_.size(); i += 4) {
    std::uint8_t t[4];
    std::memcpy(t, &round_keys_[i - 4], 4);
    if (i % kKeySize == 0) {
      // RotWord + SubWord + Rcon.
      const std::uint8_t tmp = t[0];
      t[0] = static_cast<std::uint8_t>(sb[t[1]] ^ rcon);
      t[1] = sb[t[2]];
      t[2] = sb[t[3]];
      t[3] = sb[tmp];
      rcon = xtime(rcon);
    }
    for (std::size_t j = 0; j < 4; ++j) {
      round_keys_[i + j] =
          static_cast<std::uint8_t>(round_keys_[i + j - kKeySize] ^ t[j]);
    }
  }
}

void Aes128::encrypt_block(std::uint8_t s[kBlockSize]) const {
  const auto& sb = boxes().sbox;
  auto add_round_key = [&](std::size_t round) {
    for (std::size_t i = 0; i < 16; ++i) s[i] ^= round_keys_[round * 16 + i];
  };
  auto sub_bytes = [&] {
    for (int i = 0; i < 16; ++i) s[i] = sb[s[i]];
  };
  auto shift_rows = [&] {
    std::uint8_t t;
    // Row 1: shift left by 1.
    t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
    // Row 2: shift left by 2.
    std::swap(s[2], s[10]);
    std::swap(s[6], s[14]);
    // Row 3: shift left by 3.
    t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
  };
  auto mix_columns = [&] {
    for (int c = 0; c < 4; ++c) {
      std::uint8_t* col = s + 4 * c;
      const std::uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
      col[0] = static_cast<std::uint8_t>(xtime(a0) ^ xtime(a1) ^ a1 ^ a2 ^ a3);
      col[1] = static_cast<std::uint8_t>(a0 ^ xtime(a1) ^ xtime(a2) ^ a2 ^ a3);
      col[2] = static_cast<std::uint8_t>(a0 ^ a1 ^ xtime(a2) ^ xtime(a3) ^ a3);
      col[3] = static_cast<std::uint8_t>(xtime(a0) ^ a0 ^ a1 ^ a2 ^ xtime(a3));
    }
  };

  add_round_key(0);
  for (std::size_t round = 1; round <= 9; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(10);
}

void Aes128::ctr_crypt(std::span<const std::uint8_t> data,
                       std::uint64_t nonce,
                       std::span<std::uint8_t> out) const {
  VKEY_REQUIRE(out.size() == data.size(), "CTR output must match the input");
  std::uint8_t counter_block[kBlockSize];
  std::uint8_t keystream[kBlockSize];
  for (std::size_t off = 0; off < data.size(); off += kBlockSize) {
    const std::uint64_t block_index = off / kBlockSize;
    for (int i = 0; i < 8; ++i) {
      counter_block[i] = static_cast<std::uint8_t>(nonce >> (56 - 8 * i));
      counter_block[8 + i] =
          static_cast<std::uint8_t>(block_index >> (56 - 8 * i));
    }
    std::memcpy(keystream, counter_block, kBlockSize);
    encrypt_block(keystream);
    const std::size_t n = std::min(kBlockSize, data.size() - off);
    for (std::size_t i = 0; i < n; ++i) {
      out[off + i] = data[off + i] ^ keystream[i];
    }
  }
  // The residual keystream block is key-derived; known keystream bytes
  // reveal plaintext of any message reusing this (nonce, counter) pair.
  secure_wipe(keystream, sizeof(keystream));
}

}  // namespace vkey::crypto
