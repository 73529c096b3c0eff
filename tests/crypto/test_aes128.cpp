#include "crypto/aes128.h"

#include <gtest/gtest.h>

#include <cstring>

#include "crypto/sha256.h"

namespace vkey::crypto {
namespace {

// FIPS-197 Appendix B example.
TEST(Aes128, Fips197AppendixB) {
  const std::array<std::uint8_t, 16> key = {
      0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6,
      0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f, 0x3c};
  std::uint8_t block[16] = {0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d,
                            0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07, 0x34};
  const std::uint8_t expected[16] = {0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc,
                                     0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97,
                                     0x19, 0x6a, 0x0b, 0x32};
  Aes128 aes(key);
  aes.encrypt_block(block);
  EXPECT_EQ(std::memcmp(block, expected, 16), 0)
      << to_hex(block, 16);
}

// FIPS-197 Appendix C.1 (AES-128 known answer test).
TEST(Aes128, Fips197AppendixC1) {
  const std::array<std::uint8_t, 16> key = {0x00, 0x01, 0x02, 0x03, 0x04,
                                            0x05, 0x06, 0x07, 0x08, 0x09,
                                            0x0a, 0x0b, 0x0c, 0x0d, 0x0e,
                                            0x0f};
  std::uint8_t block[16] = {0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77,
                            0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff};
  const std::uint8_t expected[16] = {0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b,
                                     0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80,
                                     0x70, 0xb4, 0xc5, 0x5a};
  Aes128 aes(key);
  aes.encrypt_block(block);
  EXPECT_EQ(std::memcmp(block, expected, 16), 0) << to_hex(block, 16);
}

TEST(Aes128, CtrRoundTrip) {
  const std::array<std::uint8_t, 16> key = {1, 2, 3, 4, 5, 6, 7, 8,
                                            9, 10, 11, 12, 13, 14, 15, 16};
  Aes128 aes(key);
  const std::vector<std::uint8_t> plaintext = {
      'v', 'e', 'h', 'i', 'c', 'l', 'e', '-', 'k', 'e', 'y', ' ',
      'p', 'a', 'y', 'l', 'o', 'a', 'd', '!'};
  const auto ct = aes.ctr_crypt(plaintext, 0x1234);
  EXPECT_NE(ct, plaintext);
  EXPECT_EQ(aes.ctr_crypt(ct, 0x1234), plaintext);
}

TEST(Aes128, CtrDifferentNoncesDifferentStreams) {
  const std::array<std::uint8_t, 16> key{};
  Aes128 aes(key);
  const std::vector<std::uint8_t> zeros(32, 0);
  EXPECT_NE(aes.ctr_crypt(zeros, 1), aes.ctr_crypt(zeros, 2));
}

TEST(Aes128, CtrHandlesNonBlockMultiple) {
  const std::array<std::uint8_t, 16> key{};
  Aes128 aes(key);
  const std::vector<std::uint8_t> data(17, 0xab);
  const auto ct = aes.ctr_crypt(data, 7);
  EXPECT_EQ(ct.size(), 17u);
  EXPECT_EQ(aes.ctr_crypt(ct, 7), data);
}

TEST(Aes128, CtrEmptyInput) {
  const std::array<std::uint8_t, 16> key{};
  Aes128 aes(key);
  EXPECT_TRUE(aes.ctr_crypt({}, 1).empty());
}

TEST(Aes128, DifferentKeysDifferentCiphertext) {
  std::array<std::uint8_t, 16> k1{}, k2{};
  k2[0] = 1;
  std::uint8_t b1[16] = {0}, b2[16] = {0};
  Aes128(k1).encrypt_block(b1);
  Aes128(k2).encrypt_block(b2);
  EXPECT_NE(std::memcmp(b1, b2, 16), 0);
}

}  // namespace
}  // namespace vkey::crypto
