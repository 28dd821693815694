#include "crypto/keccak_oracle.h"

#include <cstring>

namespace onoff::keccak::oracle {

namespace {

constexpr int kRounds = 24;
constexpr size_t kRate = 136;  // bytes, for 256-bit output

constexpr uint64_t kRoundConstants[kRounds] = {
    0x0000000000000001ULL, 0x0000000000008082ULL, 0x800000000000808aULL,
    0x8000000080008000ULL, 0x000000000000808bULL, 0x0000000080000001ULL,
    0x8000000080008081ULL, 0x8000000000008009ULL, 0x000000000000008aULL,
    0x0000000000000088ULL, 0x0000000080008009ULL, 0x000000008000000aULL,
    0x000000008000808bULL, 0x800000000000008bULL, 0x8000000000008089ULL,
    0x8000000000008003ULL, 0x8000000000008002ULL, 0x8000000000000080ULL,
    0x000000000000800aULL, 0x800000008000000aULL, 0x8000000080008081ULL,
    0x8000000000008080ULL, 0x0000000080000001ULL, 0x8000000080008008ULL,
};

constexpr int kRotations[24] = {1,  3,  6,  10, 15, 21, 28, 36,
                                45, 55, 2,  14, 27, 41, 56, 8,
                                25, 43, 62, 18, 39, 61, 20, 44};

constexpr int kPiLanes[24] = {10, 7,  11, 17, 18, 3,  5,  16,
                              8,  21, 24, 4,  15, 23, 19, 13,
                              12, 2,  20, 14, 22, 9,  6,  1};

inline uint64_t Rotl64(uint64_t x, int n) {
  return (x << n) | (x >> (64 - n));
}

void KeccakF1600(std::array<uint64_t, 25>& st) {
  for (int round = 0; round < kRounds; ++round) {
    // Theta
    uint64_t bc[5];
    for (int i = 0; i < 5; ++i) {
      bc[i] = st[i] ^ st[i + 5] ^ st[i + 10] ^ st[i + 15] ^ st[i + 20];
    }
    for (int i = 0; i < 5; ++i) {
      uint64_t t = bc[(i + 4) % 5] ^ Rotl64(bc[(i + 1) % 5], 1);
      for (int j = 0; j < 25; j += 5) st[j + i] ^= t;
    }
    // Rho + Pi
    uint64_t t = st[1];
    for (int i = 0; i < 24; ++i) {
      int j = kPiLanes[i];
      uint64_t tmp = st[j];
      st[j] = Rotl64(t, kRotations[i]);
      t = tmp;
    }
    // Chi
    for (int j = 0; j < 25; j += 5) {
      uint64_t row[5];
      for (int i = 0; i < 5; ++i) row[i] = st[j + i];
      for (int i = 0; i < 5; ++i) {
        st[j + i] = row[i] ^ ((~row[(i + 1) % 5]) & row[(i + 2) % 5]);
      }
    }
    // Iota
    st[0] ^= kRoundConstants[round];
  }
}

void AbsorbBlock(std::array<uint64_t, 25>& st, const uint8_t* block) {
  for (size_t i = 0; i < kRate / 8; ++i) {
    uint64_t lane;
    std::memcpy(&lane, block + i * 8, 8);  // little-endian host assumed
    st[i] ^= lane;
  }
  KeccakF1600(st);
}

}  // namespace

Keccak256Hasher::Keccak256Hasher() : state_{}, buffer_{}, buffer_len_(0) {}

void Keccak256Hasher::Update(BytesView data) {
  size_t offset = 0;
  if (buffer_len_ > 0) {
    size_t take = std::min(kRate - buffer_len_, data.size());
    std::memcpy(buffer_.data() + buffer_len_, data.data(), take);
    buffer_len_ += take;
    offset = take;
    if (buffer_len_ == kRate) {
      AbsorbBlock(state_, buffer_.data());
      buffer_len_ = 0;
    }
  }
  while (data.size() - offset >= kRate) {
    AbsorbBlock(state_, data.data() + offset);
    offset += kRate;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffer_len_ = data.size() - offset;
  }
}

Hash32 Keccak256Hasher::Finalize() {
  // Keccak (pre-SHA3) multi-rate padding: 0x01 ... 0x80.
  buffer_[buffer_len_] = 0x01;
  for (size_t i = buffer_len_ + 1; i < kRate; ++i) buffer_[i] = 0;
  buffer_[kRate - 1] |= 0x80;
  AbsorbBlock(state_, buffer_.data());

  Hash32 out;
  std::memcpy(out.data(), state_.data(), 32);
  return out;
}

Hash32 Keccak256(BytesView data) {
  Keccak256Hasher hasher;
  hasher.Update(data);
  return hasher.Finalize();
}

}  // namespace onoff::keccak::oracle
