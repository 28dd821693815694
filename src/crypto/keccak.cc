#include "crypto/keccak.h"

#include <cstring>

namespace onoff {

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

inline uint64_t Rotl64(uint64_t x, int n) {
  return (x << n) | (x >> (64 - n));
}

// Keccak-f[1600] over 25 local lanes, lane (x, y) in `a{x + 5y}`, with
// theta, rho-pi and chi written out so the rotation amounts and the pi
// permutation are compile-time constants and the state stays in registers
// for all 24 rounds. tests/crypto/keccak_oracle.cc keeps the rolled seed
// permutation this must match.
void KeccakF1600(std::array<uint64_t, 25>& st) {
  uint64_t a0 = st[0];
  uint64_t a1 = st[1];
  uint64_t a2 = st[2];
  uint64_t a3 = st[3];
  uint64_t a4 = st[4];
  uint64_t a5 = st[5];
  uint64_t a6 = st[6];
  uint64_t a7 = st[7];
  uint64_t a8 = st[8];
  uint64_t a9 = st[9];
  uint64_t a10 = st[10];
  uint64_t a11 = st[11];
  uint64_t a12 = st[12];
  uint64_t a13 = st[13];
  uint64_t a14 = st[14];
  uint64_t a15 = st[15];
  uint64_t a16 = st[16];
  uint64_t a17 = st[17];
  uint64_t a18 = st[18];
  uint64_t a19 = st[19];
  uint64_t a20 = st[20];
  uint64_t a21 = st[21];
  uint64_t a22 = st[22];
  uint64_t a23 = st[23];
  uint64_t a24 = st[24];
  for (int round = 0; round < kRounds; ++round) {
    // Theta: column parities, then each lane takes d[x].
    const uint64_t c0 = a0 ^ a5 ^ a10 ^ a15 ^ a20;
    const uint64_t c1 = a1 ^ a6 ^ a11 ^ a16 ^ a21;
    const uint64_t c2 = a2 ^ a7 ^ a12 ^ a17 ^ a22;
    const uint64_t c3 = a3 ^ a8 ^ a13 ^ a18 ^ a23;
    const uint64_t c4 = a4 ^ a9 ^ a14 ^ a19 ^ a24;
    const uint64_t d0 = c4 ^ Rotl64(c1, 1);
    const uint64_t d1 = c0 ^ Rotl64(c2, 1);
    const uint64_t d2 = c1 ^ Rotl64(c3, 1);
    const uint64_t d3 = c2 ^ Rotl64(c4, 1);
    const uint64_t d4 = c3 ^ Rotl64(c0, 1);
    // Rho and pi: lane (x, y) rotates into (y, 2x + 3y).
    const uint64_t b0 = a0 ^ d0;
    const uint64_t b1 = Rotl64(a6 ^ d1, 44);
    const uint64_t b2 = Rotl64(a12 ^ d2, 43);
    const uint64_t b3 = Rotl64(a18 ^ d3, 21);
    const uint64_t b4 = Rotl64(a24 ^ d4, 14);
    const uint64_t b5 = Rotl64(a3 ^ d3, 28);
    const uint64_t b6 = Rotl64(a9 ^ d4, 20);
    const uint64_t b7 = Rotl64(a10 ^ d0, 3);
    const uint64_t b8 = Rotl64(a16 ^ d1, 45);
    const uint64_t b9 = Rotl64(a22 ^ d2, 61);
    const uint64_t b10 = Rotl64(a1 ^ d1, 1);
    const uint64_t b11 = Rotl64(a7 ^ d2, 6);
    const uint64_t b12 = Rotl64(a13 ^ d3, 25);
    const uint64_t b13 = Rotl64(a19 ^ d4, 8);
    const uint64_t b14 = Rotl64(a20 ^ d0, 18);
    const uint64_t b15 = Rotl64(a4 ^ d4, 27);
    const uint64_t b16 = Rotl64(a5 ^ d0, 36);
    const uint64_t b17 = Rotl64(a11 ^ d1, 10);
    const uint64_t b18 = Rotl64(a17 ^ d2, 15);
    const uint64_t b19 = Rotl64(a23 ^ d3, 56);
    const uint64_t b20 = Rotl64(a2 ^ d2, 62);
    const uint64_t b21 = Rotl64(a8 ^ d3, 55);
    const uint64_t b22 = Rotl64(a14 ^ d4, 39);
    const uint64_t b23 = Rotl64(a15 ^ d0, 41);
    const uint64_t b24 = Rotl64(a21 ^ d1, 2);
    // Chi, row by row.
    a0 = b0 ^ (~b1 & b2);
    a1 = b1 ^ (~b2 & b3);
    a2 = b2 ^ (~b3 & b4);
    a3 = b3 ^ (~b4 & b0);
    a4 = b4 ^ (~b0 & b1);
    a5 = b5 ^ (~b6 & b7);
    a6 = b6 ^ (~b7 & b8);
    a7 = b7 ^ (~b8 & b9);
    a8 = b8 ^ (~b9 & b5);
    a9 = b9 ^ (~b5 & b6);
    a10 = b10 ^ (~b11 & b12);
    a11 = b11 ^ (~b12 & b13);
    a12 = b12 ^ (~b13 & b14);
    a13 = b13 ^ (~b14 & b10);
    a14 = b14 ^ (~b10 & b11);
    a15 = b15 ^ (~b16 & b17);
    a16 = b16 ^ (~b17 & b18);
    a17 = b17 ^ (~b18 & b19);
    a18 = b18 ^ (~b19 & b15);
    a19 = b19 ^ (~b15 & b16);
    a20 = b20 ^ (~b21 & b22);
    a21 = b21 ^ (~b22 & b23);
    a22 = b22 ^ (~b23 & b24);
    a23 = b23 ^ (~b24 & b20);
    a24 = b24 ^ (~b20 & b21);
    // Iota.
    a0 ^= kRoundConstants[round];
  }
  st[0] = a0;
  st[1] = a1;
  st[2] = a2;
  st[3] = a3;
  st[4] = a4;
  st[5] = a5;
  st[6] = a6;
  st[7] = a7;
  st[8] = a8;
  st[9] = a9;
  st[10] = a10;
  st[11] = a11;
  st[12] = a12;
  st[13] = a13;
  st[14] = a14;
  st[15] = a15;
  st[16] = a16;
  st[17] = a17;
  st[18] = a18;
  st[19] = a19;
  st[20] = a20;
  st[21] = a21;
  st[22] = a22;
  st[23] = a23;
  st[24] = a24;
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

Bytes Keccak256Bytes(BytesView data) {
  Hash32 h = Keccak256(data);
  return Bytes(h.begin(), h.end());
}

}  // namespace onoff
