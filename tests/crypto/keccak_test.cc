#include "crypto/keccak.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "crypto/keccak_oracle.h"
#include "support/bytes.h"

namespace onoff {
namespace {

std::string KeccakHex(std::string_view input) {
  return ToHex(Keccak256(BytesOf(input)));
}

TEST(KeccakTest, KnownAnswerVectors) {
  // Ethereum's keccak256 (original Keccak padding, not SHA3-256).
  EXPECT_EQ(KeccakHex(""),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
  EXPECT_EQ(KeccakHex("abc"),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
  EXPECT_EQ(KeccakHex("hello"),
            "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8");
  EXPECT_EQ(KeccakHex("The quick brown fox jumps over the lazy dog"),
            "4d741b6f1eb29cb2a9b9911c82f56fa8d73b04959d3d9d222895df6c0b28aa15");
}

TEST(KeccakTest, FunctionSelectorVector) {
  // The canonical ERC-20 selector: first 4 bytes of
  // keccak256("transfer(address,uint256)") == a9059cbb.
  Hash32 h = Keccak256(BytesOf("transfer(address,uint256)"));
  EXPECT_EQ(ToHex(BytesView(h.data(), 4)), "a9059cbb");
}

TEST(KeccakTest, RateBoundaryLengths) {
  // Exercise lengths around the 136-byte rate: 135, 136, 137, 272.
  for (size_t len : {0u, 1u, 135u, 136u, 137u, 271u, 272u, 273u, 1000u}) {
    std::string s(len, 'a');
    Hash32 one_shot = Keccak256(BytesOf(s));
    // Incremental in awkward chunk sizes must agree.
    Keccak256Hasher hasher;
    Bytes data = BytesOf(s);
    size_t pos = 0;
    size_t chunk = 7;
    while (pos < data.size()) {
      size_t take = std::min(chunk, data.size() - pos);
      hasher.Update(BytesView(data.data() + pos, take));
      pos += take;
      chunk = chunk * 2 + 1;
    }
    EXPECT_EQ(hasher.Finalize(), one_shot) << "len=" << len;
  }
}

TEST(KeccakTest, DifferentInputsDiffer) {
  EXPECT_NE(Keccak256(BytesOf("a")), Keccak256(BytesOf("b")));
  EXPECT_NE(Keccak256(BytesOf("")), Keccak256(Bytes{0x00}));
}

TEST(KeccakTest, Keccak256BytesMatchesArray) {
  Hash32 h = Keccak256(BytesOf("xyz"));
  Bytes b = Keccak256Bytes(BytesOf("xyz"));
  EXPECT_EQ(Bytes(h.begin(), h.end()), b);
}

// The unrolled permutation against the seed's rolled one (the test-only
// oracle): seeded random inputs of every length from 0 to 1200 bytes, which
// covers 0 to 8 full rate blocks and every padding position, one-shot and
// through randomly chunked Update calls.
TEST(KeccakTest, MatchesSeedOracleAtEveryLength) {
  std::mt19937_64 rng(0x6b656363616b);
  for (size_t len = 0; len <= 1200; ++len) {
    Bytes data(len);
    for (uint8_t& b : data) b = static_cast<uint8_t>(rng());
    const Hash32 expected = keccak::oracle::Keccak256(data);
    ASSERT_EQ(Keccak256(data), expected) << "len=" << len;

    Keccak256Hasher hasher;
    keccak::oracle::Keccak256Hasher oracle_hasher;
    size_t pos = 0;
    while (pos < len) {
      // Chunks from empty to just over two rate blocks, so both the
      // buffered tail and the direct multi-block absorb are crossed.
      size_t take = std::min<size_t>(rng() % 300, len - pos);
      BytesView chunk(data.data() + pos, take);
      hasher.Update(chunk);
      oracle_hasher.Update(chunk);
      pos += take;
    }
    ASSERT_EQ(hasher.Finalize(), expected) << "chunked len=" << len;
    ASSERT_EQ(oracle_hasher.Finalize(), expected) << "oracle chunked len="
                                                  << len;
  }
}

}  // namespace
}  // namespace onoff
