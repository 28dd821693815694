#include "rlp/rlp.h"

#include <gtest/gtest.h>

#include <functional>
#include <random>
#include <string>

#include "rlp/rlp_oracle.h"
#include "support/bytes.h"

namespace onoff::rlp {
namespace {

// Writes an item tree through the writer, the library's one encoder.
void WriteItem(const Item& item, Writer& w) {
  if (item.IsString()) {
    w.String(item.string());
    return;
  }
  const size_t list = w.BeginList();
  for (const Item& child : item.list()) WriteItem(child, w);
  w.EndList(list);
}

Bytes Encode(const Item& item) {
  Bytes out;
  Writer w(&out);
  WriteItem(item, w);
  return out;
}

std::string EncodeHex(const Item& item) { return ToHex(Encode(item)); }

Bytes WriteScalar(const U256& v) {
  Bytes out;
  Writer(&out).Scalar(v);
  return out;
}

Bytes WriteScalar(uint64_t v) {
  Bytes out;
  Writer(&out).Scalar(v);
  return out;
}

// Vectors from the Ethereum RLP specification.
TEST(RlpEncodeTest, SpecVectors) {
  // "dog" -> [0x83, 'd', 'o', 'g']
  EXPECT_EQ(EncodeHex(Item::String("dog")), "83646f67");
  // ["cat", "dog"] -> 0xc8 0x83 cat 0x83 dog
  EXPECT_EQ(EncodeHex(Item::List({Item::String("cat"), Item::String("dog")})),
            "c88363617483646f67");
  // empty string -> 0x80
  EXPECT_EQ(EncodeHex(Item::String("")), "80");
  // empty list -> 0xc0
  EXPECT_EQ(EncodeHex(Item::List({})), "c0");
  // integer 0 -> 0x80 (empty scalar)
  EXPECT_EQ(ToHex(WriteScalar(uint64_t{0})), "80");
  // 0x0f -> 0x0f
  EXPECT_EQ(ToHex(WriteScalar(uint64_t{15})), "0f");
  // 1024 -> 0x82 0x04 0x00
  EXPECT_EQ(ToHex(WriteScalar(uint64_t{1024})), "820400");
  // set theoretical representation of three: [ [], [[]], [ [], [[]] ] ]
  Item empty = Item::List({});
  Item one = Item::List({Item::List({})});
  Item three = Item::List({empty, one, Item::List({Item::List({}), one})});
  EXPECT_EQ(EncodeHex(three), "c7c0c1c0c3c0c1c0");
  // "Lorem ipsum dolor sit amet, consectetur adipisicing elit":
  // length 56 -> long form 0xb8 0x38 ...
  EXPECT_EQ(
      EncodeHex(Item::String(
          "Lorem ipsum dolor sit amet, consectetur adipisicing elit")),
      "b8384c6f72656d20697073756d20646f6c6f722073697420616d65742c20636f6e7365"
      "637465747572206164697069736963696e6720656c6974");
}

TEST(RlpEncodeTest, SingleByteBoundary) {
  EXPECT_EQ(EncodeHex(Item::String(Bytes{0x00})), "00");
  EXPECT_EQ(EncodeHex(Item::String(Bytes{0x7f})), "7f");
  EXPECT_EQ(EncodeHex(Item::String(Bytes{0x80})), "8180");
}

TEST(RlpEncodeTest, LongList) {
  // 56-byte list payload switches to the long form (0xf8).
  std::vector<Item> items;
  for (int i = 0; i < 14; ++i) items.push_back(Item::String("abc"));
  Bytes enc = Encode(Item::List(items));
  EXPECT_EQ(enc[0], 0xf8);
  EXPECT_EQ(enc[1], 14 * 4);
}

// The header of a string at each length boundary: the short form up to 55
// bytes, then one, two and three length bytes. Each matches the oracle.
TEST(RlpWriterTest, StringLengthBoundaries) {
  const std::pair<size_t, std::string> cases[] = {
      {0, "80"},       {55, "b7"},       {56, "b838"},
      {255, "b8ff"},   {256, "b90100"},  {65536, "ba010000"},
  };
  for (const auto& [len, header] : cases) {
    const Item item = Item::String(Bytes(len, 0xab));
    const Bytes enc = Encode(item);
    EXPECT_EQ(ToHex(BytesView(enc).first(header.size() / 2)), header) << len;
    EXPECT_EQ(enc.size(), header.size() / 2 + len) << len;
    EXPECT_EQ(enc, oracle::Encode(item)) << len;
    EXPECT_EQ(Writer::StringSize(item.string()), enc.size()) << len;
  }
  for (uint8_t b : {0x00, 0x01, 0x7f, 0x80, 0xff}) {
    const Item item = Item::String(Bytes{b});
    EXPECT_EQ(Encode(item), oracle::Encode(item)) << int{b};
    EXPECT_EQ(Writer::StringSize(item.string()), Encode(item).size());
  }
}

// A list's header at its payload boundaries: 55 bytes (short form), 56 and
// more than 65 535 (three length bytes, the payload moved once).
TEST(RlpWriterTest, ListPayloadBoundaries) {
  const std::pair<size_t, std::string> cases[] = {
      {55, "f7"}, {56, "f838"}, {70000, "fa011170"}};
  for (const auto& [payload, header] : cases) {
    // One string item filling the payload: header 1 byte for <= 55, or
    // 1 + its length bytes.
    const size_t str_header = payload - 1 <= 55   ? 1
                              : payload - 2 <= 255 ? 2
                              : payload - 3 <= 65535 ? 3
                                                     : 4;
    const Item item =
        Item::List({Item::String(Bytes(payload - str_header, 0x5a))});
    const Bytes enc = Encode(item);
    ASSERT_EQ(enc.size(), header.size() / 2 + payload) << payload;
    EXPECT_EQ(ToHex(BytesView(enc).first(header.size() / 2)), header)
        << payload;
    EXPECT_EQ(enc, oracle::Encode(item)) << payload;
    EXPECT_EQ(Writer::ListSize(payload), enc.size()) << payload;
  }
}

TEST(RlpWriterTest, NestedListsAndRawItems) {
  // A long inner list inside a long outer one: both headers move their
  // payloads, inner first.
  std::vector<Item> inner;
  for (int i = 0; i < 30; ++i) inner.push_back(Item::String("xyz"));
  const Item nested = Item::List(
      {Item::String("head"), Item::List(inner),
       Item::List({Item::List({Item::List({})}), Item::List(inner)}),
       Item::String(Bytes(60, 0x01))});
  EXPECT_EQ(Encode(nested), oracle::Encode(nested));

  // Raw appends an encoded item as it is.
  Bytes out;
  Writer w(&out);
  const size_t list = w.BeginList();
  w.Raw(oracle::Encode(Item::List(inner)));
  w.String(BytesOf("tail"));
  w.EndList(list);
  EXPECT_EQ(out, oracle::Encode(
                     Item::List({Item::List(inner), Item::String("tail")})));
}

TEST(RlpWriterTest, ScalarBoundaries) {
  const U256 max64(~uint64_t{0});
  const U256 max256 = ~U256(0);
  const U256 cases[] = {U256(0),    U256(1),     U256(0x7f), U256(0x80),
                        U256(0xff), U256(0x100), max64,      max64 + U256(1),
                        max256};
  for (const U256& v : cases) {
    const Bytes expected = oracle::Encode(Item::Scalar(v));
    EXPECT_EQ(WriteScalar(v), expected) << v.ToHexFull();
    if (v.FitsUint64()) {
      EXPECT_EQ(WriteScalar(v.low64()), expected) << v.ToHexFull();
    }
    auto decoded = Decode(expected);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(*decoded->AsScalar(), v);
  }
  EXPECT_EQ(ToHex(WriteScalar(max64)), "88ffffffffffffffff");
  EXPECT_EQ(WriteScalar(max256).size(), 33u);
}

// Random item trees (strings of every header form, lists nested a few
// deep, some past 55 payload bytes): the writer's bytes equal the oracle's
// and decode back to the tree.
TEST(RlpWriterTest, RandomTreesMatchOracle) {
  std::mt19937_64 rng(0x51a7);
  auto random_string = [&rng]() {
    static const size_t kLens[] = {0, 1, 1, 2, 31, 32, 55, 56, 200, 300};
    Bytes s(kLens[rng() % std::size(kLens)]);
    for (auto& b : s) b = static_cast<uint8_t>(rng() % 3 == 0 ? rng() % 0x80
                                                              : rng());
    return Item::String(std::move(s));
  };
  std::function<Item(int)> random_item = [&](int depth) {
    if (depth == 0 || rng() % 3 == 0) return random_string();
    std::vector<Item> children;
    for (size_t n = rng() % 6; n > 0; --n) {
      children.push_back(random_item(depth - 1));
    }
    return Item::List(std::move(children));
  };
  for (int trial = 0; trial < 400; ++trial) {
    const Item item = random_item(4);
    const Bytes enc = Encode(item);
    ASSERT_EQ(enc, oracle::Encode(item)) << trial;
    auto decoded = Decode(enc);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, item) << trial;
  }
}

TEST(RlpDecodeTest, RoundTripsSpecVectors) {
  std::vector<Item> cases = {
      Item::String("dog"),
      Item::String(""),
      Item::List({}),
      Item::List({Item::String("cat"), Item::String("dog")}),
      Item::Scalar(uint64_t{1024}),
      Item::String(std::string(1000, 'x')),
      Item::List({Item::List({Item::String("deep")}), Item::String("flat")}),
  };
  for (const Item& item : cases) {
    auto decoded = Decode(Encode(item));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(*decoded, item);
  }
}

TEST(RlpDecodeTest, RejectsMalformed) {
  EXPECT_FALSE(Decode(Bytes{}).ok());                    // empty
  EXPECT_FALSE(Decode(Bytes{0x83, 'd', 'o'}).ok());      // truncated string
  EXPECT_FALSE(Decode(Bytes{0x81, 0x05}).ok());          // non-canonical byte
  EXPECT_FALSE(Decode(Bytes{0xb8, 0x01, 0x00}).ok());    // non-canonical len
  EXPECT_FALSE(Decode(Bytes{0xc2, 0x80}).ok());          // short list payload
  EXPECT_FALSE(Decode(Bytes{0x80, 0x00}).ok());          // trailing bytes
  EXPECT_FALSE(Decode(Bytes{0xb9}).ok());                // missing length
  EXPECT_FALSE(Decode(Bytes{0xb8, 0x38}).ok());          // truncated long str
}

TEST(RlpDecodeTest, ScalarValidation) {
  auto ok = Decode(Bytes{0x82, 0x04, 0x00});
  ASSERT_TRUE(ok.ok());
  auto v = ok->AsUint64();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 1024u);

  // Leading-zero scalar is rejected by AsScalar.
  Item padded = Item::String(Bytes{0x00, 0x01});
  EXPECT_FALSE(padded.AsScalar().ok());
  // Lists are not scalars.
  EXPECT_FALSE(Item::List({}).AsScalar().ok());
  // 33-byte strings exceed U256.
  EXPECT_FALSE(Item::String(Bytes(33, 0x01)).AsScalar().ok());
}

TEST(RlpScalarTest, U256RoundTrip) {
  U256 big = (U256(1) << 200) + U256(99);
  Bytes enc = WriteScalar(big);
  auto dec = Decode(enc);
  ASSERT_TRUE(dec.ok());
  auto v = dec->AsScalar();
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, big);
}

// Robustness: decoding arbitrary bytes must never crash or hang; it either
// round-trips or returns a clean error.
class RlpFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RlpFuzzTest, RandomBytesNeverCrash) {
  std::mt19937_64 rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    Bytes data(rng() % 64, 0);
    for (auto& b : data) b = static_cast<uint8_t>(rng());
    auto decoded = Decode(data);
    if (decoded.ok()) {
      // Whatever decoded must re-encode to the identical bytes (canonical).
      EXPECT_EQ(Encode(*decoded), data);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RlpFuzzTest, ::testing::Values(5u, 77u, 901u));

}  // namespace
}  // namespace onoff::rlp
