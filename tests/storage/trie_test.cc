// Conformance of the library's Merkle Patricia Trie (storage/shared_trie.h):
// Ethereum root vectors, hex-prefix and nibble encoding, and Merkle proofs —
// present, absent, through embedded nodes, and tampered.

#include "storage/shared_trie.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "support/bytes.h"
#include "support/u256.h"

namespace onoff::storage {
namespace {

std::string RootHex(const SharedTrie& t) {
  Hash32 h = t.RootHash();
  return ToHex(BytesView(h.data(), h.size()));
}

TEST(TrieTest, EmptyRootMatchesEthereum) {
  SharedTrie t;
  EXPECT_TRUE(t.IsEmpty());
  EXPECT_EQ(RootHex(t),
            "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421");
}

TEST(TrieTest, EthereumWikiDogVector) {
  // The canonical example from the Ethereum MPT documentation.
  SharedTrie t;
  t.Put(BytesOf("doe"), BytesOf("reindeer"));
  t.Put(BytesOf("dog"), BytesOf("puppy"));
  t.Put(BytesOf("dogglesworth"), BytesOf("cat"));
  EXPECT_EQ(RootHex(t),
            "8aad789dff2f538bca5d8ea56e8abe10f4c7ba3a5dea95fea4cd6e7c3a1168d3");
}

TEST(TrieTest, EthereumFooVector) {
  // From the ethereum/tests trietest.json "foo" case.
  SharedTrie t;
  t.Put(BytesOf("foo"), BytesOf("bar"));
  t.Put(BytesOf("food"), BytesOf("bass"));
  EXPECT_EQ(RootHex(t),
            "17beaa1648bafa633cda809c90c04af50fc8aed3cb40d16efbddee6fdf63c4c3");
}

TEST(TrieTest, EthereumAnyOrderVector) {
  // From ethereum/tests trieanyorder.json: same root in any insert order.
  std::vector<std::pair<std::string, std::string>> kv = {
      {"do", "verb"}, {"horse", "stallion"}, {"doge", "coin"}, {"dog", "puppy"}};
  const std::string expected =
      "5991bb8c6514148a29db676a14ac506cd2cd5775ace63c30a4fe457715e9ac84";
  std::sort(kv.begin(), kv.end());
  do {
    SharedTrie t;
    for (const auto& [k, v] : kv) t.Put(BytesOf(k), BytesOf(v));
    EXPECT_EQ(RootHex(t), expected);
  } while (std::next_permutation(kv.begin(), kv.end()));
}

TEST(TrieTest, GetReturnsStoredValues) {
  SharedTrie t;
  t.Put(BytesOf("alpha"), BytesOf("1"));
  t.Put(BytesOf("alphabet"), BytesOf("2"));
  t.Put(BytesOf("beta"), BytesOf("3"));
  auto v = t.Get(BytesOf("alpha"));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, BytesOf("1"));
  v = t.Get(BytesOf("alphabet"));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, BytesOf("2"));
  EXPECT_FALSE(t.Get(BytesOf("alph")).ok());
  EXPECT_FALSE(t.Get(BytesOf("gamma")).ok());
  EXPECT_TRUE(t.Contains(BytesOf("beta")));
}

TEST(TrieTest, OverwriteChangesRoot) {
  SharedTrie t;
  t.Put(BytesOf("k"), BytesOf("v1"));
  Hash32 r1 = t.RootHash();
  t.Put(BytesOf("k"), BytesOf("v2"));
  EXPECT_NE(t.RootHash(), r1);
  t.Put(BytesOf("k"), BytesOf("v1"));
  EXPECT_EQ(t.RootHash(), r1);
}

TEST(TrieTest, DeleteRestoresPriorRoot) {
  SharedTrie t;
  t.Put(BytesOf("doe"), BytesOf("reindeer"));
  t.Put(BytesOf("dog"), BytesOf("puppy"));
  Hash32 before = t.RootHash();
  t.Put(BytesOf("dogglesworth"), BytesOf("cat"));
  EXPECT_NE(t.RootHash(), before);
  t.Delete(BytesOf("dogglesworth"));
  EXPECT_EQ(t.RootHash(), before);
  EXPECT_FALSE(t.Get(BytesOf("dogglesworth")).ok());
  EXPECT_TRUE(t.Get(BytesOf("dog")).ok());
}

TEST(TrieTest, DeleteAllYieldsEmptyRoot) {
  SharedTrie t;
  std::vector<std::string> keys = {"a", "ab", "abc", "abd", "b", "xyz"};
  for (const auto& k : keys) t.Put(BytesOf(k), BytesOf("v" + k));
  for (const auto& k : keys) t.Delete(BytesOf(k));
  EXPECT_EQ(RootHex(t),
            "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421");
}

TEST(TrieTest, EmptyValuePutDeletes) {
  SharedTrie t;
  t.Put(BytesOf("k"), BytesOf("v"));
  t.Put(BytesOf("k"), Bytes{});
  EXPECT_TRUE(t.IsEmpty());
  EXPECT_FALSE(t.Get(BytesOf("k")).ok());
}

TEST(TrieTest, DeleteMissingKeyIsNoOp) {
  SharedTrie t;
  t.Put(BytesOf("present"), BytesOf("yes"));
  Hash32 before = t.RootHash();
  t.Delete(BytesOf("absent"));
  t.Delete(BytesOf("presenx"));
  t.Delete(BytesOf("presentlonger"));
  EXPECT_EQ(t.RootHash(), before);
}

TEST(TrieTest, HexPrefixEncoding) {
  // Vectors from the Ethereum hex-prefix spec.
  EXPECT_EQ(ToHex(HexPrefixEncode({1, 2, 3, 4, 5}, false)), "112345");
  EXPECT_EQ(ToHex(HexPrefixEncode({0, 1, 2, 3, 4, 5}, false)), "00012345");
  EXPECT_EQ(ToHex(HexPrefixEncode({0, 15, 1, 12, 11, 8}, true)), "200f1cb8");
  EXPECT_EQ(ToHex(HexPrefixEncode({15, 1, 12, 11, 8}, true)), "3f1cb8");
  EXPECT_EQ(ToHex(HexPrefixEncode({}, false)), "00");
  EXPECT_EQ(ToHex(HexPrefixEncode({}, true)), "20");
}

TEST(TrieTest, NibbleConversion) {
  auto n = BytesToNibbles(Bytes{0xab, 0x01});
  EXPECT_EQ(n, (std::vector<uint8_t>{0xa, 0xb, 0x0, 0x1}));
  EXPECT_TRUE(BytesToNibbles(Bytes{}).empty());
}

TEST(SecureTrieTest, BasicOps) {
  SecureSharedTrie t;
  EXPECT_TRUE(t.IsEmpty());
  t.Put(BytesOf("account1"), BytesOf("balance=100"));
  auto v = t.Get(BytesOf("account1"));
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, BytesOf("balance=100"));
  t.Delete(BytesOf("account1"));
  EXPECT_TRUE(t.IsEmpty());
}

TEST(SecureTrieTest, RootDiffersFromRawTrie) {
  SharedTrie raw;
  SecureSharedTrie sec;
  raw.Put(BytesOf("k"), BytesOf("v"));
  sec.Put(BytesOf("k"), BytesOf("v"));
  EXPECT_NE(raw.RootHash(), sec.RootHash());
}

// ---- Merkle proofs ----

TEST(TrieProofTest, ProvesPresentKeys) {
  SharedTrie t;
  t.Put(BytesOf("doe"), BytesOf("reindeer"));
  t.Put(BytesOf("dog"), BytesOf("puppy"));
  t.Put(BytesOf("dogglesworth"), BytesOf("cat"));
  Hash32 root = t.RootHash();
  for (const char* key : {"doe", "dog", "dogglesworth"}) {
    auto proof = t.Prove(BytesOf(key));
    ASSERT_FALSE(proof.empty());
    auto verified = SharedTrie::VerifyProof(root, BytesOf(key), proof);
    ASSERT_TRUE(verified.ok()) << key << ": " << verified.status().ToString();
    ASSERT_TRUE(verified->has_value()) << key;
    EXPECT_EQ(**verified, *t.Get(BytesOf(key)));
  }
}

TEST(TrieProofTest, ProvesKeysThroughEmbeddedNodes) {
  // Regression: when a proof path descends into a node embedded in its
  // parent's record (encoding < 32 bytes), the verifier used to read the
  // embedded item after reassigning the list that owned it — returning
  // freed memory instead of the value.
  SharedTrie t;
  for (int i = 0; i < 50; ++i) {
    t.Put(BytesOf("account-" + std::to_string(i)),
          BytesOf("balance-" + std::to_string(i * 7)));
  }
  Hash32 root = t.RootHash();
  for (int i = 0; i < 50; ++i) {
    Bytes key = BytesOf("account-" + std::to_string(i));
    auto verified = SharedTrie::VerifyProof(root, key, t.Prove(key));
    ASSERT_TRUE(verified.ok()) << i << ": " << verified.status().ToString();
    ASSERT_TRUE(verified->has_value()) << i;
    EXPECT_EQ(**verified, BytesOf("balance-" + std::to_string(i * 7))) << i;
  }
}

TEST(TrieProofTest, ProvesAbsentKeys) {
  SharedTrie t;
  t.Put(BytesOf("doe"), BytesOf("reindeer"));
  t.Put(BytesOf("dog"), BytesOf("puppy"));
  Hash32 root = t.RootHash();
  for (const char* key : {"do", "dogs", "cat", "doggo", ""}) {
    auto proof = t.Prove(BytesOf(key));
    auto verified = SharedTrie::VerifyProof(root, BytesOf(key), proof);
    ASSERT_TRUE(verified.ok()) << key << ": " << verified.status().ToString();
    EXPECT_FALSE(verified->has_value()) << key;
  }
}

TEST(TrieProofTest, EmptyTrie) {
  SharedTrie t;
  auto proof = t.Prove(BytesOf("anything"));
  EXPECT_TRUE(proof.empty());
  auto verified = SharedTrie::VerifyProof(SharedTrie::EmptyRoot(), BytesOf("anything"), proof);
  ASSERT_TRUE(verified.ok());
  EXPECT_FALSE(verified->has_value());
  // Empty proof against a non-empty root is rejected.
  t.Put(BytesOf("k"), BytesOf("v"));
  EXPECT_FALSE(SharedTrie::VerifyProof(t.RootHash(), BytesOf("k"), {}).ok());
}

TEST(TrieProofTest, RejectsTamperedProof) {
  SharedTrie t;
  for (int i = 0; i < 32; ++i) {
    t.Put(BytesOf("key" + std::to_string(i)), BytesOf("val" + std::to_string(i)));
  }
  Hash32 root = t.RootHash();
  auto proof = t.Prove(BytesOf("key7"));
  ASSERT_FALSE(proof.empty());
  // Flip a byte in each element in turn: every mutation must be caught.
  for (size_t i = 0; i < proof.size(); ++i) {
    auto bad = proof;
    bad[i][bad[i].size() / 2] ^= 0x01;
    auto verified = SharedTrie::VerifyProof(root, BytesOf("key7"), bad);
    EXPECT_FALSE(verified.ok()) << "element " << i;
  }
  // Truncated proof fails too (unless truncation leaves a complete path).
  if (proof.size() > 1) {
    auto truncated = proof;
    truncated.pop_back();
    EXPECT_FALSE(SharedTrie::VerifyProof(root, BytesOf("key7"), truncated).ok());
  }
  // Wrong root fails.
  Hash32 wrong = root;
  wrong[0] ^= 0xff;
  EXPECT_FALSE(SharedTrie::VerifyProof(wrong, BytesOf("key7"), proof).ok());
}

TEST(TrieProofTest, ProofDoesNotLeakWholeTrie) {
  // A proof is logarithmic-ish, not the whole database.
  SharedTrie t;
  for (int i = 0; i < 512; ++i) {
    Bytes key = U256(uint64_t(i) * 2654435761u).ToBytes();
    t.Put(key, BytesOf("v" + std::to_string(i)));
  }
  Bytes key = U256(uint64_t(7) * 2654435761u).ToBytes();
  auto proof = t.Prove(key);
  EXPECT_LT(proof.size(), 10u);
  auto verified = SharedTrie::VerifyProof(t.RootHash(), key, proof);
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(verified->has_value());
}

TEST(TrieProofTest, HexPrefixDecodeRoundTrip) {
  for (bool leaf : {false, true}) {
    for (auto nibbles : std::vector<std::vector<uint8_t>>{
             {}, {1}, {1, 2}, {0xf, 0x0, 0xa}, {5, 5, 5, 5}}) {
      auto decoded = HexPrefixDecode(HexPrefixEncode(nibbles, leaf));
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded->nibbles, nibbles);
      EXPECT_EQ(decoded->is_leaf, leaf);
    }
  }
  EXPECT_FALSE(HexPrefixDecode(Bytes{}).ok());
  EXPECT_FALSE(HexPrefixDecode(Bytes{0x40}).ok());  // flag > 3
}

// Property sweep: random maps are insert-order independent and delete-exact.
class TriePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TriePropertyTest, InsertOrderIndependence) {
  std::mt19937_64 rng(GetParam());
  // Build a deduplicated map (duplicate keys would make order matter).
  std::map<Bytes, Bytes> entries;
  while (entries.size() < 64) {
    Bytes key;
    size_t len = rng() % 8 + 1;
    for (size_t j = 0; j < len; ++j) key.push_back(rng() % 4);  // collide a lot
    entries[key] = BytesOf("value" + std::to_string(rng() % 1000 + 1));
  }
  std::vector<std::pair<Bytes, Bytes>> kv(entries.begin(), entries.end());
  SharedTrie forward;
  for (const auto& [k, v] : kv) forward.Put(k, v);
  SharedTrie backward;
  for (auto it = kv.rbegin(); it != kv.rend(); ++it) {
    backward.Put(it->first, it->second);
  }
  std::shuffle(kv.begin(), kv.end(), rng);
  SharedTrie shuffled;
  for (const auto& [k, v] : kv) shuffled.Put(k, v);
  EXPECT_EQ(forward.RootHash(), backward.RootHash());
  EXPECT_EQ(forward.RootHash(), shuffled.RootHash());
}

TEST_P(TriePropertyTest, InsertDeleteInverse) {
  std::mt19937_64 rng(GetParam());
  SharedTrie t;
  // Base content.
  std::vector<Bytes> base_keys;
  for (int i = 0; i < 32; ++i) {
    Bytes key{static_cast<uint8_t>(rng() % 16), static_cast<uint8_t>(i)};
    base_keys.push_back(key);
    t.Put(key, BytesOf("base"));
  }
  Hash32 base_root = t.RootHash();
  // Insert a batch of extra keys, then delete them in random order.
  std::vector<Bytes> extra;
  for (int i = 0; i < 32; ++i) {
    Bytes key{static_cast<uint8_t>(rng() % 16), static_cast<uint8_t>(i),
              static_cast<uint8_t>(rng() % 256)};
    extra.push_back(key);
    t.Put(key, BytesOf("extra"));
  }
  std::shuffle(extra.begin(), extra.end(), rng);
  for (const Bytes& k : extra) t.Delete(k);
  EXPECT_EQ(t.RootHash(), base_root);
  for (const Bytes& k : base_keys) EXPECT_TRUE(t.Contains(k));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriePropertyTest,
                         ::testing::Values(7u, 99u, 2019u, 0xabcdefu));

}  // namespace
}  // namespace onoff::storage
