#include "storage/shared_trie.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "crypto/keccak.h"
#include "obs/metrics.h"
#include "rlp/rlp.h"
#include "support/bytes.h"
#include "trie/trie.h"

namespace onoff::storage {
namespace {

std::string RootHex(const Hash32& h) {
  return ToHex(BytesView(h.data(), h.size()));
}

TEST(SharedTrieTest, EmptyRootMatchesEthereum) {
  SharedTrie t;
  EXPECT_TRUE(t.IsEmpty());
  EXPECT_EQ(t.RootHash(), trie::Trie::EmptyRoot());
  EXPECT_EQ(RootHex(t.RootHash()),
            "56e81f171bcc55a6ff8345e692c0f86e5b48e01b996cadc001622fb5e363b421");
}

TEST(SharedTrieTest, KnownVectorsMatchSeedTrie) {
  // The canonical MPT documentation example, plus the seed trie on the same
  // content — roots must be byte-identical.
  SharedTrie shared;
  trie::Trie seed;
  for (const char* kv : {"doe/reindeer", "dog/puppy", "dogglesworth/cat"}) {
    std::string s(kv);
    size_t slash = s.find('/');
    Bytes k = BytesOf(s.substr(0, slash));
    Bytes v = BytesOf(s.substr(slash + 1));
    shared.Put(k, v);
    seed.Put(k, v);
  }
  EXPECT_EQ(RootHex(shared.RootHash()),
            "8aad789dff2f538bca5d8ea56e8abe10f4c7ba3a5dea95fea4cd6e7c3a1168d3");
  EXPECT_EQ(shared.RootHash(), seed.RootHash());
}

TEST(SharedTrieTest, DifferentialAgainstSeedTrie) {
  // Random inserts, overwrites and deletes; after every mutation the shared
  // trie's root must equal a seed trie holding the same content.
  std::mt19937_64 rng(0xC0FFEE);
  SharedTrie shared;
  trie::Trie seed;
  std::map<std::string, std::string> model;

  auto random_key = [&rng]() {
    // Short keys collide prefixes aggressively — exercises extension/branch
    // splitting and re-merging.
    size_t len = 1 + rng() % 6;
    std::string k;
    for (size_t i = 0; i < len; ++i) k.push_back('a' + rng() % 4);
    return k;
  };

  for (int step = 0; step < 800; ++step) {
    std::string k = random_key();
    if (rng() % 4 == 0 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, rng() % model.size());
      k = it->first;
      shared.Delete(BytesOf(k));
      seed.Delete(BytesOf(k));
      model.erase(k);
    } else {
      std::string v = "value-" + std::to_string(rng() % 1000);
      shared.Put(BytesOf(k), BytesOf(v));
      seed.Put(BytesOf(k), BytesOf(v));
      model[k] = v;
    }
    ASSERT_EQ(shared.RootHash(), seed.RootHash()) << "diverged at step " << step;
  }
  // Content agrees with the model too.
  for (const auto& [k, v] : model) {
    Result<Bytes> got = shared.Get(BytesOf(k));
    ASSERT_TRUE(got.ok()) << k;
    EXPECT_EQ(*got, BytesOf(v));
  }
}

TEST(SharedTrieTest, CopyIsIndependentSnapshot) {
  SharedTrie a;
  a.Put(BytesOf("doe"), BytesOf("reindeer"));
  a.Put(BytesOf("dog"), BytesOf("puppy"));
  Hash32 root_before = a.RootHash();

  SharedTrie b = a;  // O(1): shares all nodes
  EXPECT_EQ(a.root().get(), b.root().get());

  a.Put(BytesOf("dog"), BytesOf("hound"));
  EXPECT_NE(a.RootHash(), root_before);
  // The snapshot is untouched — same root, same content.
  EXPECT_EQ(b.RootHash(), root_before);
  EXPECT_EQ(*b.Get(BytesOf("dog")), BytesOf("puppy"));

  // Reverting the value restores the exact root (content-addressed).
  a.Put(BytesOf("dog"), BytesOf("puppy"));
  EXPECT_EQ(a.RootHash(), root_before);
}

TEST(SharedTrieTest, StructuralSharingAfterMutation) {
  // Two tries differing in one key share the untouched subtrees: mutating
  // one key must not clone the whole trie.
  SharedTrie a;
  for (int i = 0; i < 200; ++i) {
    a.Put(BytesOf("key-" + std::to_string(i)), BytesOf("v" + std::to_string(i)));
  }
  size_t nodes_before = a.CountNodes();
  SharedTrie b = a;
  b.Put(BytesOf("key-7"), BytesOf("changed"));
  // Only the spine from the root to one leaf was copied; reachable node
  // count is unchanged (same shape), and far fewer than 2x nodes exist in
  // total across both tries.
  EXPECT_EQ(b.CountNodes(), nodes_before);
  EXPECT_NE(a.root().get(), b.root().get());
}

TEST(SharedTrieTest, NoOpWritePreservesIdentity) {
  SharedTrie t;
  t.Put(BytesOf("alpha"), BytesOf("1"));
  t.Put(BytesOf("beta"), BytesOf("2"));
  const void* root_before = t.root().get();
  t.Put(BytesOf("alpha"), BytesOf("1"));  // same value: no-op
  EXPECT_EQ(t.root().get(), root_before);
  t.Delete(BytesOf("missing"));  // absent key: no-op
  EXPECT_EQ(t.root().get(), root_before);
}

// Writes made through SplitRoot, a sorted fold into each of the 16
// subtries and JoinRoot give the trie the same writes made directly would: from empty,
// with no change (the root node stays), down to one key (the root branch
// collapses into a leaf, which does not split), down to no key, and with
// only the root's own value left.
TEST(SharedTrieTest, SplitAndJoinMatchDirectWrites) {
  std::vector<Bytes> keys;
  for (int i = 0; i < 300; ++i) {
    Hash32 h = Keccak256(BytesOf("split-" + std::to_string(i)));
    keys.emplace_back(h.begin(), h.end());
  }
  // Applies (key index, value) writes to `t` through its subtries.
  auto write_split = [&keys](SharedTrie& t,
                             const std::vector<std::pair<int, Bytes>>& batch) {
    std::array<SharedTrie, 16> children;
    if (!t.SplitRoot(&children)) return false;
    std::array<std::vector<TrieWrite>, 16> groups;
    for (const auto& [k, value] : batch) {
      groups[keys[k][0] >> 4].push_back({keys[k], value});
    }
    for (int i = 0; i < 16; ++i) {
      std::sort(groups[i].begin(), groups[i].end(), TrieWrite::KeyLess);
      children[i].PutSorted(groups[i], /*skip=*/1);
    }
    t.JoinRoot(children);
    return true;
  };

  SharedTrie direct;
  SharedTrie split;
  std::vector<std::pair<int, Bytes>> writes;
  for (int i = 0; i < 300; ++i) {
    writes.emplace_back(i, BytesOf("v" + std::to_string(i)));
  }
  for (const auto& [k, value] : writes) direct.Put(keys[k], value);
  ASSERT_TRUE(write_split(split, writes));
  EXPECT_EQ(split.RootHash(), direct.RootHash());

  const void* root_before = split.root().get();
  ASSERT_TRUE(write_split(split, {{3, BytesOf("v3")}, {9, BytesOf("v9")}}));
  EXPECT_EQ(split.root().get(), root_before);

  writes.clear();
  for (int i = 1; i < 300; ++i) writes.emplace_back(i, Bytes{});
  writes.emplace_back(0, BytesOf("changed"));
  for (const auto& [k, value] : writes) direct.Put(keys[k], value);
  ASSERT_TRUE(write_split(split, writes));
  EXPECT_EQ(split.RootHash(), direct.RootHash());
  EXPECT_EQ(*split.Get(keys[0]), BytesOf("changed"));
  EXPECT_FALSE(write_split(split, {{1, BytesOf("refused")}}));

  // Two keys under different root nibbles make a root branch.
  int other = 1;
  while ((keys[other][0] >> 4) == (keys[0][0] >> 4)) ++other;
  SharedTrie two;
  two.Put(keys[0], BytesOf("a"));
  two.Put(keys[other], BytesOf("b"));
  ASSERT_TRUE(write_split(two, {{0, Bytes{}}, {other, Bytes{}}}));
  EXPECT_TRUE(two.IsEmpty());

  // A root branch's own value (the empty key) survives the join.
  SharedTrie valued;
  valued.Put(Bytes{}, BytesOf("root value"));
  valued.Put(keys[0], BytesOf("a"));
  valued.Put(keys[other], BytesOf("b"));
  ASSERT_TRUE(write_split(valued, {{0, Bytes{}}, {other, Bytes{}}}));
  SharedTrie only_value;
  only_value.Put(Bytes{}, BytesOf("root value"));
  EXPECT_EQ(valued.RootHash(), only_value.RootHash());
  EXPECT_EQ(*valued.Get(Bytes{}), BytesOf("root value"));
}

TEST(SharedTrieTest, EmptyValueDeletes) {
  SharedTrie t;
  t.Put(BytesOf("k"), BytesOf("v"));
  t.Put(BytesOf("k"), BytesView());
  EXPECT_TRUE(t.IsEmpty());
}

TEST(SharedTrieTest, ProofsVerifyAgainstSeedVerifier) {
  SharedTrie t;
  std::vector<std::string> keys;
  for (int i = 0; i < 50; ++i) {
    std::string k = "account-" + std::to_string(i);
    keys.push_back(k);
    t.Put(BytesOf(k), BytesOf("balance-" + std::to_string(i * 7)));
  }
  Hash32 root = t.RootHash();
  for (const std::string& k : keys) {
    std::vector<Bytes> proof = t.Prove(BytesOf(k));
    Result<std::optional<Bytes>> res =
        trie::Trie::VerifyProof(root, BytesOf(k), proof);
    ASSERT_TRUE(res.ok()) << k << ": " << res.status().message();
    ASSERT_TRUE(res->has_value()) << k;
    EXPECT_EQ(**res, BytesOf("balance-" + std::to_string(
                                 std::stoi(k.substr(8)) * 7)));
  }
  // Absence proof.
  std::vector<Bytes> absent = t.Prove(BytesOf("account-999"));
  Result<std::optional<Bytes>> res =
      trie::Trie::VerifyProof(root, BytesOf("account-999"), absent);
  ASSERT_TRUE(res.ok());
  EXPECT_FALSE(res->has_value());
}

TEST(SharedTrieTest, SecureTrieMatchesSeedSecureTrie) {
  SecureSharedTrie shared;
  trie::SecureTrie seed;
  for (int i = 0; i < 64; ++i) {
    Bytes k = BytesOf("slot" + std::to_string(i));
    Bytes v = BytesOf(std::string(1 + i % 40, 'x'));
    shared.Put(k, v);
    seed.Put(k, v);
  }
  EXPECT_EQ(shared.RootHash(), seed.RootHash());
  shared.Delete(BytesOf("slot3"));
  seed.Delete(BytesOf("slot3"));
  EXPECT_EQ(shared.RootHash(), seed.RootHash());
}

TEST(SharedTrieTest, ConcurrentHashingOfSharedSnapshots) {
  // Snapshots share nodes whose encodings are memoized lazily; hashing the
  // same nodes from many threads must be race-free (TSan-checked in CI).
  SharedTrie base;
  for (int i = 0; i < 300; ++i) {
    base.Put(BytesOf("key-" + std::to_string(i)),
             BytesOf("value-" + std::to_string(i)));
  }
  // Note: RootHash has NOT been called yet — encodings are all cold.
  std::vector<SharedTrie> copies(8, base);
  Hash32 expect;
  std::vector<std::thread> threads;
  std::vector<Hash32> roots(copies.size());
  for (size_t i = 0; i < copies.size(); ++i) {
    threads.emplace_back([&, i] { roots[i] = copies[i].RootHash(); });
  }
  for (std::thread& th : threads) th.join();
  expect = base.RootHash();
  for (const Hash32& r : roots) EXPECT_EQ(r, expect);
}

TEST(SharedTrieTest, PersistWalkEmitsEachNodeOnceAndStopsAtKnown) {
  SharedTrie t;
  for (int i = 0; i < 120; ++i) {
    t.Put(BytesOf("key-" + std::to_string(i)), BytesOf(std::string(40, 'a')));
  }
  std::map<std::string, Bytes> store;
  size_t emitted = 0;
  auto known = [&store](const Hash32& h) {
    return store.count(std::string(h.begin(), h.end())) > 0;
  };
  auto emit = [&](const Hash32& h, const Bytes& enc,
                  const std::vector<Hash32>& refs) {
    // Children before parents: every hashed reference must already be
    // present when the referencing node arrives.
    for (const Hash32& r : refs) {
      EXPECT_TRUE(store.count(std::string(r.begin(), r.end())) > 0);
    }
    EXPECT_EQ(Keccak256(enc), h);
    store[std::string(h.begin(), h.end())] = enc;
    ++emitted;
  };
  t.PersistNodes(known, emit);
  EXPECT_GT(emitted, 0u);
  // Second walk with everything known: nothing re-emitted.
  size_t before = emitted;
  t.PersistNodes(known, emit);
  EXPECT_EQ(emitted, before);
  // One more key: only the new spine is emitted, not the whole trie.
  t.Put(BytesOf("key-new"), BytesOf(std::string(40, 'b')));
  t.PersistNodes(known, emit);
  EXPECT_GT(emitted, before);
  EXPECT_LT(emitted - before, 12u);
}

// The hashed child references written inside one encoded node: 32-byte
// strings in a branch's child slots or an extension's child, descending
// into embedded (inline) children.
void CollectEncodedRefs(const rlp::Item& node, std::vector<Hash32>* out) {
  auto child = [out](const rlp::Item& ref) {
    if (ref.IsList()) {
      CollectEncodedRefs(ref, out);
    } else if (ref.string().size() == 32) {
      Hash32 h;
      std::copy(ref.string().begin(), ref.string().end(), h.begin());
      out->push_back(h);
    }
  };
  const std::vector<rlp::Item>& fields = node.list();
  if (fields.size() == 17) {
    for (int i = 0; i < 16; ++i) child(fields[i]);
  } else if (fields.size() == 2) {
    Result<HexPrefixPath> path = HexPrefixDecode(fields[0].string());
    ASSERT_TRUE(path.ok());
    if (!path->is_leaf) child(fields[1]);
  }
}

// Persists `t` into a fresh store and checks that no memoized hash is
// stale: each record hashes to the hash it was emitted under, and each
// reference equals the keccak of the child record it names and of what the
// parent's own encoding embeds.
void ExpectFreshHashes(const SharedTrie& t, const std::string& label) {
  std::map<Hash32, Bytes> store;
  Hash32 last{};
  auto known = [&store](const Hash32& h) { return store.count(h) > 0; };
  auto emit = [&](const Hash32& h, const Bytes& enc,
                  const std::vector<Hash32>& refs) {
    EXPECT_EQ(Keccak256(enc), h) << label;
    for (const Hash32& ref : refs) {
      auto child = store.find(ref);
      ASSERT_NE(child, store.end()) << label << ": child emitted late";
      EXPECT_EQ(Keccak256(child->second), ref) << label;
    }
    Result<rlp::Item> item = rlp::Decode(enc);
    ASSERT_TRUE(item.ok()) << label;
    std::vector<Hash32> embedded;
    CollectEncodedRefs(*item, &embedded);
    std::vector<Hash32> sorted_refs = refs;
    std::sort(embedded.begin(), embedded.end());
    std::sort(sorted_refs.begin(), sorted_refs.end());
    EXPECT_EQ(embedded, sorted_refs) << label;
    store[h] = enc;
    last = h;
  };
  t.PersistNodes(known, emit);
  if (!t.IsEmpty()) {
    EXPECT_EQ(last, t.RootHash()) << label;  // the root comes last
  }
}

TEST(SharedTrieTest, PersistWalkHashesNeverGoStale) {
  std::mt19937_64 rng(0x57a1e);
  SharedTrie live;
  trie::Trie seed;
  std::map<std::string, std::string> model;
  std::vector<std::pair<SharedTrie, Hash32>> copies;  // (copy, its root)
  for (int step = 0; step < 600; ++step) {
    // Short keys and values of every size up to 40 bytes mix hashed and
    // embedded nodes.
    std::string k;
    for (size_t i = 0, len = 1 + rng() % 5; i < len; ++i) {
      k.push_back(static_cast<char>('a' + rng() % 6));
    }
    if (rng() % 3 == 0 && !model.empty()) {
      auto it = model.begin();
      std::advance(it, rng() % model.size());
      k = it->first;
      live.Delete(BytesOf(k));
      seed.Delete(BytesOf(k));
      model.erase(it);
    } else {
      std::string v(1 + rng() % 40, static_cast<char>('A' + rng() % 26));
      live.Put(BytesOf(k), BytesOf(v));
      seed.Put(BytesOf(k), BytesOf(v));
      model[k] = v;
    }
    // Hash only some versions, so later versions mix warm shared nodes
    // with cold new ones.
    if (step % 7 == 0) {
      ASSERT_EQ(live.RootHash(), seed.RootHash()) << "step " << step;
    }
    if (step % 50 == 0) copies.emplace_back(live, seed.RootHash());
  }
  ExpectFreshHashes(live, "live");
  EXPECT_EQ(live.RootHash(), seed.RootHash());
  // Every older copy still hashes to the root it had when it was taken.
  for (size_t i = 0; i < copies.size(); ++i) {
    const auto& [copy, root] = copies[i];
    ExpectFreshHashes(copy, "copy " + std::to_string(i));
    EXPECT_EQ(copy.RootHash(), root) << "copy " << i;
  }
}

// ---- Batch fold (PutSorted) ----

uint64_t CounterValue(const char* name) {
  return obs::Registry::Global()->CounterValue(name);
}

// The nodes hashed by `t.RootHash()`.
uint64_t HashedByRoot(const SharedTrie& t, Hash32* root) {
  const uint64_t before = CounterValue("storage.trie_nodes_hashed");
  *root = t.RootHash();
  return CounterValue("storage.trie_nodes_hashed") - before;
}

using Batch = std::map<Bytes, Bytes>;  // key order; an empty value deletes

std::vector<TrieWrite> WritesOf(const Batch& batch) {
  std::vector<TrieWrite> writes;
  for (const auto& [key, value] : batch) writes.push_back({key, value});
  return writes;
}

struct Folded {
  SharedTrie trie;
  uint64_t fold_hashed = 0;
  uint64_t put_hashed = 0;
};

// Applies `batch` to copies of `base` (hashed first, so only what the batch
// makes is counted) by the fold and by one Put per write in key order, and
// to `seed`, which holds base's content. The fold must give the seed trie's
// root, and the Puts' root and proof for every batch key and `probes`.
Folded FoldAndCompare(const SharedTrie& base, trie::Trie& seed,
                      const Batch& batch, const std::vector<Bytes>& probes,
                      const std::string& label) {
  base.RootHash();
  Folded out{base};
  out.trie.PutSorted(WritesOf(batch));
  SharedTrie put = base;
  for (const auto& [key, value] : batch) {
    put.Put(key, value);
    if (value.empty()) {
      seed.Delete(key);
    } else {
      seed.Put(key, value);
    }
  }
  Hash32 fold_root;
  Hash32 put_root;
  out.fold_hashed = HashedByRoot(out.trie, &fold_root);
  out.put_hashed = HashedByRoot(put, &put_root);
  EXPECT_EQ(fold_root, seed.RootHash()) << label;
  EXPECT_EQ(put_root, seed.RootHash()) << label;
  for (const auto& [key, value] : batch) {
    EXPECT_EQ(out.trie.Prove(key), put.Prove(key)) << label;
    EXPECT_EQ(out.trie.Prove(key), seed.Prove(key)) << label;
  }
  for (const Bytes& key : probes) {
    EXPECT_EQ(out.trie.Prove(key), put.Prove(key)) << label;
  }
  return out;
}

// Seeded key sets folded into an empty trie and then, batch by batch, into
// the populated one: fixed-width hashed keys as the state and storage tries
// use, and short keys over a small alphabet, whose keys are often prefixes
// of one another, with values from 1 to 40 bytes, so nodes are both
// embedded and hashed. A batch that does not both delete keys and add new
// ones hashes exactly the nodes the Puts hash; one that does can hash
// fewer (BatchFoldDoesNotRegrowACollapsedBranch), never more.
TEST(SharedTrieTest, BatchFoldMatchesPutsAndSeedTrie) {
  if (obs::Registry::Global() == nullptr) {
    GTEST_SKIP() << "metrics disabled (ONOFF_METRICS=0)";
  }
  for (bool hashed_keys : {true, false}) {
    std::mt19937_64 rng(hashed_keys ? 0xf01d : 0xf01e);
    auto random_key = [&]() {
      if (hashed_keys) {
        Hash32 h = Keccak256(BytesOf("k" + std::to_string(rng() % 3000)));
        return Bytes(h.begin(), h.end());
      }
      std::string k;
      for (size_t i = 0, n = rng() % 5; i < n; ++i) {
        k.push_back(static_cast<char>('a' + rng() % 3));
      }
      return BytesOf(k);
    };
    auto random_value = [&rng]() {
      return Bytes(1 + rng() % 40, static_cast<uint8_t>('A' + rng() % 26));
    };
    SharedTrie live;
    trie::Trie seed;
    std::map<Bytes, Bytes> model;
    for (int round = 0; round < 40; ++round) {
      const std::string label = std::string(hashed_keys ? "hashed" : "short") +
                                " round " + std::to_string(round);
      Batch batch;
      const size_t n = round == 0 ? 300 : 1 + rng() % 60;
      const int mix = round % 4;  // 0: all kinds, 1: new keys, 2: deletes,
                                  // 3: overwrites
      for (size_t i = 0; i < n; ++i) {
        Bytes key = random_key();
        if (mix == 2 || mix == 3 || (mix == 0 && rng() % 2 == 0)) {
          if (model.empty()) continue;
          auto it = model.begin();
          std::advance(it, rng() % model.size());
          key = it->first;
        }
        if (mix == 1 && model.count(key) > 0) continue;
        const bool del = mix == 2 || (mix == 0 && rng() % 3 == 0);
        batch[key] = del ? Bytes{} : random_value();
      }
      bool deletes = false;
      bool adds = false;
      for (const auto& [key, value] : batch) {
        deletes |= value.empty() && model.count(key) > 0;
        adds |= !value.empty() && model.count(key) == 0;
      }
      std::vector<Bytes> probes;
      for (int i = 0; i < 8; ++i) probes.push_back(random_key());
      Folded f = FoldAndCompare(live, seed, batch, probes, label);
      if (deletes && adds) {
        EXPECT_LE(f.fold_hashed, f.put_hashed) << label;
      } else {
        EXPECT_EQ(f.fold_hashed, f.put_hashed) << label;
      }
      live = f.trie;
      for (const auto& [key, value] : batch) {
        if (value.empty()) {
          model.erase(key);
        } else {
          model[key] = value;
        }
      }
    }
    for (const auto& [key, value] : model) {
      Result<Bytes> got = live.Get(key);
      ASSERT_TRUE(got.ok());
      EXPECT_EQ(*got, value);
    }
  }
}

// Writing back what every key holds, plus deletes of absent keys, keeps the
// root object and hashes nothing.
TEST(SharedTrieTest, BatchFoldOfEqualValuesKeepsTheRoot) {
  if (obs::Registry::Global() == nullptr) {
    GTEST_SKIP() << "metrics disabled (ONOFF_METRICS=0)";
  }
  SharedTrie t;
  Batch batch;
  for (int i = 0; i < 200; ++i) {
    Hash32 h = Keccak256(BytesOf("eq-" + std::to_string(i)));
    batch[Bytes(h.begin(), h.end())] = BytesOf("v" + std::to_string(i % 7));
  }
  t.PutSorted(WritesOf(batch));
  t.RootHash();
  const void* root = t.root().get();
  for (int i = 0; i < 20; ++i) {
    Hash32 h = Keccak256(BytesOf("absent-" + std::to_string(i)));
    batch[Bytes(h.begin(), h.end())] = Bytes{};
  }
  t.PutSorted(WritesOf(batch));
  EXPECT_EQ(t.root().get(), root);
  Hash32 unused;
  EXPECT_EQ(HashedByRoot(t, &unused), 0u);
}

// Deletes down to one key leave one leaf, made once; deletes of the rest
// empty the trie.
TEST(SharedTrieTest, BatchFoldDeletesDownToOneKeyAndToNone) {
  if (obs::Registry::Global() == nullptr) {
    GTEST_SKIP() << "metrics disabled (ONOFF_METRICS=0)";
  }
  for (bool short_keys : {false, true}) {
    SharedTrie base;
    trie::Trie seed;
    Batch all;
    for (int i = 0; i < 150; ++i) {
      Bytes key;
      if (short_keys) {
        key = BytesOf(std::string(1 + i % 4, static_cast<char>('a' + i % 5)) +
                      std::to_string(i / 20));
      } else {
        Hash32 h = Keccak256(BytesOf("del-" + std::to_string(i)));
        key.assign(h.begin(), h.end());
      }
      all[key] = Bytes(35, static_cast<uint8_t>(i));
    }
    base.PutSorted(WritesOf(all));
    for (const auto& [key, value] : all) seed.Put(key, value);
    ASSERT_EQ(base.RootHash(), seed.RootHash());

    Batch to_one;
    for (const auto& [key, value] : all) to_one[key] = Bytes{};
    const Bytes kept = std::next(all.begin(), 77)->first;
    to_one.erase(kept);
    Folded one = FoldAndCompare(base, seed, to_one, {kept}, "to one");
    EXPECT_EQ(one.fold_hashed, 1u);
    EXPECT_EQ(one.put_hashed, 1u);
    EXPECT_EQ(one.trie.CountNodes(), 1u);

    Folded none = FoldAndCompare(one.trie, seed, {{kept, Bytes{}}}, {kept},
                                 "to none");
    EXPECT_TRUE(none.trie.IsEmpty());
    EXPECT_EQ(none.trie.RootHash(), SharedTrie::EmptyRoot());
    EXPECT_EQ(none.fold_hashed, 0u);
  }
}

// Keys that are prefixes of other keys: branch values, including the root's
// (the empty key), written, overwritten and deleted.
TEST(SharedTrieTest, BatchFoldOfPrefixKeys) {
  if (obs::Registry::Global() == nullptr) {
    GTEST_SKIP() << "metrics disabled (ONOFF_METRICS=0)";
  }
  auto batch_of = [](std::initializer_list<std::pair<const char*, const char*>>
                         kvs) {
    Batch b;
    for (const auto& [k, v] : kvs) b[BytesOf(k)] = BytesOf(v);
    return b;
  };
  const std::vector<Bytes> probes = {BytesOf(""), BytesOf("a"), BytesOf("ab"),
                                     BytesOf("abc"), BytesOf("abcd"),
                                     BytesOf("b")};
  trie::Trie seed;
  Folded f = FoldAndCompare(
      SharedTrie(), seed,
      batch_of({{"", "root"}, {"a", "1"}, {"ab", "2"}, {"abc", "3"},
                {"abd", std::string(40, 'x').c_str()}, {"b", "4"}}),
      probes, "build");
  EXPECT_EQ(f.fold_hashed, f.put_hashed);
  f = FoldAndCompare(f.trie, seed,
                     batch_of({{"", ""}, {"ab", "two"}, {"abc", ""},
                               {"abcd", "new"}}),
                     probes, "rewrite");
  EXPECT_LE(f.fold_hashed, f.put_hashed);
  f = FoldAndCompare(f.trie, seed,
                     batch_of({{"a", ""}, {"ab", ""}, {"b", ""}}), probes,
                     "delete the short keys");
  EXPECT_EQ(f.fold_hashed, f.put_hashed);
  // Deleting "abd" leaves "abcd" alone: one leaf.
  f = FoldAndCompare(f.trie, seed, batch_of({{"abd", ""}}), probes,
                     "one left");
  EXPECT_EQ(f.trie.CountNodes(), 1u);
}

// A batch of one write: into an empty trie, and a new key, an overwrite and
// a delete into a populated one.
TEST(SharedTrieTest, BatchFoldOfOneWrite) {
  if (obs::Registry::Global() == nullptr) {
    GTEST_SKIP() << "metrics disabled (ONOFF_METRICS=0)";
  }
  trie::Trie seed;
  Folded f = FoldAndCompare(SharedTrie(), seed,
                            {{BytesOf("only"), BytesOf("v")}}, {}, "empty");
  EXPECT_EQ(f.fold_hashed, 1u);
  Batch fill;
  for (int i = 0; i < 100; ++i) {
    fill[BytesOf("key-" + std::to_string(i))] = Bytes(33, 0x11);
  }
  f = FoldAndCompare(f.trie, seed, fill, {}, "fill");
  for (const auto& [key, value] :
       std::vector<std::pair<Bytes, Bytes>>{{BytesOf("key-500"), BytesOf("n")},
                                            {BytesOf("key-42"), BytesOf("o")},
                                            {BytesOf("key-7"), Bytes{}}}) {
    f = FoldAndCompare(f.trie, seed, {{key, value}}, {}, ToHex(key));
    EXPECT_EQ(f.fold_hashed, f.put_hashed) << ToHex(key);
  }
}

// Deleting one of a branch's two children and adding a third: one Put at a
// time collapses the branch into a leaf and splits it again, making the
// kept child anew; the fold keeps the branch, and the kept child's node.
TEST(SharedTrieTest, BatchFoldDoesNotRegrowACollapsedBranch) {
  if (obs::Registry::Global() == nullptr) {
    GTEST_SKIP() << "metrics disabled (ONOFF_METRICS=0)";
  }
  const Bytes x = {0x10, 0x01};
  const Bytes y = {0x20, 0x02};
  const Bytes z = {0x30, 0x03};
  const Bytes value(40, 0x77);  // hashed leaves
  trie::Trie seed;
  Folded f = FoldAndCompare(SharedTrie(), seed, {{x, value}, {y, value}}, {},
                            "two");
  f = FoldAndCompare(f.trie, seed, {{x, Bytes{}}, {z, value}}, {x, y, z},
                     "delete one, add one");
  EXPECT_EQ(f.fold_hashed, 2u);  // the root branch and z's leaf
  EXPECT_EQ(f.put_hashed, 3u);   // ... and y's leaf again
}

// storage.trie_node_cache_hits counts the memos hashing reuses, nothing
// else: none on the first hash, the root on a repeated RootHash, exactly
// the unchanged children the new path references after one leaf changes,
// and none for proofs or the persistence walk.
TEST(SharedTrieTest, CacheHitsCountOnlyReusedMemos) {
  if (obs::Registry::Global() == nullptr) {
    GTEST_SKIP() << "metrics disabled (ONOFF_METRICS=0)";
  }
  auto hits = [] { return CounterValue("storage.trie_node_cache_hits"); };
  SharedTrie t;
  std::vector<Bytes> keys;
  for (int i = 0; i < 500; ++i) {
    Hash32 h = Keccak256(BytesOf("hit-" + std::to_string(i)));
    keys.emplace_back(h.begin(), h.end());
    t.Put(keys.back(), Bytes(40, static_cast<uint8_t>(i)));  // hashed nodes
  }
  uint64_t before = hits();
  Hash32 root;
  EXPECT_EQ(HashedByRoot(t, &root), t.CountNodes());
  EXPECT_EQ(hits() - before, 0u);
  before = hits();
  t.RootHash();
  EXPECT_EQ(hits() - before, 1u);

  t.Put(keys[7], Bytes(40, 0xee));
  before = hits();
  const uint64_t hashed = HashedByRoot(t, &root);
  const uint64_t reused = hits() - before;
  // The new path is the proof of keys[7] (every node here is hashed): each
  // branch on it references its other children, all unchanged.
  const std::vector<Bytes> path = t.Prove(keys[7]);
  uint64_t referenced = 0;
  for (const Bytes& enc : path) {
    Result<rlp::Item> node = rlp::Decode(enc);
    ASSERT_TRUE(node.ok());
    if (node->list().size() != 17) continue;
    for (int i = 0; i < 16; ++i) {
      if (!node->list()[i].string().empty()) ++referenced;
    }
    --referenced;  // the child on the path is new
  }
  ASSERT_GT(referenced, 0u);
  EXPECT_EQ(hashed, path.size());
  EXPECT_EQ(reused, referenced);

  before = hits();
  t.Prove(keys[9]);
  size_t emitted = 0;
  t.PersistNodes([](const Hash32&) { return false; },
                 [&emitted](const Hash32&, const Bytes&,
                            const std::vector<Hash32>&) { ++emitted; });
  EXPECT_EQ(emitted, t.CountNodes());
  EXPECT_EQ(hits() - before, 0u);
}

// Tries built by the fold, hashed from many threads at once: each node's
// encoding memoizes its children first, nesting their call_once in its own
// (TSan-checked in CI).
TEST(SharedTrieTest, ConcurrentHashingOfFoldedSnapshots) {
  Batch batch;
  for (int i = 0; i < 400; ++i) {
    Hash32 h = Keccak256(BytesOf("par-" + std::to_string(i)));
    batch[Bytes(h.begin(), h.end())] = Bytes(1 + i % 50, 0x42);
  }
  SharedTrie base;
  base.PutSorted(WritesOf(batch));
  std::vector<SharedTrie> copies(6, base);
  std::vector<Hash32> roots(copies.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < copies.size(); ++i) {
    threads.emplace_back([&, i] { roots[i] = copies[i].RootHash(); });
  }
  for (std::thread& th : threads) th.join();
  trie::Trie seed;
  for (const auto& [key, value] : batch) seed.Put(key, value);
  for (const Hash32& r : roots) EXPECT_EQ(r, seed.RootHash());
}

}  // namespace
}  // namespace onoff::storage
