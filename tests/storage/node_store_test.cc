#include "storage/node_store.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>

#include "chain/blockchain.h"
#include "rlp/rlp.h"
#include "rlp/rlp_oracle.h"
#include "state/world_state.h"
#include "storage/shared_trie.h"
#include "storage/state_store.h"
#include "support/address.h"
#include "support/u256.h"

namespace onoff::storage {
namespace {

using state::WorldState;

Address Addr(uint8_t tag) {
  std::array<uint8_t, Address::kSize> raw{};
  raw[19] = tag;
  return Address(raw);
}

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

TEST(NodeStoreTest, InMemoryPutGetAndRefcounts) {
  NodeStore store;
  ASSERT_TRUE(store.Open().ok());

  Bytes child_enc = BytesOf(std::string(40, 'c'));
  Hash32 child = Keccak256(child_enc);
  Bytes parent_enc = BytesOf(std::string(40, 'p'));
  Hash32 parent = Keccak256(parent_enc);

  ASSERT_TRUE(store.Put(child, child_enc, {}).ok());
  ASSERT_TRUE(store.Put(parent, parent_enc, {child}).ok());
  EXPECT_TRUE(store.Contains(child));
  EXPECT_TRUE(store.Contains(parent));
  EXPECT_EQ(store.live_nodes(), 2u);

  Result<Bytes> got = store.Get(child);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, child_enc);

  // Retain the parent as a root, then prune past it: both records die
  // (the child via the cascading deref).
  ASSERT_TRUE(store.RetainRoot(parent, 3).ok());
  EXPECT_EQ(store.retained_roots(), 1u);
  Result<size_t> freed = store.PruneBelow(4);
  ASSERT_TRUE(freed.ok());
  EXPECT_EQ(*freed, 2u);
  EXPECT_FALSE(store.Contains(parent));
  EXPECT_FALSE(store.Contains(child));
  EXPECT_EQ(store.live_nodes(), 0u);
}

TEST(NodeStoreTest, SharedSubtreeSurvivesPartialPrune) {
  NodeStore store;
  ASSERT_TRUE(store.Open().ok());

  Bytes shared_enc = BytesOf(std::string(40, 's'));
  Hash32 shared = Keccak256(shared_enc);
  Bytes r1_enc = BytesOf(std::string(40, '1'));
  Hash32 r1 = Keccak256(r1_enc);
  Bytes r2_enc = BytesOf(std::string(40, '2'));
  Hash32 r2 = Keccak256(r2_enc);

  // Two block roots both reference the shared subtree.
  ASSERT_TRUE(store.Put(shared, shared_enc, {}).ok());
  ASSERT_TRUE(store.Put(r1, r1_enc, {shared}).ok());
  ASSERT_TRUE(store.Put(r2, r2_enc, {shared}).ok());
  ASSERT_TRUE(store.RetainRoot(r1, 1).ok());
  ASSERT_TRUE(store.RetainRoot(r2, 2).ok());

  // Pruning block 1 kills r1 but the shared node lives on under r2.
  store.PruneBelow(2);
  EXPECT_FALSE(store.Contains(r1));
  EXPECT_TRUE(store.Contains(shared));
  EXPECT_TRUE(store.Contains(r2));

  store.PruneBelow(3);
  EXPECT_FALSE(store.Contains(shared));
  EXPECT_EQ(store.live_nodes(), 0u);
}

TEST(NodeStoreTest, PersistedStateSupportsHistoricalLookups) {
  NodeStore store;
  ASSERT_TRUE(store.Open().ok());

  WorldState ws;
  ws.SetBalance(Addr(1), U256(111));
  ws.SetStorage(Addr(1), U256(1), U256(7));
  Hash32 root_a = ws.StateRoot();
  ASSERT_TRUE(ws.PersistCommitted(store, 1).ok());

  ws.SetBalance(Addr(1), U256(222));
  ws.SetBalance(Addr(2), U256(333));
  Hash32 root_b = ws.StateRoot();
  ASSERT_TRUE(ws.PersistCommitted(store, 2).ok());
  ASSERT_NE(root_a, root_b);

  // Both historical states answer reads from stored nodes alone.
  Result<std::optional<Bytes>> old_acct =
      store.LookupSecure(root_a, Addr(1).view());
  ASSERT_TRUE(old_acct.ok()) << old_acct.status().message();
  ASSERT_TRUE(old_acct->has_value());
  Result<std::optional<Bytes>> new_acct =
      store.LookupSecure(root_b, Addr(1).view());
  ASSERT_TRUE(new_acct.ok());
  ASSERT_TRUE(new_acct->has_value());
  EXPECT_NE(**old_acct, **new_acct);

  // Addr(2) exists only under root_b.
  Result<std::optional<Bytes>> absent =
      store.LookupSecure(root_a, Addr(2).view());
  ASSERT_TRUE(absent.ok());
  EXPECT_FALSE(absent->has_value());

  // Prune the old block: root_a's exclusive nodes die, root_b's survive.
  store.PruneBelow(2);
  EXPECT_FALSE(store.LookupSecure(root_a, Addr(1).view()).ok());
  Result<std::optional<Bytes>> still =
      store.LookupSecure(root_b, Addr(2).view());
  ASSERT_TRUE(still.ok());
  EXPECT_TRUE(still->has_value());
}

TEST(NodeStoreTest, LookupSecureThroughEmbeddedNodes) {
  // Regression (mirrors TrieProofTest.ProvesKeysThroughEmbeddedNodes):
  // descending into a node embedded in its parent's record (encoding < 32
  // bytes) used to reassign the walker's item through an alias into its own
  // list — returning freed memory instead of the value.
  NodeStore store;
  ASSERT_TRUE(store.Open().ok());

  // For each key, hand-build the stored trie: a hashed extension covering
  // the first 63 hashed nibbles whose child is an EMBEDDED branch holding
  // an EMBEDDED leaf at the key's final nibble. Iterate until every final
  // nibble 0..15 has been exercised — the aliasing UB only fires for low
  // branch indices, where the element-wise vector copy overwrites the
  // embedded child before reading past it.
  uint32_t seen_nibbles = 0;
  for (int i = 0; i < 400 && seen_nibbles != 0xffff; ++i) {
    Bytes key = BytesOf("game-channel-" + std::to_string(i));
    Hash32 hashed = Keccak256(key);
    std::vector<uint8_t> nibbles =
        BytesToNibbles(BytesView(hashed.data(), hashed.size()));
    ASSERT_EQ(nibbles.size(), 64u);
    seen_nibbles |= 1u << nibbles.back();

    Bytes value = BytesOf("bet-" + std::to_string(i));
    rlp::Item leaf = rlp::Item::List(
        {rlp::Item::String(HexPrefixEncode({}, /*is_leaf=*/true)),
         rlp::Item::String(value)});
    ASSERT_LT(rlp::oracle::Encode(leaf).size(), 32u);

    std::vector<rlp::Item> kids(17, rlp::Item::String(Bytes{}));
    kids[nibbles.back()] = leaf;
    rlp::Item branch = rlp::Item::List(std::move(kids));
    ASSERT_LT(rlp::oracle::Encode(branch).size(), 32u);

    std::vector<uint8_t> ext_path(nibbles.begin(), nibbles.end() - 1);
    rlp::Item ext = rlp::Item::List(
        {rlp::Item::String(HexPrefixEncode(ext_path, /*is_leaf=*/false)),
         branch});
    Bytes root_enc = rlp::oracle::Encode(ext);
    ASSERT_GE(root_enc.size(), 32u);
    Hash32 root = Keccak256(root_enc);
    ASSERT_TRUE(store.Put(root, root_enc, {}).ok());

    Result<std::optional<Bytes>> got = store.LookupSecure(root, key);
    ASSERT_TRUE(got.ok()) << i << ": " << got.status().message();
    ASSERT_TRUE(got->has_value()) << i;
    EXPECT_EQ(**got, value) << i;

    // A key that diverges inside the extension path is absent.
    Bytes other = BytesOf("other-channel-" + std::to_string(i));
    Result<std::optional<Bytes>> absent = store.LookupSecure(root, other);
    ASSERT_TRUE(absent.ok()) << absent.status().message();
    EXPECT_FALSE(absent->has_value());
  }
  EXPECT_EQ(seen_nibbles, 0xffffu);
}

TEST(NodeStoreTest, MalformedNodesFailBothWalkConsumers) {
  // Proof verification and historical lookups share one node walk, so one
  // corpus goes to both: as a one-element account proof (the root is the
  // bad node's hash) and as a stored node under its hash. Every entry must
  // fail verification — never yield a value or a proven absence.
  const Address addr = Addr(1);
  Hash32 hashed = Keccak256(addr.view());
  std::vector<uint8_t> nibbles =
      BytesToNibbles(BytesView(hashed.data(), hashed.size()));
  const rlp::Item filler = rlp::Item::String(Bytes(40, 0xab));
  std::vector<rlp::Item> short_refs(16, rlp::Item::String(Bytes(31, 0xcd)));
  short_refs.push_back(rlp::Item::String(Bytes{}));

  const std::pair<const char*, rlp::Item> corpus[] = {
      {"non-list node", filler},
      {"3-field node", rlp::Item::List({filler, filler, filler})},
      {"bad hex-prefix flag",
       rlp::Item::List({rlp::Item::String(Bytes{0x40}), filler})},
      {"31-byte child reference", rlp::Item::List(short_refs)},
      {"leaf value is a list",
       rlp::Item::List(
           {rlp::Item::String(HexPrefixEncode(nibbles, /*is_leaf=*/true)),
            rlp::Item::List({filler})})},
  };
  for (const auto& [name, node] : corpus) {
    Bytes enc = rlp::oracle::Encode(node);
    Hash32 root = Keccak256(enc);

    Result<std::optional<WorldState::AccountInfo>> proven =
        WorldState::VerifyAccountProof(root, addr, {enc});
    ASSERT_FALSE(proven.ok()) << name;
    EXPECT_EQ(proven.status().code(), StatusCode::kVerificationFailed)
        << name << ": " << proven.status().ToString();

    NodeStore store;
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.Put(root, enc, {}).ok());
    Result<std::optional<Bytes>> stored = store.LookupSecure(root, addr.view());
    ASSERT_FALSE(stored.ok()) << name;
    EXPECT_EQ(stored.status().code(), StatusCode::kVerificationFailed)
        << name << ": " << stored.status().ToString();
  }
}

TEST(NodeStoreTest, ReopenReplaysLog) {
  std::string path = TempPath("node_store_reopen.log");
  Hash32 root;
  size_t live = 0;
  auto build = [] {
    WorldState ws;
    for (int i = 0; i < 30; ++i) {
      ws.SetBalance(Addr(static_cast<uint8_t>(i)), U256(1000 + i));
      ws.SetStorage(Addr(static_cast<uint8_t>(i)), U256(1), U256(i));
    }
    return ws;
  };
  {
    NodeStore store(path);
    ASSERT_TRUE(store.Open().ok());
    WorldState ws = build();
    root = ws.StateRoot();
    ASSERT_TRUE(ws.PersistCommitted(store, 1).ok());
    live = store.live_nodes();
    EXPECT_GT(live, 0u);
    EXPECT_GT(store.file_bytes(), 0u);
  }
  // An in-memory store writes no log and holds the same nodes.
  NodeStore in_memory;
  ASSERT_TRUE(in_memory.Open().ok());
  ASSERT_TRUE(build().PersistCommitted(in_memory, 1).ok());
  EXPECT_EQ(in_memory.live_nodes(), live);
  EXPECT_EQ(in_memory.file_bytes(), 0u);
  // A fresh process: replaying the log restores the index and refcounts.
  NodeStore reopened(path);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.live_nodes(), live);
  EXPECT_EQ(reopened.retained_roots(), 1u);
  Result<std::optional<Bytes>> acct =
      reopened.LookupSecure(root, Addr(5).view());
  ASSERT_TRUE(acct.ok());
  EXPECT_TRUE(acct->has_value());
  std::remove(path.c_str());
}

TEST(NodeStoreTest, TornLogTailIsTruncatedAndRecovered) {
  std::string path = TempPath("node_store_torn.log");
  Hash32 root_a;
  uint64_t durable_bytes = 0;
  size_t live_a = 0;
  {
    NodeStore store(path);
    ASSERT_TRUE(store.Open().ok());
    WorldState ws;
    ws.SetBalance(Addr(1), U256(111));
    ws.SetStorage(Addr(1), U256(1), U256(7));
    root_a = ws.StateRoot();
    ASSERT_TRUE(ws.PersistCommitted(store, 1).ok());
    ASSERT_TRUE(store.Flush().ok());
    durable_bytes = store.file_bytes();
    live_a = store.live_nodes();

    // A second block lands after the last flush...
    ws.SetBalance(Addr(2), U256(222));
    (void)ws.StateRoot();
    ASSERT_TRUE(ws.PersistCommitted(store, 2).ok());
    ASSERT_TRUE(store.Flush().ok());
  }
  // ...and the crash tears it mid-record.
  std::filesystem::resize_file(path, durable_bytes + 3);

  // Open() recovers the block-1 prefix instead of refusing the log.
  NodeStore recovered(path);
  ASSERT_TRUE(recovered.Open().ok());
  EXPECT_EQ(recovered.live_nodes(), live_a);
  EXPECT_EQ(recovered.retained_roots(), 1u);
  EXPECT_EQ(recovered.file_bytes(), durable_bytes);
  Result<std::optional<Bytes>> acct =
      recovered.LookupSecure(root_a, Addr(1).view());
  ASSERT_TRUE(acct.ok()) << acct.status().message();
  EXPECT_TRUE(acct->has_value());

  // The recovered store appends at a record boundary: new writes replay.
  WorldState ws2;
  ws2.SetBalance(Addr(9), U256(999));
  Hash32 root_c = ws2.StateRoot();
  ASSERT_TRUE(ws2.PersistCommitted(recovered, 3).ok());
  ASSERT_TRUE(recovered.Flush().ok());
  size_t live_after = recovered.live_nodes();

  NodeStore reopened(path);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.live_nodes(), live_after);
  Result<std::optional<Bytes>> later =
      reopened.LookupSecure(root_c, Addr(9).view());
  ASSERT_TRUE(later.ok());
  EXPECT_TRUE(later->has_value());
  std::remove(path.c_str());
}

TEST(NodeStoreTest, PerBlockFlushMakesMinedBlocksDurable) {
  std::string path = TempPath("node_store_flush.log");
  chain::ChainConfig config;
  config.persist_state = true;
  config.state_db_path = path;
  chain::Blockchain bc(config);
  ASSERT_NE(bc.node_store(), nullptr);

  bc.FundAccount(Addr(1), U256(1000));
  Hash32 root = bc.MineBlock().header.state_root;

  // Without closing the chain (simulating a crash: no destructor flush),
  // the mined block is already fully on disk and replayable.
  NodeStore replayed(path);
  ASSERT_TRUE(replayed.Open().ok());
  Result<std::optional<Bytes>> acct = replayed.LookupSecure(root, Addr(1).view());
  ASSERT_TRUE(acct.ok()) << acct.status().message();
  EXPECT_TRUE(acct->has_value());
  std::remove(path.c_str());
}

TEST(NodeStoreTest, CompactDropsDeadBytesAndStaysReadable) {
  std::string path = TempPath("node_store_compact.log");
  NodeStore store(path);
  ASSERT_TRUE(store.Open().ok());

  WorldState ws;
  ws.SetBalance(Addr(1), U256(1));
  Hash32 roots[6];
  for (int h = 1; h <= 5; ++h) {
    ws.SetBalance(Addr(1), U256(static_cast<uint64_t>(h * 100)));
    ws.SetStorage(Addr(1), U256(static_cast<uint64_t>(h)), U256(1));
    roots[h] = ws.StateRoot();
    ASSERT_TRUE(ws.PersistCommitted(store, static_cast<uint64_t>(h)).ok());
  }
  store.PruneBelow(5);  // keep only the newest state
  uint64_t before = store.file_bytes();
  size_t live = store.live_nodes();
  ASSERT_TRUE(store.Compact().ok());
  EXPECT_LT(store.file_bytes(), before);
  EXPECT_EQ(store.live_nodes(), live);

  // The compacted log still replays to the same live set.
  NodeStore reopened(path);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.live_nodes(), live);
  Result<std::optional<Bytes>> acct =
      reopened.LookupSecure(roots[5], Addr(1).view());
  ASSERT_TRUE(acct.ok());
  EXPECT_TRUE(acct->has_value());
  std::remove(path.c_str());
}

TEST(NodeStoreTest, BlockchainPersistsAndPrunesPerBlock) {
  chain::ChainConfig config;
  config.persist_state = true;  // empty path: in-memory node store
  config.state_history_blocks = 3;
  chain::Blockchain bc(config);
  ASSERT_NE(bc.node_store(), nullptr);

  std::vector<Hash32> roots;
  for (int i = 0; i < 8; ++i) {
    bc.FundAccount(Addr(static_cast<uint8_t>(i + 1)), U256(1000));
    roots.push_back(bc.MineBlock().header.state_root);
  }
  // Only the last `state_history_blocks` roots stay retained.
  EXPECT_LE(bc.node_store()->retained_roots(), 3u);
  EXPECT_GT(bc.node_store()->pruned_total(), 0u);

  // The newest block's state is readable from the store; a pruned one is
  // not (its exclusive nodes are gone).
  Result<std::optional<Bytes>> newest =
      bc.node_store()->LookupSecure(roots.back(), Addr(8).view());
  ASSERT_TRUE(newest.ok());
  EXPECT_TRUE(newest->has_value());
}

// Every key of `state`, read back from `store` under `root`: each account
// record, and through its storage root each slot value.
void ExpectStateReadable(const NodeStore& store, const Hash32& root,
                         const std::map<Address, std::map<uint64_t, uint64_t>>&
                             storage,
                         const std::string& label) {
  for (const auto& [addr, slots] : storage) {
    Result<std::optional<Bytes>> acct = store.LookupSecure(root, addr.view());
    ASSERT_TRUE(acct.ok()) << label << ": " << acct.status().ToString();
    ASSERT_TRUE(acct->has_value()) << label;
    if (slots.empty()) continue;
    Hash32 storage_root;
    ASSERT_TRUE(StateStore::AccountStorageRef(**acct, &storage_root))
        << label;
    for (const auto& [key, value] : slots) {
      Result<std::optional<Bytes>> slot =
          store.LookupSecure(storage_root, U256(key).ToBytes());
      ASSERT_TRUE(slot.ok()) << label << ": " << slot.status().ToString();
      ASSERT_TRUE(slot->has_value()) << label;
      EXPECT_EQ(**slot, rlp::oracle::Encode(rlp::Item::Scalar(U256(value))))
          << label;
    }
  }
}

// A persisted mark must not outlive the root that retained its node: the
// same trie objects persisted again after their states were pruned must be
// stored again, not skipped.
TEST(NodeStoreTest, PersistAfterPruneStoresTheSameNodesAgain) {
  SecureSharedTrie trie;
  std::vector<std::pair<Bytes, Bytes>> entries;
  for (int i = 0; i < 200; ++i) {
    entries.emplace_back(BytesOf("key-" + std::to_string(i)),
                         BytesOf(std::string(1 + i % 40, 'v')));
    trie.Put(entries.back().first, entries.back().second);
  }
  const Hash32 root = trie.RootHash();
  NodeStore store;
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(trie.PersistNodes(store, 1).ok());
  ASSERT_TRUE(store.RetainRoot(root, 1).ok());
  const size_t live = store.live_nodes();
  Result<size_t> freed = store.PruneBelow(2);
  ASSERT_TRUE(freed.ok());
  EXPECT_EQ(*freed, live);
  EXPECT_EQ(store.live_nodes(), 0u);

  ASSERT_TRUE(trie.PersistNodes(store, 2).ok());
  ASSERT_TRUE(store.RetainRoot(root, 2).ok());
  EXPECT_EQ(store.live_nodes(), live);
  for (const auto& [key, value] : entries) {
    Result<std::optional<Bytes>> got = store.LookupSecure(root, key);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got->has_value());
    EXPECT_EQ(**got, value);
  }
}

// A state and its Clone() share every trie node; marks left by a persist
// into one store must not stand for the other store.
TEST(NodeStoreTest, StateAndItsCloneEachPersistWholly) {
  WorldState ws;
  std::map<Address, std::map<uint64_t, uint64_t>> storage;
  for (int i = 1; i <= 60; ++i) {
    Address a = Addr(static_cast<uint8_t>(i));
    ws.SetBalance(a, U256(static_cast<uint64_t>(i) * 7));
    for (uint64_t k = 1; k <= static_cast<uint64_t>(i % 4); ++k) {
      ws.SetStorage(a, U256(k), U256(k * 1000 + static_cast<uint64_t>(i)));
      storage[a][k] = k * 1000 + static_cast<uint64_t>(i);
    }
    storage[a];
  }
  const Hash32 root = ws.StateRoot();
  WorldState clone = ws.Clone();
  NodeStore a;
  NodeStore b;
  ASSERT_TRUE(a.Open().ok());
  ASSERT_TRUE(b.Open().ok());
  ASSERT_TRUE(ws.PersistCommitted(a, 1).ok());
  ASSERT_TRUE(clone.PersistCommitted(b, 1).ok());
  EXPECT_EQ(a.live_nodes(), b.live_nodes());
  ExpectStateReadable(a, root, storage, "state");
  ExpectStateReadable(b, root, storage, "clone");

  // One more block on each: only the new spine is new to either store.
  ws.SetStorage(Addr(3), U256(9), U256(99));
  clone.SetStorage(Addr(3), U256(9), U256(99));
  storage[Addr(3)][9] = 99;
  const Hash32 next = ws.StateRoot();
  ASSERT_EQ(clone.StateRoot(), next);
  ASSERT_TRUE(clone.PersistCommitted(b, 2).ok());
  ASSERT_TRUE(ws.PersistCommitted(a, 2).ok());
  EXPECT_EQ(a.live_nodes(), b.live_nodes());
  ExpectStateReadable(a, next, storage, "state, block 2");
  ExpectStateReadable(b, next, storage, "clone, block 2");
}

// A clone taken after its state persisted into one store, persisted into a
// second store: the account trie and every storage trie land there, though
// the clone committed nothing since the first persist.
TEST(NodeStoreTest, CloneTakenAfterPersistPersistsWhollyIntoAnotherStore) {
  WorldState ws;
  ws.SetBalance(Addr(1), U256(10));
  ws.SetStorage(Addr(1), U256(1), U256(42));
  const Hash32 root = ws.StateRoot();
  NodeStore first;
  NodeStore second;
  ASSERT_TRUE(first.Open().ok());
  ASSERT_TRUE(second.Open().ok());
  ASSERT_TRUE(ws.PersistCommitted(first, 1).ok());
  WorldState clone = ws.Clone();
  ASSERT_TRUE(clone.PersistCommitted(second, 1).ok());
  EXPECT_EQ(second.live_nodes(), first.live_nodes());
  const std::map<Address, std::map<uint64_t, uint64_t>> storage = {
      {Addr(1), {{1, 42}}}};
  ExpectStateReadable(first, root, storage, "first store");
  ExpectStateReadable(second, root, storage, "second store");

  // The original keeps persisting into its own store.
  ws.SetStorage(Addr(1), U256(2), U256(43));
  const Hash32 next = ws.StateRoot();
  ASSERT_TRUE(ws.PersistCommitted(first, 2).ok());
  ExpectStateReadable(first, next, {{Addr(1), {{1, 42}, {2, 43}}}},
                      "first store, block 2");
}

// One state persisted into two stores in turn, and back into the first:
// each holds it whole.
TEST(NodeStoreTest, OneStatePersistsWhollyIntoTwoStores) {
  WorldState ws;
  std::map<Address, std::map<uint64_t, uint64_t>> storage;
  for (int i = 1; i <= 20; ++i) {
    Address a = Addr(static_cast<uint8_t>(i));
    ws.SetBalance(a, U256(static_cast<uint64_t>(i)));
    ws.SetStorage(a, U256(7), U256(static_cast<uint64_t>(i) * 3));
    storage[a][7] = static_cast<uint64_t>(i) * 3;
  }
  const Hash32 root = ws.StateRoot();
  NodeStore a;
  NodeStore b;
  ASSERT_TRUE(a.Open().ok());
  ASSERT_TRUE(b.Open().ok());
  ASSERT_TRUE(ws.PersistCommitted(a, 1).ok());
  ASSERT_TRUE(ws.PersistCommitted(b, 1).ok());
  EXPECT_EQ(a.live_nodes(), b.live_nodes());
  ExpectStateReadable(a, root, storage, "store a");
  ExpectStateReadable(b, root, storage, "store b");

  // A block persisted into `a` after `b`: `a` gets what the block made.
  ws.SetStorage(Addr(5), U256(8), U256(1));
  storage[Addr(5)][8] = 1;
  const Hash32 next = ws.StateRoot();
  const size_t before = a.live_nodes();
  ASSERT_TRUE(ws.PersistCommitted(a, 2).ok());
  EXPECT_GT(a.live_nodes(), before);
  ExpectStateReadable(a, next, storage, "store a, block 2");
}

// A prune mark that cannot be written releases nothing, and the failure is
// returned. The append fails for real: a file-size limit at the log's
// current size, with SIGXFSZ ignored so that write(2) returns EFBIG.
TEST(NodeStoreTest, FailedPruneMarkReleasesNothing) {
  std::string path = TempPath("node_store_prune_fail.log");
  NodeStore store(path);
  ASSERT_TRUE(store.Open().ok());
  WorldState ws;
  Hash32 roots[3];
  for (int h = 1; h <= 2; ++h) {
    ws.SetBalance(Addr(static_cast<uint8_t>(h)), U256(100));
    ws.SetStorage(Addr(1), U256(static_cast<uint64_t>(h)), U256(5));
    roots[h] = ws.StateRoot();
    ASSERT_TRUE(ws.PersistCommitted(store, static_cast<uint64_t>(h)).ok());
  }
  ASSERT_TRUE(store.Flush().ok());
  const size_t live = store.live_nodes();
  const uint64_t bytes = store.file_bytes();

  struct rlimit saved;
  ASSERT_EQ(getrlimit(RLIMIT_FSIZE, &saved), 0);
  void (*saved_handler)(int) = std::signal(SIGXFSZ, SIG_IGN);
  struct rlimit limit = saved;
  limit.rlim_cur = static_cast<rlim_t>(bytes);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &limit), 0);
  Result<size_t> pruned = store.PruneBelow(2);
  ASSERT_EQ(setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, saved_handler);

  ASSERT_FALSE(pruned.ok());
  EXPECT_EQ(pruned.status().code(), StatusCode::kInternal);
  EXPECT_EQ(store.retained_roots(), 2u);
  EXPECT_EQ(store.live_nodes(), live);
  EXPECT_EQ(store.pruned_total(), 0u);
  EXPECT_EQ(store.file_bytes(), bytes);
  Result<std::optional<Bytes>> old = store.LookupSecure(roots[1], Addr(1).view());
  ASSERT_TRUE(old.ok()) << old.status().ToString();
  EXPECT_TRUE(old->has_value());

  // With the limit lifted the same prune goes through, and the log replays
  // to what the store holds.
  pruned = store.PruneBelow(2);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_GT(*pruned, 0u);
  EXPECT_EQ(store.retained_roots(), 1u);
  ASSERT_TRUE(store.Flush().ok());
  NodeStore reopened(path);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.live_nodes(), store.live_nodes());
  EXPECT_EQ(reopened.retained_roots(), 1u);
  EXPECT_EQ(reopened.file_bytes(), store.file_bytes());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace onoff::storage
