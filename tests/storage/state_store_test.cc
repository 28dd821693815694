#include "storage/state_store.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "state/world_state.h"
#include "support/address.h"
#include "storage/shared_trie.h"
#include "support/u256.h"

namespace onoff::state {
namespace {

Address Addr(uint8_t tag) {
  std::array<uint8_t, Address::kSize> raw{};
  raw[19] = tag;
  raw[0] = 0xAA;
  return Address(raw);
}

TEST(StateStoreTest, EmptyStateRootMatchesRebuild) {
  WorldState ws;
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());
  EXPECT_EQ(ws.StateRoot(), storage::SharedTrie::EmptyRoot());
}

TEST(StateStoreTest, IncrementalMatchesRebuildAfterBasicMutations) {
  WorldState ws;
  ws.SetBalance(Addr(1), U256(1000));
  ws.SetNonce(Addr(1), 7);
  ws.SetCode(Addr(2), BytesOf("\x60\x00\x60\x00"));
  ws.SetStorage(Addr(2), U256(1), U256(42));
  ws.SetStorage(Addr(2), U256(2), U256(43));
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());

  // Incremental follow-up: only one slot changes.
  ws.SetStorage(Addr(2), U256(1), U256(99));
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());

  // Zero write deletes the slot from the trie.
  ws.SetStorage(Addr(2), U256(2), U256(0));
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());
}

TEST(StateStoreTest, DeleteAndRecreateAccount) {
  WorldState ws;
  ws.SetCode(Addr(5), BytesOf("code"));
  for (int i = 1; i <= 10; ++i) {
    ws.SetStorage(Addr(5), U256(static_cast<uint64_t>(i)), U256(100 + i));
  }
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());

  // SELFDESTRUCT: the account and its whole storage trie vanish.
  ws.DeleteAccount(Addr(5));
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());

  // Recreation starts from empty storage; the store must not resurrect the
  // old trie.
  ws.SetBalance(Addr(5), U256(5));
  ws.SetStorage(Addr(5), U256(1), U256(1));
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());
}

// The account record's code hash comes from the account's code-hash memo
// (the commit path) while RebuildStateRoot hashes code from scratch: the
// memo must follow every code change, revert and recreation.
TEST(StateStoreTest, CodeHashMemoFollowsSetCodeRevertAndRecreate) {
  WorldState ws;
  ws.SetCode(Addr(6), BytesOf("\x60\x01\x00"));
  ws.SetBalance(Addr(6), U256(6));
  ws.ClearJournal();
  Hash32 first = ws.GetCodeHash(Addr(6));  // warm the memo
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());

  // New code, then a revert back to the original.
  auto snap = ws.TakeSnapshot();
  ws.SetCode(Addr(6), BytesOf("\x60\x02\x00"));
  EXPECT_NE(ws.GetCodeHash(Addr(6)), first);
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());
  ws.RevertToSnapshot(snap);
  EXPECT_EQ(ws.GetCodeHash(Addr(6)), first);
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());

  // Deleted, then recreated with other code and with none.
  ws.DeleteAccount(Addr(6));
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());
  ws.SetCode(Addr(6), BytesOf("\x60\x03\x00"));
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());
  ws.DeleteAccount(Addr(6));
  ws.SetBalance(Addr(6), U256(1));
  EXPECT_EQ(ws.GetCodeHash(Addr(6)), Keccak256(Bytes{}));
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());

  // Undoing the deletions restores the original code and its hash.
  ws.RevertToSnapshot(snap);
  EXPECT_EQ(ws.GetCodeHash(Addr(6)), first);
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());
}

TEST(StateStoreTest, RevertMarksDirtyAndRootsAgree) {
  WorldState ws;
  ws.SetBalance(Addr(1), U256(100));
  ws.SetStorage(Addr(1), U256(1), U256(11));
  Hash32 committed = ws.StateRoot();
  ws.ClearJournal();

  auto snap = ws.TakeSnapshot();
  ws.SetBalance(Addr(1), U256(999));
  ws.SetStorage(Addr(1), U256(1), U256(22));
  ws.SetStorage(Addr(1), U256(2), U256(33));
  ws.CreateAccount(Addr(9));
  ws.SetNonce(Addr(9), 3);
  // Commit mid-transaction, then revert past that commit — the store must
  // re-fold everything the revert touched.
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());
  ws.RevertToSnapshot(snap);
  EXPECT_EQ(ws.StateRoot(), committed);
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());
}

TEST(StateStoreTest, RevertOfDeleteRestoresStorage) {
  WorldState ws;
  ws.SetCode(Addr(3), BytesOf("contract"));
  ws.SetStorage(Addr(3), U256(7), U256(77));
  ws.SetStorage(Addr(3), U256(8), U256(88));
  Hash32 before = ws.StateRoot();
  ws.ClearJournal();

  auto snap = ws.TakeSnapshot();
  ws.DeleteAccount(Addr(3));
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());
  ws.RevertToSnapshot(snap);
  EXPECT_EQ(ws.StateRoot(), before);
  EXPECT_EQ(ws.GetStorage(Addr(3), U256(7)), U256(77));
}

TEST(StateStoreTest, CloneSharesCommittedTriesAndDiverges) {
  WorldState ws;
  for (int i = 0; i < 50; ++i) {
    ws.SetBalance(Addr(static_cast<uint8_t>(i)), U256(1000 + i));
  }
  Hash32 root = ws.StateRoot();

  WorldState clone = ws.Clone();
  // The clone commits instantly: nothing is dirty, the root is memoized.
  EXPECT_EQ(clone.StateRoot(), root);

  // Divergence is tracked independently on each side.
  ws.SetBalance(Addr(1), U256(1));
  clone.SetBalance(Addr(2), U256(2));
  EXPECT_EQ(ws.StateRoot(), ws.RebuildStateRoot());
  EXPECT_EQ(clone.StateRoot(), clone.RebuildStateRoot());
  EXPECT_NE(ws.StateRoot(), clone.StateRoot());
}

TEST(StateStoreTest, SnapshotRootSurvivesLaterMutation) {
  WorldState ws;
  ws.SetBalance(Addr(1), U256(500));
  ws.SetStorage(Addr(1), U256(1), U256(10));
  storage::StateSnapshot snap = ws.TakeStateSnapshot();
  Hash32 historical = snap.root;
  EXPECT_EQ(historical, ws.StateRoot());

  // The live state moves on; the snapshot's tries are frozen.
  for (int i = 0; i < 20; ++i) {
    ws.SetStorage(Addr(1), U256(static_cast<uint64_t>(i)), U256(1000 + i));
    ws.SetBalance(Addr(static_cast<uint8_t>(i + 2)), U256(i));
  }
  EXPECT_NE(ws.StateRoot(), historical);
  EXPECT_EQ(snap.account_trie.RootHash(), historical);

  // Proofs taken from the snapshot verify against the historical root.
  std::vector<Bytes> proof = snap.ProveAccount(Addr(1));
  Result<std::optional<WorldState::AccountInfo>> info =
      WorldState::VerifyAccountProof(historical, Addr(1), proof);
  ASSERT_TRUE(info.ok()) << info.status().message();
  ASSERT_TRUE(info->has_value());
  EXPECT_EQ((*info)->balance, U256(500));

  std::vector<Bytes> sproof = snap.ProveStorage(Addr(1), U256(1));
  Result<U256> v =
      WorldState::VerifyStorageProof((*info)->storage_root, U256(1), sproof);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, U256(10));
}

TEST(StateStoreTest, LiveProofsMatchVerifiers) {
  WorldState ws;
  ws.SetNonce(Addr(4), 9);
  ws.SetBalance(Addr(4), U256(1234));
  ws.SetCode(Addr(4), BytesOf("runtime"));
  ws.SetStorage(Addr(4), U256(5), U256(55));
  Hash32 root = ws.StateRoot();

  WorldState::Proof proof = ws.ProveStorage(Addr(4), U256(5));
  Result<std::optional<WorldState::AccountInfo>> info =
      WorldState::VerifyAccountProof(root, Addr(4), proof.account_proof);
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(info->has_value());
  EXPECT_EQ((*info)->nonce, 9u);
  EXPECT_EQ((*info)->balance, U256(1234));
  Result<U256> v = WorldState::VerifyStorageProof((*info)->storage_root,
                                                  U256(5), proof.storage_proof);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, U256(55));

  // Absent account: the proof shows non-existence.
  WorldState::Proof absent = ws.ProveAccount(Addr(200));
  Result<std::optional<WorldState::AccountInfo>> none =
      WorldState::VerifyAccountProof(root, Addr(200), absent.account_proof);
  ASSERT_TRUE(none.ok());
  EXPECT_FALSE(none->has_value());
}

TEST(StateStoreTest, RandomizedDifferentialWithReverts) {
  // Drive WorldState through a random op mix — creates, balance/nonce/code
  // writes, storage writes and zero-writes, deletes, snapshot/revert — and
  // assert the incremental root equals the from-scratch rebuild at every
  // commit point.
  std::mt19937_64 rng(0xD1FF);
  WorldState ws;
  for (int round = 0; round < 60; ++round) {
    auto snap = ws.TakeSnapshot();
    int ops = 1 + static_cast<int>(rng() % 8);
    for (int i = 0; i < ops; ++i) {
      Address a = Addr(static_cast<uint8_t>(rng() % 16));
      switch (rng() % 6) {
        case 0:
          ws.SetBalance(a, U256(rng() % 10000));
          break;
        case 1:
          ws.SetNonce(a, rng() % 100);
          break;
        case 2:
          ws.SetCode(a, BytesOf("code" + std::to_string(rng() % 4)));
          break;
        case 3:
          ws.SetStorage(a, U256(rng() % 8), U256(rng() % 5));  // 0 deletes
          break;
        case 4:
          ws.DeleteAccount(a);
          break;
        case 5:
          ws.AddBalance(a, U256(rng() % 50));
          break;
      }
    }
    if (rng() % 3 == 0) {
      // Sometimes commit before reverting, so the revert has to undo
      // already-committed trie content.
      if (rng() % 2 == 0) ws.StateRoot();
      ws.RevertToSnapshot(snap);
    } else {
      ws.ClearJournal();
    }
    ASSERT_EQ(ws.StateRoot(), ws.RebuildStateRoot())
        << "diverged at round " << round;
  }
}

// Addresses whose index fills the low bytes, for write sets that reach all
// 16 root subtries of the account trie.
Address WideAddr(uint32_t i) {
  std::array<uint8_t, Address::kSize> raw{};
  raw[0] = 0xBB;
  for (int b = 0; b < 4; ++b) raw[19 - b] = static_cast<uint8_t>(i >> (8 * b));
  return Address(raw);
}

TEST(StateStoreTest, RandomizedDifferentialLargeWriteSets) {
  // RandomizedDifferentialWithReverts with write sets of at least
  // storage::StateStore::kSplitCommitThreshold accounts, so commits under a
  // branch (or empty) root fan out over its 16 subtries: ~2 000 addresses,
  // several hundred ops a round, every commit checked against the rebuild.
  constexpr uint32_t kAddresses = 2000;
  obs::Registry* registry = obs::Registry::Global();
  auto accounts_committed = [registry] {
    return registry != nullptr
               ? registry->CounterValue("storage.accounts_committed")
               : 0;
  };
  uint64_t committed = accounts_committed();
  WorldState ws;
  auto check = [&](const std::string& where) {
    ASSERT_EQ(ws.StateRoot(), ws.RebuildStateRoot()) << "diverged " << where;
    if (registry == nullptr) return;
    const uint64_t now = accounts_committed();
    EXPECT_GE(now - committed, storage::StateStore::kSplitCommitThreshold)
        << where;
    committed = now;
  };

  // Genesis from an empty trie.
  for (uint32_t i = 0; i < kAddresses; ++i) {
    ws.SetBalance(WideAddr(i), U256(1000 + i));
    if (i % 3 == 0) ws.SetStorage(WideAddr(i), U256(i % 5), U256(i + 1));
    if (i % 50 == 0) {
      ws.SetCode(WideAddr(i), BytesOf("code" + std::to_string(i % 4)));
    }
  }
  ws.ClearJournal();
  ASSERT_NO_FATAL_FAILURE(check("at genesis"));

  std::mt19937_64 rng(0x5B11);
  for (int round = 0; round < 6; ++round) {
    const std::string where = "at round " + std::to_string(round);
    auto snap = ws.TakeSnapshot();
    const int ops = 200 + static_cast<int>(rng() % 400);
    for (int i = 0; i < ops; ++i) {
      // Some addresses lie past the genesis set: creates.
      Address a = WideAddr(static_cast<uint32_t>(rng() % (kAddresses + 200)));
      switch (rng() % 7) {
        case 0:
          ws.SetBalance(a, U256(rng() % 10000));
          break;
        case 1:
          ws.SetNonce(a, rng() % 100);
          break;
        case 2:
          ws.SetCode(a, BytesOf("code" + std::to_string(rng() % 4)));
          break;
        case 3:
          ws.SetStorage(a, U256(rng() % 8), U256(rng() % 5));  // 0 deletes
          break;
        case 4:
          ws.DeleteAccount(a);
          break;
        case 5:
          // SELFDESTRUCT, then the address comes back with fresh storage.
          ws.DeleteAccount(a);
          ws.SetBalance(a, U256(1 + rng() % 50));
          ws.SetStorage(a, U256(rng() % 8), U256(1 + rng() % 5));
          break;
        case 6:
          ws.AddBalance(a, U256(rng() % 50));
          break;
      }
    }
    if (rng() % 3 == 0) {
      // Sometimes commit before reverting, so the revert has to undo
      // already-committed trie content.
      if (rng() % 2 == 0) {
        ASSERT_NO_FATAL_FAILURE(check(where + " before its revert"));
      }
      ws.RevertToSnapshot(snap);
    } else {
      ws.ClearJournal();
    }
    ASSERT_NO_FATAL_FAILURE(check(where));
  }

  // Delete down to one account: the root branch collapses into its leaf.
  const Address kept = WideAddr(7);
  ASSERT_TRUE(ws.Exists(kept));
  for (uint32_t i = 0; i < kAddresses + 200; ++i) {
    if (WideAddr(i) != kept) ws.DeleteAccount(WideAddr(i));
  }
  ws.ClearJournal();
  ASSERT_NO_FATAL_FAILURE(check("down to one account"));
  EXPECT_TRUE(ws.Exists(kept));
  // The deleted accounts' storage tries went with them.
  EXPECT_EQ(ws.TakeStateSnapshot().storage_tries.size(), 1u);

  // Regrow on top of that leaf root (which does not split), then delete
  // every account at once: the root branch empties.
  for (uint32_t i = 0; i < kAddresses; ++i) {
    ws.SetBalance(WideAddr(i), U256(5 + i));
  }
  ws.ClearJournal();
  ASSERT_NO_FATAL_FAILURE(check("after regrowing"));
  for (uint32_t i = 0; i < kAddresses; ++i) ws.DeleteAccount(WideAddr(i));
  ws.ClearJournal();
  ASSERT_NO_FATAL_FAILURE(check("with every account deleted"));
  EXPECT_EQ(ws.StateRoot(), storage::SharedTrie::EmptyRoot());
  EXPECT_TRUE(ws.TakeStateSnapshot().storage_tries.empty());
}

TEST(StateStoreTest, SplitCommitHashesAsManyNodesAsSerialPuts) {
  // One dirty set committed through the split hashes exactly the nodes the
  // same Puts hash when applied one by one to a copy of the pre-commit trie.
  obs::Registry* registry = obs::Registry::Global();
  if (registry == nullptr) {
    GTEST_SKIP() << "metrics disabled (ONOFF_METRICS=0)";
  }
  auto counter = [registry](const char* name) {
    return registry->CounterValue(name);
  };
  WorldState ws;
  constexpr uint32_t kAccounts = 1000;
  for (uint32_t i = 0; i < kAccounts; ++i) {
    ws.SetBalance(WideAddr(i), U256(1000 + i));
    if (i % 4 == 0) ws.SetStorage(WideAddr(i), U256(1), U256(i + 1));
  }
  ws.ClearJournal();
  const storage::StateSnapshot before = ws.TakeStateSnapshot();
  storage::SecureSharedTrie serial = before.account_trie;

  // Balance writes to 300 accounts and 60 creations. Balances only, so the
  // account leaves reuse the memoized storage roots.
  constexpr uint32_t kDirty = 360;
  auto dirty = [](uint32_t i) {
    return WideAddr(i < 300 ? (i * 37) % kAccounts : kAccounts + i);
  };
  const Hash32 empty_code = Keccak256(Bytes{});
  for (uint32_t i = 0; i < kDirty; ++i) {
    const Address a = dirty(i);
    const U256 balance(7 + i);
    ws.SetBalance(a, balance);
    storage::AccountData data;
    data.balance = balance;
    data.code_hash = empty_code;
    auto it = before.storage_tries.find(a);
    const Hash32 storage_root = it == before.storage_tries.end()
                                    ? storage::SharedTrie::EmptyRoot()
                                    : it->second.RootHash();
    serial.Put(a.view(), storage::EncodeAccountRlp(data, storage_root));
  }
  ws.ClearJournal();

  uint64_t hashed = counter("storage.trie_nodes_hashed");
  const Hash32 serial_root = serial.RootHash();
  const uint64_t serial_hashed = counter("storage.trie_nodes_hashed") - hashed;
  hashed = counter("storage.trie_nodes_hashed");
  const uint64_t committed = counter("storage.accounts_committed");
  const Hash32 split_root = ws.StateRoot();
  EXPECT_EQ(split_root, serial_root);
  EXPECT_EQ(counter("storage.trie_nodes_hashed") - hashed, serial_hashed);
  EXPECT_EQ(counter("storage.accounts_committed") - committed, kDirty);
  EXPECT_GT(serial_hashed, 0u);
  EXPECT_EQ(split_root, ws.RebuildStateRoot());

  // Writing back what the accounts hold changes no subtrie: the old root,
  // memoized, stays and nothing is hashed.
  for (uint32_t i = 0; i < kDirty; ++i) {
    ws.SetBalance(dirty(i), ws.GetBalance(dirty(i)));
  }
  ws.ClearJournal();
  hashed = counter("storage.trie_nodes_hashed");
  EXPECT_EQ(ws.StateRoot(), split_root);
  EXPECT_EQ(counter("storage.trie_nodes_hashed"), hashed);
}

TEST(StateStoreTest, CommitIsMemoizedWhenClean) {
  WorldState ws;
  ws.SetBalance(Addr(1), U256(1));
  Hash32 r1 = ws.StateRoot();
  // No mutation in between: the memoized root comes back.
  EXPECT_EQ(ws.StateRoot(), r1);
  ws.SetBalance(Addr(1), U256(2));
  EXPECT_NE(ws.StateRoot(), r1);
}

}  // namespace
}  // namespace onoff::state
