#include "state/world_state.h"

#include <gtest/gtest.h>

#include "crypto/secp256k1.h"
#include "storage/shared_trie.h"

namespace onoff::state {
namespace {

Address Addr(uint8_t tag) {
  std::array<uint8_t, 20> raw{};
  raw[19] = tag;
  return Address(raw);
}

TEST(WorldStateTest, MissingAccountReadsAsZero) {
  WorldState ws;
  EXPECT_FALSE(ws.Exists(Addr(1)));
  EXPECT_TRUE(ws.GetBalance(Addr(1)).IsZero());
  EXPECT_EQ(ws.GetNonce(Addr(1)), 0u);
  EXPECT_TRUE(ws.GetCode(Addr(1)).empty());
  EXPECT_TRUE(ws.GetStorage(Addr(1), U256(0)).IsZero());
}

TEST(WorldStateTest, BalanceArithmetic) {
  WorldState ws;
  ws.AddBalance(Addr(1), U256(100));
  EXPECT_EQ(ws.GetBalance(Addr(1)), U256(100));
  EXPECT_TRUE(ws.SubBalance(Addr(1), U256(30)).ok());
  EXPECT_EQ(ws.GetBalance(Addr(1)), U256(70));
  // Insufficient balance is rejected and leaves state intact.
  EXPECT_FALSE(ws.SubBalance(Addr(1), U256(71)).ok());
  EXPECT_EQ(ws.GetBalance(Addr(1)), U256(70));
}

TEST(WorldStateTest, Transfer) {
  WorldState ws;
  ws.AddBalance(Addr(1), U256(50));
  EXPECT_TRUE(ws.Transfer(Addr(1), Addr(2), U256(20)).ok());
  EXPECT_EQ(ws.GetBalance(Addr(1)), U256(30));
  EXPECT_EQ(ws.GetBalance(Addr(2)), U256(20));
  EXPECT_FALSE(ws.Transfer(Addr(1), Addr(2), U256(31)).ok());
}

TEST(WorldStateTest, NonceAndCode) {
  WorldState ws;
  ws.IncrementNonce(Addr(3));
  ws.IncrementNonce(Addr(3));
  EXPECT_EQ(ws.GetNonce(Addr(3)), 2u);
  ws.SetCode(Addr(3), Bytes{0x60, 0x00});
  EXPECT_EQ(ws.GetCode(Addr(3)), (Bytes{0x60, 0x00}));
  EXPECT_NE(ws.GetCodeHash(Addr(3)), ws.GetCodeHash(Addr(4)));
}

TEST(WorldStateTest, StorageZeroErases) {
  WorldState ws;
  ws.SetStorage(Addr(1), U256(5), U256(42));
  EXPECT_EQ(ws.GetStorage(Addr(1), U256(5)), U256(42));
  ws.SetStorage(Addr(1), U256(5), U256(0));
  EXPECT_TRUE(ws.GetStorage(Addr(1), U256(5)).IsZero());
}

TEST(WorldStateTest, SnapshotRevertUndoesEverything) {
  WorldState ws;
  ws.AddBalance(Addr(1), U256(100));
  ws.SetStorage(Addr(1), U256(1), U256(11));
  auto snap = ws.TakeSnapshot();

  ws.AddBalance(Addr(1), U256(5));
  ws.SetStorage(Addr(1), U256(1), U256(99));
  ws.SetStorage(Addr(1), U256(2), U256(22));
  ws.SetCode(Addr(2), Bytes{0x01});
  ws.IncrementNonce(Addr(1));
  ws.CreateAccount(Addr(9));
  ws.DeleteAccount(Addr(1));

  ws.RevertToSnapshot(snap);
  EXPECT_EQ(ws.GetBalance(Addr(1)), U256(100));
  EXPECT_EQ(ws.GetStorage(Addr(1), U256(1)), U256(11));
  EXPECT_TRUE(ws.GetStorage(Addr(1), U256(2)).IsZero());
  EXPECT_TRUE(ws.GetCode(Addr(2)).empty());
  EXPECT_EQ(ws.GetNonce(Addr(1)), 0u);
  EXPECT_FALSE(ws.Exists(Addr(9)));
  EXPECT_FALSE(ws.Exists(Addr(2)));
}

TEST(WorldStateTest, NestedSnapshots) {
  WorldState ws;
  ws.AddBalance(Addr(1), U256(1));
  auto outer = ws.TakeSnapshot();
  ws.AddBalance(Addr(1), U256(10));
  auto inner = ws.TakeSnapshot();
  ws.AddBalance(Addr(1), U256(100));
  ws.RevertToSnapshot(inner);
  EXPECT_EQ(ws.GetBalance(Addr(1)), U256(11));
  ws.RevertToSnapshot(outer);
  EXPECT_EQ(ws.GetBalance(Addr(1)), U256(1));
}

TEST(WorldStateTest, DeleteAccountRevertRestoresWholeRecord) {
  WorldState ws;
  ws.AddBalance(Addr(7), U256(77));
  ws.SetCode(Addr(7), Bytes{0xfe});
  ws.SetStorage(Addr(7), U256(0), U256(1));
  auto snap = ws.TakeSnapshot();
  ws.DeleteAccount(Addr(7));
  EXPECT_FALSE(ws.Exists(Addr(7)));
  ws.RevertToSnapshot(snap);
  EXPECT_EQ(ws.GetBalance(Addr(7)), U256(77));
  EXPECT_EQ(ws.GetCode(Addr(7)), Bytes{0xfe});
  EXPECT_EQ(ws.GetStorage(Addr(7), U256(0)), U256(1));
}

TEST(WorldStateTest, EmptyStateRootIsEmptyTrieRoot) {
  WorldState ws;
  EXPECT_EQ(ws.StateRoot(), storage::SharedTrie::EmptyRoot());
}

TEST(WorldStateTest, StateRootTracksContent) {
  WorldState ws;
  Hash32 empty_root = ws.StateRoot();
  ws.AddBalance(Addr(1), U256(100));
  Hash32 r1 = ws.StateRoot();
  EXPECT_NE(r1, empty_root);
  ws.SetStorage(Addr(1), U256(0), U256(7));
  Hash32 r2 = ws.StateRoot();
  EXPECT_NE(r2, r1);
  // Clearing the slot returns to the prior root.
  ws.SetStorage(Addr(1), U256(0), U256(0));
  EXPECT_EQ(ws.StateRoot(), r1);
}

TEST(WorldStateTest, StateRootIsOrderIndependent) {
  WorldState a;
  a.AddBalance(Addr(1), U256(5));
  a.AddBalance(Addr(2), U256(6));
  a.SetStorage(Addr(1), U256(3), U256(9));
  WorldState b;
  b.SetStorage(Addr(1), U256(3), U256(9));
  b.AddBalance(Addr(2), U256(6));
  b.AddBalance(Addr(1), U256(5));
  EXPECT_EQ(a.StateRoot(), b.StateRoot());
}

TEST(WorldStateTest, AddressesSorted) {
  WorldState ws;
  ws.AddBalance(Addr(9), U256(1));
  ws.AddBalance(Addr(2), U256(1));
  ws.AddBalance(Addr(5), U256(1));
  auto addrs = ws.Addresses();
  ASSERT_EQ(addrs.size(), 3u);
  EXPECT_EQ(addrs[0], Addr(2));
  EXPECT_EQ(addrs[1], Addr(5));
  EXPECT_EQ(addrs[2], Addr(9));
}

// ---- Touched accounts ----

TEST(WorldStateTest, TouchedSetKeepsThePreImageOfTheFirstWrite) {
  WorldState ws;
  ws.AddBalance(Addr(1), U256(10));
  ws.ClearTouched();
  EXPECT_TRUE(ws.touched_accounts().empty());
  // Reads record nothing.
  ws.GetBalance(Addr(1));
  ws.GetNonce(Addr(2));
  ws.GetStorage(Addr(1), U256(0));
  EXPECT_TRUE(ws.touched_accounts().empty());

  ws.AddBalance(Addr(1), U256(5));
  ws.SetNonce(Addr(1), 3);
  ws.SetBalance(Addr(1), U256(99));
  ws.SetStorage(Addr(2), U256(1), U256(7));  // creates Addr(2)
  ASSERT_EQ(ws.touched_accounts().size(), 2u);
  const TouchedAccount& one = ws.touched_accounts().at(Addr(1));
  EXPECT_TRUE(one.existed);
  EXPECT_EQ(one.balance, U256(10));
  EXPECT_FALSE(one.NewIncarnation());
  const TouchedAccount& two = ws.touched_accounts().at(Addr(2));
  EXPECT_FALSE(two.existed);
  EXPECT_TRUE(two.balance.IsZero());
  EXPECT_TRUE(two.NewIncarnation());
}

TEST(WorldStateTest, TouchedDeletionsFollowReverts) {
  WorldState ws;
  ws.AddBalance(Addr(1), U256(10));
  ws.ClearTouched();
  auto snap = ws.TakeSnapshot();
  ws.DeleteAccount(Addr(1));
  EXPECT_EQ(ws.touched_accounts().at(Addr(1)).deletions, 1u);
  EXPECT_TRUE(ws.touched_accounts().at(Addr(1)).NewIncarnation());
  // Recreated and then both steps undone: the original account is back.
  ws.AddBalance(Addr(1), U256(1));
  ws.RevertToSnapshot(snap);
  EXPECT_EQ(ws.GetBalance(Addr(1)), U256(10));
  const TouchedAccount& restored = ws.touched_accounts().at(Addr(1));
  EXPECT_TRUE(restored.existed);
  EXPECT_EQ(restored.deletions, 0u);
  EXPECT_FALSE(restored.NewIncarnation());

  // Undoing a creation is not a deletion.
  snap = ws.TakeSnapshot();
  ws.CreateAccount(Addr(3));
  ws.RevertToSnapshot(snap);
  EXPECT_FALSE(ws.Exists(Addr(3)));
  EXPECT_EQ(ws.touched_accounts().at(Addr(3)).deletions, 0u);
  EXPECT_FALSE(ws.touched_accounts().at(Addr(3)).existed);
}

TEST(WorldStateTest, ClearTouchedOpensANewWindow) {
  WorldState ws;
  const uint64_t epoch = ws.touched_epoch();
  ws.AddBalance(Addr(1), U256(10));
  ws.ClearTouched();
  EXPECT_EQ(ws.touched_epoch(), epoch + 1);
  ws.DeleteAccount(Addr(1));
  ws.ClearTouched();
  // A deletion is recorded in the window it happened in only.
  EXPECT_TRUE(ws.touched_accounts().empty());
  ws.AddBalance(Addr(1), U256(4));
  EXPECT_FALSE(ws.touched_accounts().at(Addr(1)).existed);
  EXPECT_EQ(ws.touched_accounts().at(Addr(1)).deletions, 0u);
  // A clone starts with an empty set, like its journal.
  WorldState clone = ws.Clone();
  EXPECT_TRUE(clone.touched_accounts().empty());
  EXPECT_EQ(clone.GetBalance(Addr(1)), U256(4));
}

// ---- Light-client proofs ----

class StateProofTest : public ::testing::Test {
 protected:
  StateProofTest() {
    ws_.AddBalance(Addr(1), U256(1000));
    ws_.SetNonce(Addr(1), 7);
    ws_.SetCode(Addr(1), Bytes{0x60, 0x00});
    ws_.SetStorage(Addr(1), U256(5), U256(42));
    ws_.SetStorage(Addr(1), U256(6), U256(99));
    ws_.AddBalance(Addr(2), U256(22));
    ws_.AddBalance(Addr(3), U256(33));
    root_ = ws_.StateRoot();
  }

  WorldState ws_;
  Hash32 root_;
};

TEST_F(StateProofTest, AccountProofRoundTrip) {
  auto proof = ws_.ProveAccount(Addr(1));
  auto verified = WorldState::VerifyAccountProof(root_, Addr(1),
                                                 proof.account_proof);
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  ASSERT_TRUE(verified->has_value());
  EXPECT_EQ((*verified)->nonce, 7u);
  EXPECT_EQ((*verified)->balance, U256(1000));
  EXPECT_EQ((*verified)->code_hash, Keccak256(Bytes{0x60, 0x00}));
}

TEST_F(StateProofTest, MissingAccountProvenAbsent) {
  auto proof = ws_.ProveAccount(Addr(9));
  auto verified = WorldState::VerifyAccountProof(root_, Addr(9),
                                                 proof.account_proof);
  ASSERT_TRUE(verified.ok()) << verified.status().ToString();
  EXPECT_FALSE(verified->has_value());
}

TEST_F(StateProofTest, StorageProofRoundTrip) {
  auto proof = ws_.ProveStorage(Addr(1), U256(5));
  auto account = WorldState::VerifyAccountProof(root_, Addr(1),
                                                proof.account_proof);
  ASSERT_TRUE(account.ok());
  ASSERT_TRUE(account->has_value());
  auto value = WorldState::VerifyStorageProof((*account)->storage_root,
                                              U256(5), proof.storage_proof);
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_EQ(*value, U256(42));
  // Absent slot proves zero.
  auto absent = ws_.ProveStorage(Addr(1), U256(123));
  auto zero = WorldState::VerifyStorageProof((*account)->storage_root,
                                             U256(123), absent.storage_proof);
  ASSERT_TRUE(zero.ok());
  EXPECT_TRUE(zero->IsZero());
}

TEST_F(StateProofTest, ProofInvalidAfterStateChange) {
  auto proof = ws_.ProveAccount(Addr(1));
  ws_.AddBalance(Addr(1), U256(1));  // state moved on
  Hash32 new_root = ws_.StateRoot();
  auto verified = WorldState::VerifyAccountProof(new_root, Addr(1),
                                                 proof.account_proof);
  EXPECT_FALSE(verified.ok());  // stale proof no longer matches the root
}

TEST_F(StateProofTest, TamperedAccountProofRejected) {
  auto proof = ws_.ProveAccount(Addr(1));
  ASSERT_FALSE(proof.account_proof.empty());
  proof.account_proof.back()[0] ^= 0x01;
  EXPECT_FALSE(WorldState::VerifyAccountProof(root_, Addr(1),
                                              proof.account_proof)
                   .ok());
}

}  // namespace
}  // namespace onoff::state
