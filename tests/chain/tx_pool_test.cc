#include "chain/tx_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "crypto/secp256k1.h"

namespace onoff::chain {
namespace {

Transaction MakeTx(const secp256k1::PrivateKey& key, uint64_t nonce,
                   uint64_t gas_limit = 21'000) {
  Transaction tx;
  tx.nonce = nonce;
  tx.gas_price = U256(1);
  tx.gas_limit = gas_limit;
  tx.to = Address{};
  tx.value = U256(1);
  tx.Sign(key);
  return tx;
}

// The record Blockchain's admission would hand the pool for `tx`.
PendingTx Record(const Transaction& tx) {
  return PendingTx{tx, *tx.Sender(), tx.Hash(), {}};
}

Status Add(TxPool& pool, const Transaction& tx) {
  return pool.Add(Record(tx));
}

// A base-nonce provider for a chain whose every account nonce is `nonce`.
TxPool::BaseNonceFn Fixed(uint64_t nonce) {
  return [nonce](const Address&) { return nonce; };
}

// A base-nonce provider that reads `nonces` (absent senders: 0), the
// account nonces a test advances as a chain would mine what it takes.
TxPool::BaseNonceFn From(const std::map<Address, uint64_t>& nonces) {
  return [&nonces](const Address& addr) {
    auto it = nonces.find(addr);
    return it != nonces.end() ? it->second : uint64_t{0};
  };
}

TEST(TxPoolTest, OutOfOrderNoncesReorderedPerSender) {
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  TxPool pool(Fixed(0));
  for (uint64_t nonce : {2u, 0u, 1u}) {
    ASSERT_TRUE(Add(pool, MakeTx(alice, nonce)).ok());
  }
  std::vector<PendingTx> taken = pool.Take(10);
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken[0].tx.nonce, 0u);
  EXPECT_EQ(taken[1].tx.nonce, 1u);
  EXPECT_EQ(taken[2].tx.nonce, 2u);
  EXPECT_TRUE(pool.empty());
}

TEST(TxPoolTest, ReorderingPreservesSenderSlots) {
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  TxPool pool(Fixed(0));
  // Submission slots: [alice, bob, alice]. Alice's transactions arrive
  // nonce-reversed; bob keeps his slot in between.
  ASSERT_TRUE(Add(pool, MakeTx(alice, 1)).ok());
  ASSERT_TRUE(Add(pool, MakeTx(bob, 0)).ok());
  ASSERT_TRUE(Add(pool, MakeTx(alice, 0)).ok());
  std::vector<PendingTx> taken = pool.Take(10);
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken[0].sender, alice.EthAddress());
  EXPECT_EQ(taken[0].tx.nonce, 0u);
  EXPECT_EQ(taken[1].sender, bob.EthAddress());
  EXPECT_EQ(taken[2].sender, alice.EthAddress());
  EXPECT_EQ(taken[2].tx.nonce, 1u);
}

TEST(TxPoolTest, InOrderSubmissionIsUnchanged) {
  // Replay determinism: a block's transactions re-submitted in block order
  // must come back out in exactly that order (the reorder is idempotent).
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  TxPool pool(Fixed(0));
  std::vector<Transaction> block = {MakeTx(alice, 0), MakeTx(bob, 0),
                                    MakeTx(alice, 1), MakeTx(bob, 1)};
  for (const Transaction& tx : block) ASSERT_TRUE(Add(pool, tx).ok());
  std::vector<PendingTx> taken = pool.Take(10);
  ASSERT_EQ(taken.size(), block.size());
  for (size_t i = 0; i < block.size(); ++i) {
    EXPECT_EQ(taken[i].hash, block[i].Hash()) << "slot " << i;
  }
}

TEST(TxPoolTest, GasBudgetStopsPacking) {
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  std::map<Address, uint64_t> nonces;
  TxPool pool(From(nonces));
  for (uint64_t nonce : {0u, 1u, 2u}) {
    ASSERT_TRUE(Add(pool, MakeTx(alice, nonce, 4'000'000)).ok());
  }
  // 4M + 4M fills an 8M budget; the third must stay pending.
  std::vector<PendingTx> taken = pool.Take(10, 8'000'000);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].tx.nonce, 0u);
  EXPECT_EQ(taken[1].tx.nonce, 1u);
  EXPECT_EQ(pool.size(), 1u);
  nonces[alice.EthAddress()] = 2;  // the block mined nonces 0 and 1
  std::vector<PendingTx> rest = pool.Take(10, 8'000'000);
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].tx.nonce, 2u);
}

TEST(TxPoolTest, BudgetStopDefersInsteadOfSkipping) {
  // When a transaction does not fit, packing STOPS; later (smaller)
  // transactions are not pulled ahead of it, or nonce ordering would break.
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  TxPool pool(Fixed(0));
  ASSERT_TRUE(Add(pool, MakeTx(alice, 0, 5'000'000)).ok());
  ASSERT_TRUE(Add(pool, MakeTx(alice, 1, 2'000'000)).ok());
  ASSERT_TRUE(Add(pool, MakeTx(alice, 2, 100'000)).ok());
  std::vector<PendingTx> taken = pool.Take(10, 6'000'000);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].tx.nonce, 0u);
  EXPECT_EQ(pool.size(), 2u);
}

TEST(TxPoolTest, MaxCountStillApplies) {
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  TxPool pool(Fixed(0));
  for (uint64_t nonce : {0u, 1u, 2u}) {
    ASSERT_TRUE(Add(pool, MakeTx(alice, nonce)).ok());
  }
  EXPECT_EQ(pool.Take(2).size(), 2u);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(TxPoolTest, DuplicateRejectedAndContainsTracksTakes) {
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  TxPool pool(Fixed(0));
  Transaction tx = MakeTx(alice, 0);
  ASSERT_TRUE(Add(pool, tx).ok());
  EXPECT_FALSE(Add(pool, tx).ok());
  EXPECT_TRUE(pool.Contains(tx.Hash()));
  ASSERT_EQ(pool.Take(10).size(), 1u);
  EXPECT_FALSE(pool.Contains(tx.Hash()));
  // Regression: a taken (in-flight/mined) transaction re-gossiped to the
  // pool used to be re-admitted and mined a second time. The hash now sits
  // in the recently-taken window and the duplicate is rejected.
  EXPECT_TRUE(pool.RecentlyTaken(tx.Hash()));
  EXPECT_FALSE(Add(pool, tx).ok());
  EXPECT_TRUE(pool.empty());
}

TEST(TxPoolTest, RecentlyTakenWindowIsBounded) {
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  std::map<Address, uint64_t> nonces;
  TxPool pool(From(nonces));
  Transaction tx = MakeTx(alice, 0);
  ASSERT_TRUE(Add(pool, tx).ok());
  ASSERT_EQ(pool.Take(10).size(), 1u);
  EXPECT_FALSE(Add(pool, tx).ok());
  // kRecentTakeBatches further non-empty take batches push the hash out of
  // the bounded window; afterwards the (stale, unminable) duplicate is
  // admitted again rather than remembered forever.
  for (uint64_t nonce = 1; nonce <= TxPool::kRecentTakeBatches; ++nonce) {
    nonces[alice.EthAddress()] = nonce;
    ASSERT_TRUE(Add(pool, MakeTx(alice, nonce)).ok());
    ASSERT_TRUE(pool.RecentlyTaken(tx.Hash())) << "batch " << nonce;
    ASSERT_EQ(pool.Take(10).size(), 1u);
  }
  EXPECT_FALSE(pool.RecentlyTaken(tx.Hash()));
  EXPECT_TRUE(Add(pool, tx).ok());

  // The window counts the pool's non-empty takes, whoever sent what they
  // carried: batches of other senders' transactions push it out too.
  TxPool shared(Fixed(0));
  ASSERT_TRUE(Add(shared, tx).ok());
  ASSERT_EQ(shared.Take(10).size(), 1u);
  for (size_t i = 0; i < TxPool::kRecentTakeBatches; ++i) {
    auto other = secp256k1::PrivateKey::FromSeed("other-" + std::to_string(i));
    ASSERT_TRUE(Add(shared, MakeTx(other, 0)).ok());
    ASSERT_TRUE(shared.RecentlyTaken(tx.Hash())) << "batch " << i;
    ASSERT_EQ(shared.Take(10).size(), 1u);
  }
  EXPECT_FALSE(shared.RecentlyTaken(tx.Hash()));
  EXPECT_TRUE(Add(shared, tx).ok());
}

TEST(TxPoolTest, OverBudgetSenderDoesNotBlockOthers) {
  // Regression: one sender's transaction exceeding the remaining block
  // budget used to stop packing entirely (head-of-line blocking). It must
  // only defer that sender's sequence; other senders still pack.
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  auto carol = secp256k1::PrivateKey::FromSeed("carol");
  TxPool pool(Fixed(0));
  ASSERT_TRUE(Add(pool, MakeTx(alice, 0, 7'000'000)).ok());
  ASSERT_TRUE(Add(pool, MakeTx(bob, 0, 5'000'000)).ok());
  ASSERT_TRUE(Add(pool, MakeTx(carol, 0, 900'000)).ok());
  std::vector<PendingTx> taken = pool.Take(10, 8'000'000);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].sender, alice.EthAddress());
  EXPECT_EQ(taken[1].sender, carol.EthAddress());
  // Bob stays pending and packs next block.
  ASSERT_EQ(pool.size(), 1u);
  std::vector<PendingTx> next = pool.Take(10, 8'000'000);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_EQ(next[0].sender, bob.EthAddress());
}

TEST(TxPoolTest, NonceGapHeldUntilFilled) {
  // Regression: a gapped nonce used to be packed and mined straight into a
  // nonce-mismatch failure. The gapped entry must stay pending until the
  // missing nonce arrives.
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  std::map<Address, uint64_t> nonces;
  TxPool pool(From(nonces));
  ASSERT_TRUE(Add(pool, MakeTx(alice, 0)).ok());
  ASSERT_TRUE(Add(pool, MakeTx(alice, 2)).ok());
  std::vector<PendingTx> taken = pool.Take(10);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].tx.nonce, 0u);
  EXPECT_EQ(pool.size(), 1u);
  // The chain mined nonce 0, so its account nonce is 1 and nonce 2 is
  // still gapped.
  nonces[alice.EthAddress()] = 1;
  EXPECT_TRUE(pool.Take(10).empty());
  EXPECT_EQ(pool.size(), 1u);
  ASSERT_TRUE(Add(pool, MakeTx(alice, 1)).ok());
  std::vector<PendingTx> rest = pool.Take(10);
  ASSERT_EQ(rest.size(), 2u);
  EXPECT_EQ(rest[0].tx.nonce, 1u);
  EXPECT_EQ(rest[1].tx.nonce, 2u);
}

TEST(TxPoolTest, StaleNonceDropped) {
  // Entries below the account nonce can never be mined and are dropped
  // instead of packed into certain failure.
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  TxPool pool(Fixed(2));
  ASSERT_TRUE(Add(pool, MakeTx(alice, 0)).ok());
  ASSERT_TRUE(Add(pool, MakeTx(alice, 1)).ok());
  ASSERT_TRUE(Add(pool, MakeTx(alice, 2)).ok());
  std::vector<PendingTx> taken = pool.Take(10);
  ASSERT_EQ(taken.size(), 1u);
  EXPECT_EQ(taken[0].tx.nonce, 2u);
  EXPECT_TRUE(pool.empty());
}

TEST(TxPoolTest, DropMinedForgetsMinedAndStaleEntries) {
  // A block packed elsewhere mined alice's nonces 0 and 1, so her account
  // nonce is now 2; its nonce 1 is not the transaction pending here. Both
  // of her stale entries go, the mined hashes are remembered as taken, and
  // her nonce 2 and bob's entry stay.
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  const std::map<Address, uint64_t> nonces = {{alice.EthAddress(), 2}};
  TxPool pool(From(nonces));
  const Transaction mined0 = MakeTx(alice, 0);
  const Transaction mined1 = MakeTx(alice, 1, 30'000);
  ASSERT_TRUE(Add(pool, mined0).ok());
  ASSERT_TRUE(Add(pool, MakeTx(alice, 1)).ok());
  ASSERT_TRUE(Add(pool, MakeTx(alice, 2)).ok());
  ASSERT_TRUE(Add(pool, MakeTx(bob, 0)).ok());
  const std::vector<PendingTx> mined = {Record(mined0), Record(mined1)};
  pool.DropMined(mined);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_FALSE(pool.Contains(mined0.Hash()));
  EXPECT_TRUE(pool.RecentlyTaken(mined0.Hash()));
  EXPECT_EQ(Add(pool, mined1).code(), StatusCode::kAlreadyExists);
  std::vector<PendingTx> taken = pool.Take(10);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].tx.nonce, 2u);
  EXPECT_EQ(taken[1].sender, bob.EthAddress());
}

TEST(TxPoolTest, ConcurrentAddsLandInArrivalOrderPerThread) {
  // Concurrency smoke test (runs under TSan in CI): concurrent Adds from
  // many senders while a consumer Takes. Every transaction must come out
  // exactly once, in ascending nonce order per sender.
  constexpr int kSenders = 8;
  constexpr uint64_t kPerSender = 24;
  std::vector<secp256k1::PrivateKey> keys;
  for (int i = 0; i < kSenders; ++i) {
    keys.push_back(
        secp256k1::PrivateKey::FromSeed("sender-" + std::to_string(i)));
  }
  // Only the consumer thread reads (through Take) and advances the account
  // nonces, as a chain mining each batch would.
  std::map<Address, uint64_t> nonces;
  TxPool pool(From(nonces));
  std::atomic<bool> done{false};
  std::vector<PendingTx> taken;
  std::thread consumer([&] {
    while (!done.load() || !pool.empty()) {
      for (PendingTx& record : pool.Take(4)) {
        nonces[record.sender] = record.tx.nonce + 1;
        taken.push_back(std::move(record));
      }
    }
  });
  std::vector<std::thread> producers;
  for (int i = 0; i < kSenders; ++i) {
    producers.emplace_back([&, i] {
      for (uint64_t nonce = 0; nonce < kPerSender; ++nonce) {
        ASSERT_TRUE(Add(pool, MakeTx(keys[i], nonce)).ok());
      }
    });
  }
  for (std::thread& t : producers) t.join();
  done.store(true);
  consumer.join();
  ASSERT_EQ(taken.size(), kSenders * kPerSender);
  std::unordered_map<Address, uint64_t> next_nonce;
  for (const PendingTx& record : taken) {
    EXPECT_EQ(record.tx.nonce, next_nonce[record.sender])
        << "per-sender order broken";
    ++next_nonce[record.sender];
  }
}

}  // namespace
}  // namespace onoff::chain
