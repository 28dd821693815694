// Every domain encoder against the seed encoder (rlp::oracle) over the same
// fields built as rlp::Item trees: transactions (and their hashes), receipts,
// headers, account records, storage values, CREATE addresses and signed
// copies must come out byte for byte as the oracle writes them.

#include <gtest/gtest.h>

#include <random>
#include <thread>
#include <vector>

#include "chain/block.h"
#include "chain/transaction.h"
#include "crypto/keccak.h"
#include "evm/evm.h"
#include "onoff/signed_copy.h"
#include "rlp/rlp.h"
#include "rlp/rlp_oracle.h"
#include "state/world_state.h"
#include "storage/shared_trie.h"
#include "storage/state_store.h"

namespace onoff::chain {
namespace {

using rlp::Item;

Item HashItem(const Hash32& h) {
  return Item::String(BytesView(h.data(), h.size()));
}

U256 RandomU256(std::mt19937_64& rng) {
  return U256(rng(), rng(), rng(), rng());
}

Address RandomAddress(std::mt19937_64& rng) {
  std::array<uint8_t, Address::kSize> raw{};
  for (auto& b : raw) b = static_cast<uint8_t>(rng());
  return Address(raw);
}

Bytes RandomBytes(std::mt19937_64& rng, size_t n) {
  Bytes out(n);
  for (auto& b : out) b = static_cast<uint8_t>(rng());
  return out;
}

std::vector<Item> UnsignedItems(const Transaction& tx) {
  return {Item::Scalar(tx.nonce),
          Item::Scalar(tx.gas_price),
          Item::Scalar(tx.gas_limit),
          tx.to.has_value() ? Item::String(tx.to->view())
                            : Item::String(Bytes{}),
          Item::Scalar(tx.value),
          Item::String(tx.data)};
}

Bytes OracleSigned(const Transaction& tx) {
  std::vector<Item> fields = UnsignedItems(tx);
  fields.push_back(Item::Scalar(U256(tx.signature.v)));
  fields.push_back(Item::Scalar(tx.signature.r));
  fields.push_back(Item::Scalar(tx.signature.s));
  return rlp::oracle::Encode(Item::List(std::move(fields)));
}

Bytes OracleUnsigned(const Transaction& tx) {
  return rlp::oracle::Encode(Item::List(UnsignedItems(tx)));
}

// Seeded transactions over every field's encoding forms: creations and
// calls, data empty, short and past 55 bytes, zero, small and full-width
// values, v = 27 and 28.
std::vector<Transaction> SeededTransactions() {
  std::mt19937_64 rng(0xe4c0de);
  const uint64_t nonces[] = {0, 1, 0x7f, 0x80, 0xffff, ~uint64_t{0}};
  const size_t data_sizes[] = {0, 1, 20, 55, 56, 300};
  std::vector<Transaction> txs;
  for (int i = 0; i < 96; ++i) {
    Transaction tx;
    tx.nonce = nonces[i % 6];
    tx.gas_price = i % 3 == 0 ? U256(0) : U256(rng() % 1000 + 1);
    tx.gas_limit = i % 5 == 0 ? 21000 : rng();
    if (i % 4 != 0) tx.to = RandomAddress(rng);
    switch (i % 3) {
      case 0:
        tx.value = U256(0);
        break;
      case 1:
        tx.value = U256(rng() % 0x100);
        break;
      default:
        tx.value = i % 2 == 0 ? ~U256(0) : RandomU256(rng);
    }
    tx.data = RandomBytes(rng, data_sizes[(i / 6) % 6]);
    if (!tx.data.empty() && i % 7 == 0) tx.data[0] = 0x05;  // one low byte
    tx.signature.v = static_cast<uint8_t>(27 + i % 2);
    tx.signature.r = RandomU256(rng);
    tx.signature.s = i % 8 == 0 ? U256(1) : RandomU256(rng) >> 1;
    txs.push_back(tx);
  }
  return txs;
}

TEST(EncodingTest, TransactionsMatchOracle) {
  for (const Transaction& tx : SeededTransactions()) {
    const Bytes signed_rlp = OracleSigned(tx);
    EXPECT_EQ(tx.Encode(), signed_rlp) << ToHex(signed_rlp);
    EXPECT_EQ(tx.Hash(), Keccak256(signed_rlp));
    EXPECT_EQ(tx.SigningHash(), Keccak256(OracleUnsigned(tx)));
    Result<Transaction> decoded = Transaction::Decode(signed_rlp);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->Encode(), signed_rlp);
  }
}

TEST(EncodingTest, ReceiptsMatchOracle) {
  std::mt19937_64 rng(0x7ec);
  for (int i = 0; i < 60; ++i) {
    Receipt r;
    for (auto& b : r.tx_hash) b = static_cast<uint8_t>(rng());
    r.success = i % 2 == 0;
    r.cumulative_gas_used = i % 5 == 0 ? 0 : rng() >> (i % 60);
    for (int l = 0; l < i % 4; ++l) {  // 0-3 logs
      evm::LogEntry log;
      log.address = RandomAddress(rng);
      for (int t = 0; t < (i + l) % 5; ++t) {  // 0-4 topics
        log.topics.push_back(t == 0 ? U256(0) : RandomU256(rng));
      }
      log.data = RandomBytes(rng, (i * 7 + l * 13) % 120);  // past 55 too
      r.logs.push_back(log);
    }
    std::vector<Item> logs;
    for (const evm::LogEntry& log : r.logs) {
      std::vector<Item> topics;
      for (const U256& t : log.topics) {
        topics.push_back(Item::String(t.ToBytes()));
      }
      logs.push_back(Item::List({Item::String(log.address.view()),
                                 Item::List(std::move(topics)),
                                 Item::String(log.data)}));
    }
    const Bytes expected = rlp::oracle::Encode(
        Item::List({HashItem(r.tx_hash), Item::Scalar(r.success ? 1 : 0),
                    Item::Scalar(r.cumulative_gas_used),
                    Item::List(std::move(logs))}));
    EXPECT_EQ(r.Encode(), expected) << i;
  }
}

TEST(EncodingTest, HeadersMatchOracle) {
  std::mt19937_64 rng(0x4ead);
  for (int i = 0; i < 40; ++i) {
    BlockHeader h;
    for (Hash32* field :
         {&h.parent_hash, &h.state_root, &h.tx_root, &h.receipt_root}) {
      for (auto& b : *field) b = static_cast<uint8_t>(rng());
    }
    h.number = i < 3 ? static_cast<uint64_t>(i) : rng() >> (i % 64);
    h.timestamp = rng();
    h.coinbase = RandomAddress(rng);
    h.gas_used = i % 4 == 0 ? 0 : rng() % 8'000'000;
    h.gas_limit = 8'000'000;
    const Bytes expected = rlp::oracle::Encode(Item::List(
        {HashItem(h.parent_hash), Item::Scalar(h.number),
         Item::Scalar(h.timestamp), Item::String(h.coinbase.view()),
         HashItem(h.state_root), HashItem(h.tx_root),
         HashItem(h.receipt_root), Item::Scalar(h.gas_used),
         Item::Scalar(h.gas_limit)}));
    EXPECT_EQ(h.Encode(), expected) << i;
    EXPECT_EQ(h.Hash(), Keccak256(expected));
  }
}

// Account records directly, and storage values as the state commit wrote
// them into the storage trie (read back through a verified proof).
TEST(EncodingTest, AccountRecordsAndStorageValuesMatchOracle) {
  std::mt19937_64 rng(0xacc);
  state::WorldState ws;
  const Address holder = RandomAddress(rng);
  std::vector<std::pair<U256, U256>> slots;
  const U256 values[] = {U256(1), U256(0x7f), U256(0x80), U256(~uint64_t{0}),
                         ~U256(0), RandomU256(rng)};
  for (uint64_t k = 0; k < std::size(values); ++k) {
    slots.emplace_back(U256(k + 1), values[k]);
    ws.SetStorage(holder, U256(k + 1), values[k]);
  }
  for (int i = 0; i < 30; ++i) {
    storage::AccountData data;
    data.nonce = i % 3 == 0 ? 0 : rng() >> (i % 64);
    data.balance = i % 5 == 0 ? U256(0) : RandomU256(rng) >> (i * 8);
    for (auto& b : data.code_hash) b = static_cast<uint8_t>(rng());
    Hash32 storage_root;
    for (auto& b : storage_root) b = static_cast<uint8_t>(rng());
    const Bytes expected = rlp::oracle::Encode(
        Item::List({Item::Scalar(data.nonce), Item::Scalar(data.balance),
                    HashItem(storage_root), HashItem(data.code_hash)}));
    EXPECT_EQ(storage::EncodeAccountRlp(data, storage_root), expected) << i;
  }
  const Hash32 root = ws.StateRoot();
  ASSERT_EQ(root, ws.RebuildStateRoot());
  for (const auto& [key, value] : slots) {
    state::WorldState::Proof proof = ws.ProveStorage(holder, key);
    Result<std::optional<Bytes>> account =
        storage::SecureSharedTrie::VerifyProof(root, holder.view(),
                                               proof.account_proof);
    ASSERT_TRUE(account.ok() && account->has_value());
    Hash32 storage_root;
    ASSERT_TRUE(storage::StateStore::AccountStorageRef(**account,
                                                       &storage_root));
    Result<std::optional<Bytes>> stored =
        storage::SecureSharedTrie::VerifyProof(storage_root, key.ToBytes(),
                                               proof.storage_proof);
    ASSERT_TRUE(stored.ok() && stored->has_value());
    EXPECT_EQ(**stored, rlp::oracle::Encode(Item::Scalar(value)));
  }
}

TEST(EncodingTest, ContractAddressesAndSignedCopiesMatchOracle) {
  std::mt19937_64 rng(0xc4ea7e);
  for (uint64_t nonce : {uint64_t{0}, uint64_t{1}, uint64_t{0x7f},
                         uint64_t{0x80}, ~uint64_t{0}}) {
    const Address creator = RandomAddress(rng);
    const Hash32 h = Keccak256(rlp::oracle::Encode(
        Item::List({Item::String(creator.view()), Item::Scalar(nonce)})));
    EXPECT_EQ(evm::Evm::ContractAddress(creator, nonce).ToHex(),
              Address::FromBytes(BytesView(h.data() + 12, 20))->ToHex());
  }
  for (size_t signers : {0, 1, 3}) {
    core::SignedCopy copy(RandomBytes(rng, 40 + 60 * signers));
    std::vector<Item> sigs;
    for (size_t i = 0; i < signers; ++i) {
      secp256k1::Signature sig;
      sig.v = static_cast<uint8_t>(27 + i % 2);
      sig.r = RandomU256(rng);
      sig.s = RandomU256(rng);
      const Address signer = RandomAddress(rng);
      copy.AttachSignature(signer, sig);
      sigs.push_back(Item::List(
          {Item::String(signer.view()), Item::String(sig.Serialize())}));
    }
    const Bytes expected = rlp::oracle::Encode(Item::List(
        {Item::String(copy.bytecode()), Item::List(std::move(sigs))}));
    EXPECT_EQ(copy.Serialize(), expected) << signers;
  }
}

// Transaction hashes encode into a per-thread buffer; threads hashing
// their own copies of the same transactions at once must agree with the
// oracle (TSan-checked in CI).
TEST(EncodingTest, ConcurrentTransactionHashing) {
  const std::vector<Transaction> txs = SeededTransactions();
  std::vector<Hash32> hashes;
  std::vector<Hash32> signing;
  for (const Transaction& tx : txs) {
    hashes.push_back(Keccak256(OracleSigned(tx)));
    signing.push_back(Keccak256(OracleUnsigned(tx)));
  }
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      std::vector<Transaction> mine = txs;
      for (int round = 0; round < 20; ++round) {
        for (size_t i = 0; i < mine.size(); ++i) {
          if (mine[i].Hash() != hashes[i]) ++mismatches[t];
          if (mine[i].SigningHash() != signing[i]) ++mismatches[t];
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int m : mismatches) EXPECT_EQ(m, 0);
}

}  // namespace
}  // namespace onoff::chain
