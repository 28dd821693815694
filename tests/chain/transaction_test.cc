#include "chain/transaction.h"

#include <gtest/gtest.h>

#include "evm/gas.h"
#include "obs/metrics.h"

namespace onoff::chain {
namespace {

Transaction MakeTx() {
  Transaction tx;
  tx.nonce = 7;
  tx.gas_price = U256(20);
  tx.gas_limit = 100'000;
  auto to = Address::FromHex("0x1111111111111111111111111111111111111111");
  tx.to = *to;
  tx.value = U256(1'000'000);
  tx.data = Bytes{0x01, 0x00, 0x02};
  return tx;
}

TEST(TransactionTest, SignAndRecoverSender) {
  auto key = secp256k1::PrivateKey::FromSeed("tx-sender");
  Transaction tx = MakeTx();
  tx.Sign(key);
  auto sender = tx.Sender();
  ASSERT_TRUE(sender.ok());
  EXPECT_EQ(*sender, key.EthAddress());
}

TEST(TransactionTest, TamperedFieldChangesSender) {
  auto key = secp256k1::PrivateKey::FromSeed("tx-sender");
  Transaction tx = MakeTx();
  tx.Sign(key);
  tx.value += U256(1);  // tamper after signing
  auto sender = tx.Sender();
  // Recovery either fails or yields a different address — never the signer.
  if (sender.ok()) {
    EXPECT_NE(*sender, key.EthAddress());
  }
}

TEST(TransactionTest, EncodeDecodeRoundTrip) {
  auto key = secp256k1::PrivateKey::FromSeed("round-trip");
  Transaction tx = MakeTx();
  tx.Sign(key);
  Bytes wire = tx.Encode();
  auto decoded = Transaction::Decode(wire);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->nonce, tx.nonce);
  EXPECT_EQ(decoded->gas_price, tx.gas_price);
  EXPECT_EQ(decoded->gas_limit, tx.gas_limit);
  EXPECT_EQ(decoded->to, tx.to);
  EXPECT_EQ(decoded->value, tx.value);
  EXPECT_EQ(decoded->data, tx.data);
  EXPECT_EQ(decoded->signature, tx.signature);
  EXPECT_EQ(decoded->Hash(), tx.Hash());
}

TEST(TransactionTest, ContractCreationEncoding) {
  auto key = secp256k1::PrivateKey::FromSeed("creator");
  Transaction tx = MakeTx();
  tx.to = std::nullopt;
  tx.Sign(key);
  EXPECT_TRUE(tx.IsContractCreation());
  auto decoded = Transaction::Decode(tx.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->IsContractCreation());
}

TEST(TransactionTest, DecodeRejectsGarbage) {
  EXPECT_FALSE(Transaction::Decode(Bytes{0x01, 0x02}).ok());
  EXPECT_FALSE(Transaction::Decode(Bytes{0xc0}).ok());  // empty list
}

TEST(TransactionTest, IntrinsicGas) {
  Transaction tx = MakeTx();
  tx.data = Bytes{0x01, 0x00, 0x02};  // 2 non-zero + 1 zero
  EXPECT_EQ(tx.IntrinsicGas(),
            evm::gas::kTx + 2 * evm::gas::kTxDataNonZero + evm::gas::kTxDataZero);
  tx.to = std::nullopt;
  EXPECT_EQ(tx.IntrinsicGas(), evm::gas::kTx + evm::gas::kTxCreate +
                                   2 * evm::gas::kTxDataNonZero +
                                   evm::gas::kTxDataZero);
  tx.data.clear();
  tx.to = Address();
  EXPECT_EQ(tx.IntrinsicGas(), evm::gas::kTx);
}

// Counter delta helper; returns 0 deltas when metrics are disabled.
class CounterDelta {
 public:
  explicit CounterDelta(const std::string& name)
      : name_(name), start_(Read()) {}
  uint64_t Value() const { return Read() - start_; }

 private:
  uint64_t Read() const {
    obs::Registry* r = obs::Registry::Global();
    return r != nullptr ? r->CounterValue(name_) : 0;
  }
  std::string name_;
  uint64_t start_;
};

bool MetricsEnabled() { return obs::Registry::Global() != nullptr; }

TEST(TransactionTest, SenderIsMemoized) {
  auto key = secp256k1::PrivateKey::FromSeed("memo-sender");
  Transaction tx = MakeTx();
  tx.Sign(key);
  CounterDelta misses("chain.sender_cache_misses");
  CounterDelta hits("chain.sender_cache_hits");
  for (int i = 0; i < 5; ++i) {
    auto sender = tx.Sender();
    ASSERT_TRUE(sender.ok());
    EXPECT_EQ(*sender, key.EthAddress());
  }
  if (MetricsEnabled()) {
    // One ECDSA recovery, then four cache hits.
    EXPECT_EQ(misses.Value(), 1u);
    EXPECT_EQ(hits.Value(), 4u);
  }
}

TEST(TransactionTest, SenderCacheInvalidatedByFieldMutation) {
  auto key = secp256k1::PrivateKey::FromSeed("memo-mutate");
  Transaction tx = MakeTx();
  tx.Sign(key);
  ASSERT_TRUE(tx.Sender().ok());
  // Mutating any signed field changes the signing hash, so the memo must
  // not serve the stale sender.
  tx.nonce += 1;
  auto tampered = tx.Sender();
  if (tampered.ok()) {
    EXPECT_NE(*tampered, key.EthAddress());
  }
  // Re-signing repairs the transaction and refreshes the memo.
  tx.Sign(key);
  auto sender = tx.Sender();
  ASSERT_TRUE(sender.ok());
  EXPECT_EQ(*sender, key.EthAddress());
}

TEST(TransactionTest, SenderCacheInvalidatedBySignatureMutation) {
  auto key = secp256k1::PrivateKey::FromSeed("memo-sig");
  Transaction tx = MakeTx();
  tx.Sign(key);
  ASSERT_TRUE(tx.Sender().ok());
  // Same signing hash, different signature: the memo is keyed on both.
  tx.signature.s += U256(1);
  CounterDelta hits("chain.sender_cache_hits");
  auto tampered = tx.Sender();
  if (tampered.ok()) {
    EXPECT_NE(*tampered, key.EthAddress());
  }
  if (MetricsEnabled()) {
    EXPECT_EQ(hits.Value(), 0u);
  }
}

TEST(TransactionTest, CopyCarriesWarmSenderCache) {
  auto key = secp256k1::PrivateKey::FromSeed("memo-copy");
  Transaction tx = MakeTx();
  tx.Sign(key);
  ASSERT_TRUE(tx.Sender().ok());  // warm the memo
  Transaction copy = tx;          // pool/block copies keep the warm cache
  CounterDelta misses("chain.sender_cache_misses");
  auto sender = copy.Sender();
  ASSERT_TRUE(sender.ok());
  EXPECT_EQ(*sender, key.EthAddress());
  if (MetricsEnabled()) {
    EXPECT_EQ(misses.Value(), 0u);
  }
}

// (r, n - s, 55 - v) is the same signer's signature over the same fields,
// under a different transaction hash. EIP-2 makes Sender() reject it, while
// plain recovery (the ecrecover precompile's path) still accepts it.
TEST(TransactionTest, MalleatedHighSCopyIsRejected) {
  auto key = secp256k1::PrivateKey::FromSeed("malleate");
  Transaction tx = MakeTx();
  tx.Sign(key);
  Transaction copy = MakeTx();
  copy.signature.r = tx.signature.r;
  copy.signature.s = secp256k1::GroupOrder() - tx.signature.s;
  copy.signature.v = static_cast<uint8_t>(55 - tx.signature.v);
  EXPECT_NE(copy.Hash(), tx.Hash());
  auto recovered =
      secp256k1::RecoverAddress(copy.SigningHash(), copy.signature.v,
                                copy.signature.r, copy.signature.s);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(*recovered, key.EthAddress());

  auto sender = copy.Sender();
  ASSERT_FALSE(sender.ok());
  EXPECT_EQ(sender.status().code(), StatusCode::kVerificationFailed);
  // The decoded wire form is rejected the same way.
  auto decoded = Transaction::Decode(copy.Encode());
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE(decoded->Sender().ok());
  ASSERT_TRUE(tx.Sender().ok());
  EXPECT_EQ(*tx.Sender(), key.EthAddress());
}

TEST(TransactionTest, DistinctHashes) {
  auto key = secp256k1::PrivateKey::FromSeed("hashes");
  Transaction a = MakeTx();
  a.Sign(key);
  Transaction b = MakeTx();
  b.nonce = 8;
  b.Sign(key);
  EXPECT_NE(a.Hash(), b.Hash());
  EXPECT_NE(a.SigningHash(), b.SigningHash());
}

}  // namespace
}  // namespace onoff::chain
