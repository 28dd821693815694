#include "chain/validator.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "contracts/betting.h"  // Ether()
#include "easm/assembler.h"
#include "obs/metrics.h"

namespace onoff::chain {
namespace {

using contracts::Ether;
using secp256k1::PrivateKey;

class ValidatorTest : public ::testing::Test {
 protected:
  ValidatorTest()
      : alice_(PrivateKey::FromSeed("alice")), bob_(PrivateKey::FromSeed("bob")) {
    alloc_ = {{alice_.EthAddress(), Ether(100)}, {bob_.EthAddress(), Ether(50)}};
    for (const auto& [addr, amount] : alloc_) chain_.FundAccount(addr, amount);
  }

  // A chain with transfers, a deployment, contract calls and empty blocks.
  void BuildActivity() {
    ASSERT_TRUE(chain_.Execute(alice_, bob_.EthAddress(), Ether(1), {}, 21'000)
                    .ok());
    chain_.MineBlock();  // empty block
    chain_.AdvanceTime(500);
    auto init = easm::Assemble(R"(
      PUSH1 0x06
      PUSH @runtime PUSH1 0x01 ADD
      PUSH1 0x00
      CODECOPY
      PUSH1 0x06 PUSH1 0x00 RETURN
      runtime: DB 0x602a60005500
    )");
    ASSERT_TRUE(init.ok());
    auto deploy = chain_.Execute(alice_, std::nullopt, U256(), *init, 500'000);
    ASSERT_TRUE(deploy.ok());
    ASSERT_TRUE(deploy->success);
    ASSERT_TRUE(chain_
                    .Execute(bob_, deploy->contract_address, U256(), {},
                             100'000)
                    .ok());
  }

  Blockchain chain_;
  PrivateKey alice_;
  PrivateKey bob_;
  GenesisAlloc alloc_;
};

TEST_F(ValidatorTest, FreshChainVerifies) {
  EXPECT_TRUE(VerifyChain(chain_, alloc_).ok());
}

TEST_F(ValidatorTest, ActiveChainVerifies) {
  BuildActivity();
  Status st = VerifyChain(chain_, alloc_);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST_F(ValidatorTest, WrongAllocationRejected) {
  BuildActivity();
  GenesisAlloc wrong = {{alice_.EthAddress(), Ether(1)}};
  Status st = VerifyChain(chain_, wrong);
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailed);
}

TEST_F(ValidatorTest, TamperedTransactionDetected) {
  BuildActivity();
  std::vector<Block> blocks = chain_.blocks();
  // Inflate the value of a mined transfer.
  for (auto& block : blocks) {
    for (auto& tx : block.transactions) {
      if (tx.value == Ether(1)) {
        tx.value = Ether(2);
      }
    }
  }
  Status st = VerifyChain(blocks, alloc_, chain_.config());
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailed);
}

TEST_F(ValidatorTest, TamperedStateRootDetected) {
  BuildActivity();
  std::vector<Block> blocks = chain_.blocks();
  blocks.back().header.state_root[0] ^= 0xff;
  Status st = VerifyChain(blocks, alloc_, chain_.config());
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailed);
}

TEST_F(ValidatorTest, ReorderedBlocksDetected) {
  BuildActivity();
  std::vector<Block> blocks = chain_.blocks();
  ASSERT_GE(blocks.size(), 3u);
  std::swap(blocks[1], blocks[2]);
  Status st = VerifyChain(blocks, alloc_, chain_.config());
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailed);
}

TEST_F(ValidatorTest, DroppedTransactionDetected) {
  BuildActivity();
  std::vector<Block> blocks = chain_.blocks();
  for (auto& block : blocks) {
    if (!block.transactions.empty()) {
      block.transactions.pop_back();
      break;
    }
  }
  Status st = VerifyChain(blocks, alloc_, chain_.config());
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailed);
}

TEST_F(ValidatorTest, EmptyChainRejected) {
  EXPECT_EQ(VerifyChain({}, alloc_, chain_.config()).code(),
            StatusCode::kInvalidArgument);
}

// Batch admission (SubmitTransactions, and ImportBlock through the same
// body) against a loop of SubmitTransaction. Every transaction is a cold
// copy: it round-trips through the wire format, so its sender memo starts
// empty, as in a batch or a block received from a peer.
class BatchAdmissionTest : public ::testing::Test {
 protected:
  static constexpr size_t kSenders = 4;

  BatchAdmissionTest() {
    for (size_t i = 0; i < kSenders; ++i) {
      keys_.push_back(PrivateKey::FromSeed("batch-" + std::to_string(i)));
      alloc_.emplace_back(keys_.back().EthAddress(), Ether(10));
    }
    for (const auto& [addr, amount] : alloc_) {
      batch_.FundAccount(addr, amount);
      serial_.FundAccount(addr, amount);
    }
  }

  static Transaction Cold(const Transaction& tx) {
    Result<Transaction> decoded = Transaction::Decode(tx.Encode());
    EXPECT_TRUE(decoded.ok()) << decoded.status().ToString();
    return *decoded;
  }

  static std::vector<Transaction> Cold(const std::vector<Transaction>& txs) {
    std::vector<Transaction> out;
    for (const Transaction& tx : txs) out.push_back(Cold(tx));
    return out;
  }

  Transaction Transfer(size_t sender, uint64_t nonce,
                       uint64_t gas_limit = 21'000) const {
    Transaction tx;
    tx.nonce = nonce;
    tx.gas_price = U256(1);
    tx.gas_limit = gas_limit;
    tx.to = keys_[(sender + 1) % kSenders].EthAddress();
    tx.value = U256(1 + sender);
    tx.Sign(keys_[sender]);
    return tx;
  }

  // 16 transfers, 4 per sender; each sender's nonces arrive as 2, 0, 3, 1,
  // interleaved with the other senders'.
  std::vector<Transaction> Transfers() const {
    std::vector<Transaction> txs;
    for (uint64_t nonce : {2u, 0u, 3u, 1u}) {
      for (size_t sender = 0; sender < kSenders; ++sender) {
        txs.push_back(Transfer(sender, nonce));
      }
    }
    return txs;
  }

  // `results` from SubmitTransactions against a loop of SubmitTransaction
  // over its own cold copies of the same transactions.
  void ExpectSameResults(const std::vector<Result<Hash32>>& results,
                         const std::vector<Transaction>& txs) {
    ASSERT_EQ(results.size(), txs.size());
    for (size_t i = 0; i < txs.size(); ++i) {
      Result<Hash32> serial = serial_.SubmitTransaction(Cold(txs[i]));
      EXPECT_EQ(results[i].status().code(), serial.status().code())
          << "tx " << i;
      EXPECT_EQ(results[i].status().message(), serial.status().message())
          << "tx " << i;
      if (serial.ok() && results[i].ok()) {
        EXPECT_EQ(*results[i], *serial) << "tx " << i;
      }
    }
  }

  static uint64_t Counter(const char* name) {
    return obs::Registry::Global()->CounterValue(name);
  }

  // A chain funded like the fixture's whose explicit audit spec leaves out
  // the nonce invariant: its own Sender() call, which ONOFF_AUDIT=all would
  // switch on, reads the memo once per mined transaction.
  std::unique_ptr<Blockchain> ChainWithoutNonceAudit() const {
    ChainConfig config;
    config.audit_invariants = "conservation";
    auto chain = std::make_unique<Blockchain>(config);
    for (const auto& [addr, amount] : alloc_) chain->FundAccount(addr, amount);
    return chain;
  }

  std::vector<PrivateKey> keys_;
  GenesisAlloc alloc_;
  Blockchain batch_;
  Blockchain serial_;
};

TEST_F(BatchAdmissionTest, SameStatusesPoolAndRootsAsOneAtATime) {
  std::vector<Transaction> txs = Transfers();
  txs.push_back(txs[5]);                         // duplicate
  txs.push_back(Transfer(0, 4, 9'000'000));      // above the block limit
  txs.push_back(Transfer(1, 4, 20'000));         // below intrinsic gas
  Transaction high_s = Transfer(2, 4);           // EIP-2: the same sender
  high_s.signature.s = secp256k1::GroupOrder() - high_s.signature.s;
  high_s.signature.v = static_cast<uint8_t>(55 - high_s.signature.v);
  txs.push_back(high_s);
  Transaction r_zero = Transfer(3, 4);           // unrecoverable
  r_zero.signature.r = U256(0);
  txs.push_back(r_zero);

  const bool metrics = obs::Registry::Global() != nullptr;
  const uint64_t before_batch = metrics ? Counter("crypto.recover_ops") : 0;
  std::vector<Result<Hash32>> results = batch_.SubmitTransactions(Cold(txs));
  const uint64_t before_serial = metrics ? Counter("crypto.recover_ops") : 0;
  ExpectSameResults(results, txs);
  if (metrics) {
    // Every sender is recovered once on each chain, the unrecoverable one
    // included: admission takes the batch's recovery results (none for the
    // high-s copy, which fails before recovery).
    const uint64_t serial_recovers =
        Counter("crypto.recover_ops") - before_serial;
    EXPECT_EQ(serial_recovers, 20u);
    EXPECT_EQ(before_serial - before_batch, serial_recovers);
  }
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_TRUE(results[i].ok()) << "tx " << i << ": "
                                 << results[i].status().ToString();
  }
  EXPECT_EQ(results[16].status().code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(results[17].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[18].status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(results[19].status().code(), StatusCode::kVerificationFailed);
  EXPECT_EQ(results[20].status().code(), StatusCode::kVerificationFailed);

  ASSERT_EQ(batch_.PendingCount(), serial_.PendingCount());
  const Block& batch_block = batch_.MineBlock();
  const Block& serial_block = serial_.MineBlock();
  EXPECT_EQ(batch_block.transactions.size(), 16u);
  EXPECT_EQ(batch_.PendingCount(), serial_.PendingCount());
  EXPECT_EQ(batch_block.header.state_root, serial_block.header.state_root);
  EXPECT_EQ(batch_block.header.tx_root, serial_block.header.tx_root);
  EXPECT_EQ(batch_block.header.receipt_root, serial_block.header.receipt_root);
}

TEST_F(BatchAdmissionTest, RecoversEachColdSenderOnce) {
  if (obs::Registry::Global() == nullptr) {
    GTEST_SKIP() << "metrics disabled (ONOFF_METRICS=0)";
  }
  const std::vector<Transaction> txs = Transfers();
  uint64_t before = Counter("crypto.recover_ops");
  for (const Result<Hash32>& result : batch_.SubmitTransactions(Cold(txs))) {
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  }
  EXPECT_EQ(Counter("crypto.recover_ops") - before, 16u);
  before = Counter("crypto.recover_ops");
  for (const Transaction& tx : Cold(txs)) {
    EXPECT_TRUE(serial_.SubmitTransaction(tx).ok());
  }
  EXPECT_EQ(Counter("crypto.recover_ops") - before, 16u);
}

TEST_F(BatchAdmissionTest, OneColdSubmissionReadsNoMemoHit) {
  if (obs::Registry::Global() == nullptr) {
    GTEST_SKIP() << "metrics disabled (ONOFF_METRICS=0)";
  }
  const Transaction tx = Cold(Transfer(0, 0));
  const uint64_t misses = Counter("chain.sender_cache_misses");
  const uint64_t hits = Counter("chain.sender_cache_hits");
  ASSERT_TRUE(serial_.SubmitTransaction(tx).ok());
  EXPECT_EQ(Counter("chain.sender_cache_misses") - misses, 1u);
  EXPECT_EQ(Counter("chain.sender_cache_hits") - hits, 0u);
}

// Admission's recovery is the only memo read of a transaction's life:
// execution reads the sender from the pool record.
TEST_F(BatchAdmissionTest, ColdTransferMinedWithOneMemoRead) {
  if (obs::Registry::Global() == nullptr) {
    GTEST_SKIP() << "metrics disabled (ONOFF_METRICS=0)";
  }
  std::unique_ptr<Blockchain> chain = ChainWithoutNonceAudit();
  const Transaction tx = Cold(Transfer(0, 0));
  const uint64_t misses = Counter("chain.sender_cache_misses");
  const uint64_t hits = Counter("chain.sender_cache_hits");
  ASSERT_TRUE(chain->SubmitTransaction(tx).ok());
  ASSERT_EQ(chain->MineBlock().transactions.size(), 1u);
  EXPECT_EQ(Counter("chain.sender_cache_misses") - misses, 1u);
  EXPECT_EQ(Counter("chain.sender_cache_hits") - hits, 0u);
}

// An import into an empty pool recovers each sender once, in admission:
// execution and the cleanup of the node's own pool read the scratch pool's
// records.
TEST_F(BatchAdmissionTest, ColdImportIntoEmptyPoolReadsNoMemoHit) {
  if (obs::Registry::Global() == nullptr) {
    GTEST_SKIP() << "metrics disabled (ONOFF_METRICS=0)";
  }
  for (const Result<Hash32>& result : batch_.SubmitTransactions(Transfers())) {
    ASSERT_TRUE(result.ok()) << result.status().ToString();
  }
  Block block = batch_.MineBlock();
  ASSERT_EQ(block.transactions.size(), 16u);
  block.transactions = Cold(block.transactions);
  std::unique_ptr<Blockchain> replica = ChainWithoutNonceAudit();
  const uint64_t misses = Counter("chain.sender_cache_misses");
  const uint64_t hits = Counter("chain.sender_cache_hits");
  Status st = replica->ImportBlock(block);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(Counter("chain.sender_cache_misses") - misses, 16u);
  EXPECT_EQ(Counter("chain.sender_cache_hits") - hits, 0u);
  EXPECT_EQ(replica->blocks().back().Hash(), block.Hash());
}

TEST_F(BatchAdmissionTest, VerifyChainOverColdBlocks) {
  // Three blocks of 8 transfers, 2 per sender.
  for (uint64_t block = 0; block < 3; ++block) {
    std::vector<Transaction> txs;
    for (uint64_t nonce : {2 * block, 2 * block + 1}) {
      for (size_t sender = 0; sender < kSenders; ++sender) {
        txs.push_back(Transfer(sender, nonce));
      }
    }
    for (const Result<Hash32>& result : batch_.SubmitTransactions(txs)) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
    ASSERT_EQ(batch_.MineBlock().transactions.size(), 8u);
  }
  std::vector<Block> blocks = batch_.blocks();
  for (Block& block : blocks) block.transactions = Cold(block.transactions);
  Status st = VerifyChain(blocks, alloc_, batch_.config());
  EXPECT_TRUE(st.ok()) << st.ToString();

  // An unrecoverable first signature is rejected with the one-at-a-time
  // status, not a cached failure from the pool.
  for (Block& block : blocks) block.transactions = Cold(block.transactions);
  blocks[1].transactions[0].signature.r = U256(0);
  st = VerifyChain(blocks, alloc_, batch_.config());
  EXPECT_EQ(st.code(), StatusCode::kVerificationFailed);
  EXPECT_EQ(st.message(),
            "block 1: transaction rejected on replay: signature scalar out "
            "of range");
}

}  // namespace
}  // namespace onoff::chain
