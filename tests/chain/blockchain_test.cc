#include "chain/blockchain.h"

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "contracts/betting.h"
#include "easm/assembler.h"
#include "evm/gas.h"
#include "obs/metrics.h"
#include "rlp/rlp.h"
#include "rlp/rlp_oracle.h"
#include "support/thread_pool.h"
#include "trace/trace.h"
#include "trie/trie.h"

namespace onoff::chain {
namespace {

const U256 kEther = U256(10).Exp(U256(18));

class BlockchainTest : public ::testing::Test {
 protected:
  BlockchainTest()
      : alice_(secp256k1::PrivateKey::FromSeed("alice")),
        bob_(secp256k1::PrivateKey::FromSeed("bob")) {
    chain_.FundAccount(alice_.EthAddress(), kEther * U256(100));
    chain_.FundAccount(bob_.EthAddress(), kEther * U256(100));
  }

  Blockchain chain_;
  secp256k1::PrivateKey alice_;
  secp256k1::PrivateKey bob_;
};

TEST_F(BlockchainTest, GenesisBlock) {
  ASSERT_EQ(chain_.blocks().size(), 1u);
  EXPECT_EQ(chain_.blocks()[0].header.number, 0u);
  EXPECT_EQ(chain_.Height(), 0u);
}

TEST_F(BlockchainTest, HeaderRootsMatchOracleAtRlpKeyBoundaries) {
  // Index keys are RLP(i): RLP(0) is 0x80 and 128 is the first two-byte
  // key, so across these sizes key order and insertion order diverge. The
  // mined tx/receipt roots must equal the seed trie's over the same bodies.
  uint64_t nonce = 0;
  for (size_t n : {0u, 1u, 2u, 127u, 128u, 129u, 200u}) {
    for (size_t i = 0; i < n; ++i) {
      Transaction tx;
      tx.nonce = nonce++;
      tx.gas_price = U256(1);
      tx.gas_limit = 21'000;
      tx.to = bob_.EthAddress();
      tx.value = U256(1);
      tx.Sign(alice_);
      ASSERT_TRUE(chain_.SubmitTransaction(tx).ok());
    }
    const Block& block = chain_.MineBlock();
    ASSERT_EQ(block.transactions.size(), n);
    trie::Trie tx_oracle;
    trie::Trie receipt_oracle;
    for (size_t i = 0; i < n; ++i) {
      Bytes key =
          rlp::oracle::Encode(rlp::Item::Scalar(static_cast<uint64_t>(i)));
      const Transaction& tx = block.transactions[i];
      tx_oracle.Put(key, tx.Encode());
      Result<Receipt> receipt = chain_.GetReceipt(tx.Hash());
      ASSERT_TRUE(receipt.ok()) << n << "/" << i;
      receipt_oracle.Put(key, receipt->Encode());
    }
    EXPECT_EQ(block.header.tx_root, tx_oracle.RootHash()) << n;
    EXPECT_EQ(block.header.receipt_root, receipt_oracle.RootHash()) << n;
  }
}

TEST_F(BlockchainTest, SimpleValueTransfer) {
  U256 bob_before = chain_.GetBalance(bob_.EthAddress());
  auto receipt = chain_.Execute(alice_, bob_.EthAddress(), kEther, {}, 21'000);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_TRUE(receipt->success);
  EXPECT_EQ(receipt->gas_used, 21'000u);
  EXPECT_EQ(chain_.GetBalance(bob_.EthAddress()), bob_before + kEther);
  // Alice paid value + gas (gas price 1).
  EXPECT_EQ(chain_.GetBalance(alice_.EthAddress()),
            kEther * U256(100) - kEther - U256(21'000));
  // Miner got the fee.
  EXPECT_EQ(chain_.GetBalance(Address()), U256(21'000));
}

TEST_F(BlockchainTest, NonceSequenceEnforced) {
  // Regression (pool gap-holding): a gapped nonce used to be mined into a
  // guaranteed "nonce mismatch" failure. It must instead stay pending until
  // the gap fills, then mine in nonce order.
  Transaction tx;
  tx.nonce = 2;  // gapped: account nonce is 0
  tx.gas_price = U256(1);
  tx.gas_limit = 21'000;
  tx.to = bob_.EthAddress();
  tx.value = U256(1);
  tx.Sign(alice_);
  auto hash = chain_.SubmitTransaction(tx);
  ASSERT_TRUE(hash.ok());
  chain_.MineBlock();
  EXPECT_FALSE(chain_.GetReceipt(*hash).ok());  // held, not mined
  EXPECT_EQ(chain_.PendingCount(), 1u);
  EXPECT_EQ(chain_.GetNonce(alice_.EthAddress()), 0u);
  for (uint64_t nonce : {0u, 1u}) {
    Transaction fill;
    fill.nonce = nonce;
    fill.gas_price = U256(1);
    fill.gas_limit = 21'000;
    fill.to = bob_.EthAddress();
    fill.value = U256(1);
    fill.Sign(alice_);
    ASSERT_TRUE(chain_.SubmitTransaction(fill).ok());
  }
  const Block& block = chain_.MineBlock();
  EXPECT_EQ(block.transactions.size(), 3u);
  auto receipt = chain_.GetReceipt(*hash);
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->success);
  EXPECT_EQ(chain_.GetNonce(alice_.EthAddress()), 3u);
}

TEST_F(BlockchainTest, MalleatedCopyCannotDisplaceOriginal) {
  // A relayer turns alice's transfer into (r, n - s, 55 - v): the same
  // sender and fields under another hash. Admitted first, the copy would be
  // mined in place of the original, whose receipt would then be NotFound.
  Transaction tx;
  tx.nonce = 0;
  tx.gas_price = U256(1);
  tx.gas_limit = 21'000;
  tx.to = bob_.EthAddress();
  tx.value = U256(1);
  tx.Sign(alice_);
  Transaction copy = tx;
  copy.signature.s = secp256k1::GroupOrder() - tx.signature.s;
  copy.signature.v = static_cast<uint8_t>(55 - tx.signature.v);
  ASSERT_NE(copy.Hash(), tx.Hash());

  auto copy_hash = chain_.SubmitTransaction(copy);
  ASSERT_FALSE(copy_hash.ok());
  EXPECT_EQ(copy_hash.status().code(), StatusCode::kVerificationFailed);
  auto hash = chain_.SubmitTransaction(tx);
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  const Block& block = chain_.MineBlock();
  ASSERT_EQ(block.transactions.size(), 1u);
  EXPECT_EQ(block.transactions[0].Hash(), *hash);
  auto receipt = chain_.GetReceipt(*hash);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  EXPECT_TRUE(receipt->success);
  EXPECT_FALSE(chain_.GetReceipt(copy.Hash()).ok());
}

TEST_F(BlockchainTest, NonceIncrementsPerTransaction) {
  EXPECT_EQ(chain_.GetNonce(alice_.EthAddress()), 0u);
  ASSERT_TRUE(chain_.Execute(alice_, bob_.EthAddress(), U256(1), {}, 21'000).ok());
  EXPECT_EQ(chain_.GetNonce(alice_.EthAddress()), 1u);
  ASSERT_TRUE(chain_.Execute(alice_, bob_.EthAddress(), U256(1), {}, 21'000).ok());
  EXPECT_EQ(chain_.GetNonce(alice_.EthAddress()), 2u);
}

TEST_F(BlockchainTest, ContractDeploymentAndCall) {
  // Init code returning runtime that echoes CALLVALUE... simpler: runtime
  // stores 42 at slot 0 on any call.
  // Runtime: PUSH1 42 PUSH1 0 SSTORE STOP = 602a60005500
  // Init: PUSH6 <runtime> PUSH1 0 MSTORE ... easier via CODECOPY pattern:
  auto init = easm::Assemble(R"(
    PUSH1 0x06
    PUSH @runtime PUSH1 0x01 ADD
    PUSH1 0x00
    CODECOPY
    PUSH1 0x06 PUSH1 0x00 RETURN
    runtime: DB 0x602a60005500
  )");
  ASSERT_TRUE(init.ok());

  auto receipt = chain_.Execute(alice_, std::nullopt, U256(), *init, 500'000);
  ASSERT_TRUE(receipt.ok());
  ASSERT_TRUE(receipt->success) << std::string(receipt->output.begin(),
                                               receipt->output.end());
  Address contract = receipt->contract_address;
  EXPECT_FALSE(contract.IsZero());
  EXPECT_EQ(chain_.GetCode(contract).size(), 6u);
  EXPECT_EQ(contract, evm::Evm::ContractAddress(alice_.EthAddress(), 0));

  // Call it; storage slot 0 becomes 42.
  auto call_receipt = chain_.Execute(alice_, contract, U256(), {}, 100'000);
  ASSERT_TRUE(call_receipt.ok());
  EXPECT_TRUE(call_receipt->success);
  EXPECT_EQ(chain_.GetStorage(contract, U256(0)), U256(42));
}

TEST_F(BlockchainTest, DeploymentGasMatchesFormula) {
  // Deploying N bytes of runtime code costs
  // 21000 + 32000 + calldata + execution + 200*N.
  auto init = easm::Assemble(R"(
    PUSH1 0x06
    PUSH @runtime PUSH1 0x01 ADD
    PUSH1 0x00
    CODECOPY
    PUSH1 0x06 PUSH1 0x00 RETURN
    runtime: DB 0x602a60005500
  )");
  ASSERT_TRUE(init.ok());
  auto receipt = chain_.Execute(alice_, std::nullopt, U256(), *init, 500'000);
  ASSERT_TRUE(receipt.ok());
  ASSERT_TRUE(receipt->success);
  Transaction probe;
  probe.to = std::nullopt;
  probe.data = *init;
  uint64_t intrinsic = probe.IntrinsicGas();
  // Execution: 5 pushes (15) + ADD (3) + CODECOPY (3 + 3*1 words) + RETURN
  // memory expansion (3) ... assert the deposit dominates as expected.
  uint64_t expected_min = intrinsic + 200 * 6;
  EXPECT_GE(receipt->gas_used, expected_min);
  EXPECT_LT(receipt->gas_used, expected_min + 100);
}

TEST_F(BlockchainTest, RevertedCallRefundsRemainingGas) {
  auto init = easm::Assemble(R"(
    PUSH1 0x05
    PUSH @runtime PUSH1 0x01 ADD
    PUSH1 0x00
    CODECOPY
    PUSH1 0x05 PUSH1 0x00 RETURN
    runtime: DB 0x60006000fd00
  )");  // runtime: PUSH1 0 PUSH1 0 REVERT
  ASSERT_TRUE(init.ok());
  auto deploy = chain_.Execute(alice_, std::nullopt, U256(), *init, 500'000);
  ASSERT_TRUE(deploy.ok());
  ASSERT_TRUE(deploy->success);

  U256 before = chain_.GetBalance(alice_.EthAddress());
  auto receipt = chain_.Execute(alice_, deploy->contract_address, U256(), {},
                                100'000);
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
  // Only 21000 + a few gas consumed, the rest refunded.
  EXPECT_LT(receipt->gas_used, 22'000u);
  EXPECT_EQ(chain_.GetBalance(alice_.EthAddress()),
            before - U256(receipt->gas_used));
}

TEST_F(BlockchainTest, InsufficientBalanceRejectedAtApply) {
  auto poor = secp256k1::PrivateKey::FromSeed("poor");
  Transaction tx;
  tx.nonce = 0;
  tx.gas_price = U256(1);
  tx.gas_limit = 21'000;
  tx.to = bob_.EthAddress();
  tx.value = U256(1);
  tx.Sign(poor);
  auto hash = chain_.SubmitTransaction(tx);
  ASSERT_TRUE(hash.ok());
  chain_.MineBlock();
  auto receipt = chain_.GetReceipt(*hash);
  ASSERT_TRUE(receipt.ok());
  EXPECT_FALSE(receipt->success);
}

TEST_F(BlockchainTest, SubmitValidation) {
  Transaction tx;
  tx.nonce = 0;
  tx.gas_price = U256(1);
  tx.gas_limit = 20'000;  // below intrinsic
  tx.to = bob_.EthAddress();
  tx.Sign(alice_);
  EXPECT_FALSE(chain_.SubmitTransaction(tx).ok());
  tx.gas_limit = 9'000'000;  // above block limit
  tx.Sign(alice_);
  EXPECT_FALSE(chain_.SubmitTransaction(tx).ok());
  // Unsigned tx has no recoverable sender.
  Transaction unsigned_tx;
  unsigned_tx.gas_limit = 21'000;
  unsigned_tx.to = bob_.EthAddress();
  EXPECT_FALSE(chain_.SubmitTransaction(unsigned_tx).ok());
}

TEST_F(BlockchainTest, DuplicateSubmissionRejected) {
  Transaction tx;
  tx.nonce = 0;
  tx.gas_price = U256(1);
  tx.gas_limit = 21'000;
  tx.to = bob_.EthAddress();
  tx.value = U256(5);
  tx.Sign(alice_);
  EXPECT_TRUE(chain_.SubmitTransaction(tx).ok());
  EXPECT_FALSE(chain_.SubmitTransaction(tx).ok());
}

TEST_F(BlockchainTest, BlockChainingAndTimestamps) {
  uint64_t t0 = chain_.Now();
  const Block& b1 = chain_.MineBlock();
  EXPECT_EQ(b1.header.number, 1u);
  EXPECT_EQ(b1.header.timestamp, t0);
  const Block& b2 = chain_.MineBlock();
  EXPECT_EQ(b2.header.parent_hash, chain_.blocks()[1].Hash());
  EXPECT_GT(b2.header.timestamp, t0);
  chain_.AdvanceTime(1000);
  const Block& b3 = chain_.MineBlock();
  EXPECT_GE(b3.header.timestamp, t0 + 1000);
}

TEST_F(BlockchainTest, StateRootInHeaderMatchesState) {
  ASSERT_TRUE(chain_.Execute(alice_, bob_.EthAddress(), U256(9), {}, 21'000).ok());
  EXPECT_EQ(chain_.blocks().back().header.state_root, chain_.state().StateRoot());
}

TEST_F(BlockchainTest, CallReadOnlyDoesNotMutate) {
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
  Address contract = deploy->contract_address;
  Hash32 root_before = chain_.state().StateRoot();
  auto res = chain_.CallReadOnly(alice_.EthAddress(), contract, {});
  EXPECT_TRUE(res.ok());
  EXPECT_EQ(chain_.state().StateRoot(), root_before);
  EXPECT_TRUE(chain_.GetStorage(contract, U256(0)).IsZero());
}

TEST_F(BlockchainTest, ManyTransactionsInOneBlock) {
  for (int i = 0; i < 10; ++i) {
    Transaction tx;
    tx.nonce = i;
    tx.gas_price = U256(1);
    tx.gas_limit = 21'000;
    tx.to = bob_.EthAddress();
    tx.value = U256(1);
    tx.Sign(alice_);
    ASSERT_TRUE(chain_.SubmitTransaction(tx).ok());
  }
  const Block& block = chain_.MineBlock();
  EXPECT_EQ(block.transactions.size(), 10u);
  EXPECT_EQ(block.header.gas_used, 210'000u);
  EXPECT_EQ(chain_.GetNonce(alice_.EthAddress()), 10u);
  EXPECT_EQ(chain_.TotalGasUsed(), 210'000u);
}

TEST_F(BlockchainTest, GetLogsFiltersByAddressAndTopic) {
  // Contract emitting LOG1 with topic 0x07 and 32 bytes of data per call.
  auto init = easm::Assemble(R"(
    PUSH1 0x0e
    PUSH @runtime PUSH1 0x01 ADD
    PUSH1 0x00
    CODECOPY
    PUSH1 0x0e PUSH1 0x00 RETURN
    runtime: DB 0x6042600052600760206000a100
  )");
  ASSERT_TRUE(init.ok());
  auto deploy = chain_.Execute(alice_, std::nullopt, U256(), *init, 500'000);
  ASSERT_TRUE(deploy->success);
  Address emitter = deploy->contract_address;
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(chain_.Execute(alice_, emitter, U256(), {}, 100'000)->success);
  }
  // All logs from the emitter.
  Blockchain::LogQuery q;
  q.address = emitter;
  auto logs = chain_.GetLogs(q);
  ASSERT_EQ(logs.size(), 3u);
  EXPECT_EQ(logs[0].topics[0], U256(7));
  EXPECT_EQ(U256::FromBigEndianTruncating(logs[0].data), U256(0x42));
  // Topic filter: matching and non-matching.
  q.topic0 = U256(7);
  EXPECT_EQ(chain_.GetLogs(q).size(), 3u);
  q.topic0 = U256(8);
  EXPECT_TRUE(chain_.GetLogs(q).empty());
  // Block-range filter.
  Blockchain::LogQuery range;
  range.address = emitter;
  range.from_block = chain_.Height();  // only the last block
  EXPECT_EQ(chain_.GetLogs(range).size(), 1u);
  // Address filter excludes other contracts.
  Blockchain::LogQuery other;
  other.address = bob_.EthAddress();
  EXPECT_TRUE(chain_.GetLogs(other).empty());
}

TEST_F(BlockchainTest, ReceiptLookupMissing) {
  EXPECT_FALSE(chain_.GetReceipt(Hash32{}).ok());
}

TEST_F(BlockchainTest, BlockGasLimitDefersOverflowToNextBlock) {
  // Three transactions with a 4M gas limit each against the default 8M
  // block gas limit: the first block takes two, the third is deferred —
  // not dropped — and mines in the next block.
  for (int i = 0; i < 3; ++i) {
    Transaction tx;
    tx.nonce = i;
    tx.gas_price = U256(1);
    tx.gas_limit = 4'000'000;
    tx.to = bob_.EthAddress();
    tx.value = U256(1);
    tx.Sign(alice_);
    ASSERT_TRUE(chain_.SubmitTransaction(tx).ok());
  }
  const Block& b1 = chain_.MineBlock();
  EXPECT_EQ(b1.transactions.size(), 2u);
  EXPECT_EQ(b1.transactions[0].nonce, 0u);
  EXPECT_EQ(b1.transactions[1].nonce, 1u);
  const Block& b2 = chain_.MineBlock();
  ASSERT_EQ(b2.transactions.size(), 1u);
  EXPECT_EQ(b2.transactions[0].nonce, 2u);
  // All three applied in order despite the split.
  EXPECT_EQ(chain_.GetNonce(alice_.EthAddress()), 3u);
  EXPECT_EQ(chain_.GetBalance(bob_.EthAddress()),
            kEther * U256(100) + U256(3));
}

TEST_F(BlockchainTest, OutOfOrderNoncesMineInNonceOrder) {
  // A sender whose transactions arrive as {2, 0, 1} must not burn two of
  // them on nonce-gap failures: the pool reorders per sender.
  std::array<Hash32, 3> hashes;
  for (uint64_t nonce : {2u, 0u, 1u}) {
    Transaction tx;
    tx.nonce = nonce;
    tx.gas_price = U256(1);
    tx.gas_limit = 21'000;
    tx.to = bob_.EthAddress();
    tx.value = U256(1);
    tx.Sign(alice_);
    auto hash = chain_.SubmitTransaction(tx);
    ASSERT_TRUE(hash.ok());
    hashes[nonce] = *hash;
  }
  const Block& block = chain_.MineBlock();
  ASSERT_EQ(block.transactions.size(), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(block.transactions[i].nonce, i);
    auto receipt = chain_.GetReceipt(hashes[i]);
    ASSERT_TRUE(receipt.ok());
    EXPECT_TRUE(receipt->success) << "nonce " << i;
  }
  EXPECT_EQ(chain_.GetNonce(alice_.EthAddress()), 3u);
}

TEST_F(BlockchainTest, GetCodeForFreshAddressIsStableEmptySingleton) {
  auto fresh = secp256k1::PrivateKey::FromSeed("fresh");
  auto fresh2 = secp256k1::PrivateKey::FromSeed("fresh2");
  const Bytes& code = chain_.GetCode(fresh.EthAddress());
  EXPECT_TRUE(code.empty());
  // Absent accounts all map to one function-local singleton, so the
  // reference stays valid (and identical) across calls and state changes.
  EXPECT_EQ(&code, &chain_.GetCode(fresh2.EthAddress()));
  ASSERT_TRUE(
      chain_.Execute(alice_, bob_.EthAddress(), U256(1), {}, 21'000).ok());
  EXPECT_TRUE(code.empty());
  EXPECT_EQ(&code, &chain_.GetCode(fresh.EthAddress()));
}

TEST_F(BlockchainTest, SstoreRefundCappedAtHalfGasUsed) {
  // Runtime stores calldata word 0 at slot 0:
  //   PUSH1 0 CALLDATALOAD PUSH1 0 SSTORE STOP = 60003560005500
  auto init = easm::Assemble(R"(
    PUSH1 0x07
    PUSH @runtime PUSH1 0x01 ADD
    PUSH1 0x00
    CODECOPY
    PUSH1 0x07 PUSH1 0x00 RETURN
    runtime: DB 0x60003560005500
  )");
  ASSERT_TRUE(init.ok());
  auto deploy = chain_.Execute(alice_, std::nullopt, U256(), *init, 500'000);
  ASSERT_TRUE(deploy.ok());
  ASSERT_TRUE(deploy->success);
  Address contract = deploy->contract_address;

  // Set slot 0 := 1 (zero -> non-zero, 20000 gas, no refund).
  Bytes set_one(32, 0);
  set_one[31] = 1;
  auto set_receipt =
      chain_.Execute(alice_, contract, U256(), set_one, 100'000);
  ASSERT_TRUE(set_receipt.ok());
  ASSERT_TRUE(set_receipt->success);
  EXPECT_EQ(chain_.GetStorage(contract, U256(0)), U256(1));

  // Clear slot 0 (non-zero -> zero): 15000 refund, but the Yellow Paper
  // caps refunds at gas_used / 2. Pre-refund gas:
  //   21000 intrinsic + 9 (PUSH1,CALLDATALOAD,PUSH1) + 5000 SSTORE = 26009
  // cap = 13004 < 15000, so gas_used = 26009 - 13004 = 13005.
  U256 before = chain_.GetBalance(alice_.EthAddress());
  auto clear_receipt = chain_.Execute(alice_, contract, U256(), {}, 100'000);
  ASSERT_TRUE(clear_receipt.ok());
  ASSERT_TRUE(clear_receipt->success);
  EXPECT_TRUE(chain_.GetStorage(contract, U256(0)).IsZero());
  EXPECT_EQ(clear_receipt->gas_used, 13'005u);
  // The capped (not full) refund is what the sender got back.
  EXPECT_EQ(chain_.GetBalance(alice_.EthAddress()),
            before - U256(clear_receipt->gas_used));
}

TEST_F(BlockchainTest, ExactlyOneRecoveryPerTransactionLifecycle) {
  obs::Registry* registry = obs::Registry::Global();
  if (registry == nullptr) {
    GTEST_SKIP() << "metrics disabled (ONOFF_METRICS=0)";
  }
  // Submit -> pool admission -> mining/apply used to recover the sender
  // three times; the memoized sender must collapse that to ONE ECDSA
  // recovery per transaction.
  constexpr int kTxCount = 3;
  uint64_t recover_before = registry->CounterValue("crypto.recover_ops");
  uint64_t base_nonce = chain_.GetNonce(alice_.EthAddress());
  std::array<Hash32, kTxCount> hashes;
  for (int i = 0; i < kTxCount; ++i) {
    Transaction tx;
    tx.nonce = base_nonce + i;  // consecutive nonces so all three pool up
    tx.gas_price = U256(1);
    tx.gas_limit = 21'000;
    tx.to = bob_.EthAddress();
    tx.value = U256(1);
    tx.Sign(alice_);
    auto hash = chain_.SubmitTransaction(tx);
    ASSERT_TRUE(hash.ok()) << hash.status().ToString();
    hashes[i] = *hash;
  }
  chain_.MineBlock();
  for (const Hash32& hash : hashes) {
    auto receipt = chain_.GetReceipt(hash);
    ASSERT_TRUE(receipt.ok());
    EXPECT_TRUE(receipt->success);
  }
  EXPECT_EQ(registry->CounterValue("crypto.recover_ops") - recover_before,
            uint64_t{kTxCount});
}

// chain.txs_deferred counts what a block left pending, not the stale
// entries the pool dropped while packing it.
TEST_F(BlockchainTest, StaleDropIsNotCountedAsDeferred) {
  obs::Registry* registry = obs::Registry::Global();
  if (registry == nullptr) {
    GTEST_SKIP() << "metrics disabled (ONOFF_METRICS=0)";
  }
  auto transfer = [this](uint64_t nonce, uint64_t value) {
    Transaction tx;
    tx.nonce = nonce;
    tx.gas_price = U256(1);
    tx.gas_limit = 21'000;
    tx.to = bob_.EthAddress();
    tx.value = U256(value);
    tx.Sign(alice_);
    return tx;
  };
  ASSERT_TRUE(chain_.SubmitTransaction(transfer(0, 1)).ok());
  ASSERT_EQ(chain_.MineBlock().transactions.size(), 1u);
  // Another nonce-0 transfer has another hash, so it is admitted, but it
  // can never be mined.
  ASSERT_TRUE(chain_.SubmitTransaction(transfer(0, 2)).ok());
  const uint64_t stale = registry->CounterValue("txpool.stale_dropped");
  const uint64_t deferred = registry->CounterValue("chain.txs_deferred");
  EXPECT_TRUE(chain_.MineBlock().transactions.empty());
  EXPECT_EQ(chain_.PendingCount(), 0u);
  EXPECT_EQ(registry->CounterValue("txpool.stale_dropped") - stale, 1u);
  EXPECT_EQ(registry->CounterValue("chain.txs_deferred") - deferred, 0u);
  // A gapped nonce stays pending: that is a deferral.
  ASSERT_TRUE(chain_.SubmitTransaction(transfer(2, 1)).ok());
  EXPECT_TRUE(chain_.MineBlock().transactions.empty());
  EXPECT_EQ(chain_.PendingCount(), 1u);
  EXPECT_EQ(registry->CounterValue("txpool.stale_dropped") - stale, 1u);
  EXPECT_EQ(registry->CounterValue("chain.txs_deferred") - deferred, 1u);
}

// Admission runs no analyzer: init code the analyzer rejects is admitted
// and mined like any other creation.
TEST_F(BlockchainTest, CreationWithLintFindingsIsAdmittedAndMined) {
  // PUSH1 0x04 JUMP PUSH1 0x5b STOP: the jump lands inside a PUSH
  // immediate, which the analyzer reports as an error.
  auto bad_init = FromHex("600456605b00");
  ASSERT_TRUE(bad_init.ok());
  auto bad = chain_.Execute(alice_, std::nullopt, U256(), *bad_init, 100'000);
  ASSERT_TRUE(bad.ok()) << bad.status().ToString();
  EXPECT_EQ(bad->block_number, chain_.Height());
  EXPECT_FALSE(bad->success);  // the jump is invalid at run time too

  contracts::BettingConfig config;
  config.alice = alice_.EthAddress();
  config.bob = bob_.EthAddress();
  config.deposit_amount = kEther;
  auto betting_init = contracts::BuildOnChainInit(config);
  ASSERT_TRUE(betting_init.ok());
  auto betting =
      chain_.Execute(alice_, std::nullopt, U256(), *betting_init, 2'000'000);
  ASSERT_TRUE(betting.ok()) << betting.status().ToString();
  EXPECT_TRUE(betting->success);
}

// Each pending transaction keeps its submitter's trace until it is mined,
// however many are pending: the context travels in the pool record, not in
// a bounded table of the tracer (which held 4 096 hashes and evicted the
// oldest).
TEST(BlockchainTraceTest, LargePoolMinesEveryTransactionUnderItsTrace) {
  constexpr size_t kTxs = 4097;
  trace::TracerConfig tracer_config;
  tracer_config.ring_capacity = 8 * kTxs;  // no span overwritten
  trace::Tracer tracer(tracer_config);
  struct Installed {
    explicit Installed(trace::Tracer* t)
        : previous(trace::Tracer::InstallGlobal(t)) {}
    ~Installed() { trace::Tracer::InstallGlobal(previous); }
    trace::Tracer* previous;
  } installed(&tracer);

  ChainConfig config;
  config.block_gas_limit = kTxs * 21'000;
  config.max_txs_per_block = kTxs;
  Blockchain chain(config);
  const auto alice = secp256k1::PrivateKey::FromSeed("trace-alice");
  chain.FundAccount(alice.EthAddress(), kEther);
  std::vector<Transaction> txs(kTxs);
  ThreadPool::Shared().ParallelFor(kTxs, [&](size_t i) {
    txs[i].nonce = i;
    txs[i].gas_price = U256(1);
    txs[i].gas_limit = 21'000;
    txs[i].to = Address{};
    txs[i].value = U256(1);
    txs[i].Sign(alice);
  });

  const trace::TraceContext root = tracer.StartTrace();
  {
    trace::ScopedContext submitter(root);
    for (const Result<Hash32>& result : chain.SubmitTransactions(txs)) {
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
  }
  ASSERT_EQ(chain.MineBlock().transactions.size(), kTxs);
  size_t applied = 0;
  for (const trace::Span& span : tracer.Snapshot()) {
    if (span.name == "tx.apply" && span.trace_id == root.trace_id) ++applied;
  }
  EXPECT_EQ(applied, kTxs);
}

}  // namespace
}  // namespace onoff::chain
