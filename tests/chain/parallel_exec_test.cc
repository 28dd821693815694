// Serial-vs-parallel equivalence: the optimistic executor must produce
// byte-identical results to serial execution — same state roots, same
// receipt encodings, same gas — for conflict-free blocks, heavily
// conflicting blocks, randomized mixes of both, and blocks whose static
// access hints under-report.

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "chain/blockchain.h"
#include "chain/parallel_executor.h"
#include "easm/assembler.h"
#include "state/world_state.h"

namespace onoff::chain {
namespace {

const U256 kEther = U256(10).Exp(U256(18));

// Init code deploying a runtime that increments storage slot 0 on every
// call: PUSH1 0 SLOAD PUSH1 1 ADD PUSH1 0 SSTORE STOP.
Bytes IncrementContractInit() {
  auto init = easm::Assemble(R"(
    PUSH1 0x0a
    PUSH @runtime PUSH1 0x01 ADD
    PUSH1 0x00
    CODECOPY
    PUSH1 0x0a PUSH1 0x00 RETURN
    runtime: DB 0x60005460010160005500
  )");
  EXPECT_TRUE(init.ok());
  return init.ok() ? *init : Bytes{};
}

ChainConfig ParallelConfig() {
  ChainConfig config;
  config.exec_mode = ExecMode::kParallel;
  config.exec_workers = 4;
  // Every test block also cross-checks itself against a serial replay of
  // the pre-block state and aborts on divergence.
  config.assert_parallel_equivalence = true;
  return config;
}

Transaction SignedTx(const secp256k1::PrivateKey& key, uint64_t nonce,
                     std::optional<Address> to, const U256& value, Bytes data,
                     uint64_t gas_limit) {
  Transaction tx;
  tx.nonce = nonce;
  tx.gas_price = U256(1);
  tx.gas_limit = gas_limit;
  tx.to = to;
  tx.value = value;
  tx.data = std::move(data);
  tx.Sign(key);
  return tx;
}

// Mines the same transactions on both chains and checks the results are
// byte-identical: state roots, receipt encodings, block gas.
void SubmitMineAndCompare(Blockchain& serial, Blockchain& parallel,
                          const std::vector<Transaction>& txs) {
  for (const Transaction& tx : txs) {
    ASSERT_TRUE(serial.SubmitTransaction(tx).ok());
    ASSERT_TRUE(parallel.SubmitTransaction(tx).ok());
  }
  const Block& sb = serial.MineBlock();
  const Block& pb = parallel.MineBlock();
  ASSERT_EQ(sb.transactions.size(), txs.size());
  ASSERT_EQ(pb.transactions.size(), txs.size());
  EXPECT_EQ(sb.header.state_root, pb.header.state_root);
  EXPECT_EQ(sb.header.receipt_root, pb.header.receipt_root);
  EXPECT_EQ(sb.header.tx_root, pb.header.tx_root);
  EXPECT_EQ(sb.header.gas_used, pb.header.gas_used);
  for (const Transaction& tx : txs) {
    auto sr = serial.GetReceipt(tx.Hash());
    auto pr = parallel.GetReceipt(tx.Hash());
    ASSERT_TRUE(sr.ok());
    ASSERT_TRUE(pr.ok());
    EXPECT_EQ(sr->Encode(), pr->Encode());
  }
}

class ParallelExecTest : public ::testing::Test {
 protected:
  ParallelExecTest() : serial_(ChainConfig()), parallel_(ParallelConfig()) {
    for (int i = 0; i < 8; ++i) {
      keys_.push_back(
          secp256k1::PrivateKey::FromSeed("key-" + std::to_string(i)));
      serial_.FundAccount(keys_.back().EthAddress(), kEther * U256(100));
      parallel_.FundAccount(keys_.back().EthAddress(), kEther * U256(100));
    }
  }

  // Deploys the increment contract on both chains (same address on both).
  Address DeployIncrementContract(size_t key_index, uint64_t nonce) {
    Bytes init = IncrementContractInit();
    Transaction deploy = SignedTx(keys_[key_index], nonce, std::nullopt,
                                  U256(), init, 500'000);
    SubmitMineAndCompare(serial_, parallel_, {deploy});
    auto receipt = parallel_.GetReceipt(deploy.Hash());
    EXPECT_TRUE(receipt.ok() && receipt->success);
    return receipt->contract_address;
  }

  Blockchain serial_;
  Blockchain parallel_;
  std::vector<secp256k1::PrivateKey> keys_;
};

TEST_F(ParallelExecTest, DisjointTransfersCommitWithoutConflicts) {
  // Eight senders paying eight distinct fresh recipients: fully disjoint,
  // every speculation commits verbatim.
  std::vector<Transaction> txs;
  for (size_t i = 0; i < keys_.size(); ++i) {
    auto recipient =
        secp256k1::PrivateKey::FromSeed("recipient-" + std::to_string(i));
    txs.push_back(SignedTx(keys_[i], 0, recipient.EthAddress(),
                           U256(1'000 + i), {}, 21'000));
  }
  SubmitMineAndCompare(serial_, parallel_, txs);
}

TEST_F(ParallelExecTest, ConflictingStorageWritesMatchSerial) {
  // Every transaction increments the same storage slot of the same
  // contract: a fully serialized workload. Speculations all read the
  // pre-block counter, so all but the first conflict and re-execute; the
  // final counter must equal the transaction count.
  Address counter = DeployIncrementContract(0, 0);
  std::vector<Transaction> txs;
  for (size_t i = 0; i < keys_.size(); ++i) {
    uint64_t nonce = i == 0 ? 1 : 0;
    txs.push_back(SignedTx(keys_[i], nonce, counter, U256(), {}, 100'000));
  }
  SubmitMineAndCompare(serial_, parallel_, txs);
  EXPECT_EQ(parallel_.GetStorage(counter, U256(0)), U256(keys_.size()));
}

TEST_F(ParallelExecTest, SameSenderSequenceStaysInNonceOrder) {
  // One sender, five dependent transactions: nonce reads force each later
  // speculation into conflict + ordered re-execution.
  auto recipient = secp256k1::PrivateKey::FromSeed("recipient");
  std::vector<Transaction> txs;
  for (uint64_t nonce = 0; nonce < 5; ++nonce) {
    txs.push_back(SignedTx(keys_[0], nonce, recipient.EthAddress(),
                           U256(10), {}, 21'000));
  }
  SubmitMineAndCompare(serial_, parallel_, txs);
  EXPECT_EQ(parallel_.GetNonce(keys_[0].EthAddress()), 5u);
  EXPECT_EQ(parallel_.GetBalance(recipient.EthAddress()), U256(50));
}

TEST_F(ParallelExecTest, PayingTheCoinbaseDirectlyStillMatches) {
  // Transfers *to* the coinbase read/write the same balance the fee
  // credits land on — the nastiest interleaving for the commutative-fee
  // trick. (Default coinbase is the zero address.)
  std::vector<Transaction> txs;
  for (size_t i = 0; i < 4; ++i) {
    txs.push_back(SignedTx(keys_[i], 0, Address(), U256(7), {}, 21'000));
  }
  SubmitMineAndCompare(serial_, parallel_, txs);
}

TEST_F(ParallelExecTest, RandomizedWorkloadFuzz) {
  // Randomized serial-vs-parallel equivalence: a mix of value transfers
  // (some to shared hot recipients), counter increments against a shared
  // contract, and same-sender chains, across several blocks. Deterministic
  // seeds keep failures reproducible.
  Address counter = DeployIncrementContract(0, 0);
  std::mt19937 rng(20'260'808);
  std::vector<uint64_t> nonces(keys_.size(), 0);
  nonces[0] = 1;  // key 0 spent nonce 0 deploying the contract
  for (int block = 0; block < 6; ++block) {
    std::uniform_int_distribution<size_t> tx_count(2, 12);
    std::uniform_int_distribution<size_t> pick_key(0, keys_.size() - 1);
    std::uniform_int_distribution<int> pick_kind(0, 3);
    std::vector<Transaction> txs;
    size_t n = tx_count(rng);
    for (size_t t = 0; t < n; ++t) {
      size_t k = pick_key(rng);
      switch (pick_kind(rng)) {
        case 0:  // transfer to a fresh recipient (disjoint)
          txs.push_back(SignedTx(
              keys_[k], nonces[k]++,
              secp256k1::PrivateKey::FromSeed("fresh-" + std::to_string(block) +
                                              "-" + std::to_string(t))
                  .EthAddress(),
              U256(100), {}, 21'000));
          break;
        case 1:  // transfer to a shared hot recipient (balance conflicts)
          txs.push_back(SignedTx(keys_[k], nonces[k]++,
                                 keys_[(k + 1) % keys_.size()].EthAddress(),
                                 U256(55), {}, 21'000));
          break;
        case 2:  // increment the shared counter (storage conflicts)
          txs.push_back(
              SignedTx(keys_[k], nonces[k]++, counter, U256(), {}, 100'000));
          break;
        default:  // pay the coinbase (fee-path conflicts)
          txs.push_back(
              SignedTx(keys_[k], nonces[k]++, Address(), U256(3), {}, 21'000));
          break;
      }
    }
    SubmitMineAndCompare(serial_, parallel_, txs);
  }
  // Cross-check the full chains, not just per-block roots.
  ASSERT_EQ(serial_.blocks().size(), parallel_.blocks().size());
  for (size_t i = 0; i < serial_.blocks().size(); ++i) {
    EXPECT_EQ(serial_.blocks()[i].Hash(), parallel_.blocks()[i].Hash())
        << "block " << i;
  }
  EXPECT_EQ(serial_.TotalGasUsed(), parallel_.TotalGasUsed());
}

TEST(ParallelExecutorTest, UnderReportingHintsCannotChangeABlock) {
  // Two transactions each increment slot 1 of one account. Their hints are
  // known but name no slot, so they under-report what both executions
  // touch. The executor must still catch the second speculation's stale
  // read and re-execute it, exactly as if no hints had been passed.
  const Address account = secp256k1::PrivateKey::FromSeed("slot-owner")
                              .EthAddress();
  const ParallelExecutor::ExecFn increment = [&](state::StateView& view,
                                                  size_t /*index*/) {
    view.SetStorage(account, U256(1),
                    view.GetStorage(account, U256(1)) + U256(1));
    return Receipt{};
  };
  constexpr size_t kTxs = 2;

  state::WorldState serial;
  for (size_t i = 0; i < kTxs; ++i) {
    increment(serial, i);
    serial.ClearJournal();
  }

  std::vector<TxAccessHint> hints(kTxs);
  for (TxAccessHint& hint : hints) hint.known = true;
  state::WorldState parallel;
  ParallelExecStats stats;
  ParallelExecutor().ExecuteBlock(parallel, kTxs, increment, &stats, &hints);

  EXPECT_EQ(parallel.GetStorage(account, U256(1)), U256(2));
  EXPECT_EQ(parallel.StateRoot(), serial.StateRoot());
  EXPECT_EQ(stats.committed, 1u);
  EXPECT_EQ(stats.reexecuted, 1u);
  // Both speculations and the re-execution escaped their hints.
  EXPECT_EQ(stats.hint_violations, 3u);
}

}  // namespace
}  // namespace onoff::chain
