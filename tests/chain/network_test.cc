#include "chain/network.h"

#include <gtest/gtest.h>

#include "contracts/betting.h"  // Ether()
#include "easm/assembler.h"
#include "obs/metrics.h"
#include "sim/scheduler.h"
#include "sim/transport.h"

namespace onoff::chain {
namespace {

using contracts::Ether;
using secp256k1::PrivateKey;

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : alice_(PrivateKey::FromSeed("alice")), bob_(PrivateKey::FromSeed("bob")) {
    alloc_ = {{alice_.EthAddress(), Ether(100)},
              {bob_.EthAddress(), Ether(100)}};
    producer_ = std::make_unique<Node>("producer", ChainConfig{}, alloc_);
    for (int i = 0; i < 3; ++i) {
      replicas_.push_back(std::make_unique<Node>(
          "replica" + std::to_string(i), ChainConfig{}, alloc_));
    }
    net_.AddNode(producer_.get());
    for (auto& r : replicas_) net_.AddNode(r.get());
  }

  Transaction Transfer(uint64_t nonce, const U256& amount) {
    Transaction tx;
    tx.nonce = nonce;
    tx.gas_price = U256(1);
    tx.gas_limit = 21'000;
    tx.to = bob_.EthAddress();
    tx.value = amount;
    tx.Sign(alice_);
    return tx;
  }

  PrivateKey alice_;
  PrivateKey bob_;
  GenesisAlloc alloc_;
  std::unique_ptr<Node> producer_;
  std::vector<std::unique_ptr<Node>> replicas_;
  Network net_;
};

TEST_F(NetworkTest, IdenticalGenesis) {
  for (auto& r : replicas_) {
    EXPECT_EQ(r->HeadHash(), producer_->HeadHash());
  }
}

TEST_F(NetworkTest, ReplicasConvergeOnBroadcast) {
  ASSERT_TRUE(producer_->SubmitTransaction(Transfer(0, Ether(1))).ok());
  EXPECT_EQ(net_.ProduceAndBroadcast(producer_.get()), 3u);
  ASSERT_TRUE(producer_->SubmitTransaction(Transfer(1, Ether(2))).ok());
  EXPECT_EQ(net_.ProduceAndBroadcast(producer_.get()), 3u);

  for (auto& r : replicas_) {
    EXPECT_EQ(r->Height(), producer_->Height());
    EXPECT_EQ(r->HeadHash(), producer_->HeadHash());
    EXPECT_EQ(r->chain().GetBalance(bob_.EthAddress()),
              producer_->chain().GetBalance(bob_.EthAddress()));
    EXPECT_EQ(r->chain().state().StateRoot(),
              producer_->chain().state().StateRoot());
    EXPECT_EQ(r->rejected_blocks(), 0u);
  }
}

TEST_F(NetworkTest, TamperedBlockRejectedWithoutCorruption) {
  ASSERT_TRUE(producer_->SubmitTransaction(Transfer(0, Ether(1))).ok());
  Block block = producer_->ProduceBlock();
  // A byzantine producer inflates the transfer before gossiping.
  Block forged = block;
  forged.transactions[0].value = Ether(50);
  EXPECT_EQ(net_.BroadcastBlock(producer_.get(), forged), 0u);
  for (auto& r : replicas_) {
    EXPECT_EQ(r->Height(), 0u);
    EXPECT_EQ(r->rejected_blocks(), 1u);
    EXPECT_EQ(r->chain().GetBalance(bob_.EthAddress()), Ether(100));
  }
  // The honest block still goes through afterwards.
  EXPECT_EQ(net_.BroadcastBlock(producer_.get(), block), 3u);
  for (auto& r : replicas_) {
    EXPECT_EQ(r->HeadHash(), producer_->HeadHash());
  }
}

TEST_F(NetworkTest, ForgedStateRootRejected) {
  Block block = producer_->ProduceBlock();
  Block forged = block;
  forged.header.state_root[5] ^= 0x42;
  EXPECT_EQ(net_.BroadcastBlock(producer_.get(), forged), 0u);
}

TEST_F(NetworkTest, LateJoinerSyncsFromHistory) {
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(producer_->SubmitTransaction(Transfer(i, Ether(1))).ok());
    net_.ProduceAndBroadcast(producer_.get());
  }
  Node late("latecomer", ChainConfig{}, alloc_);
  Status st = late.SyncFrom(producer_->chain().blocks());
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(late.Height(), producer_->Height());
  EXPECT_EQ(late.HeadHash(), producer_->HeadHash());
  EXPECT_EQ(late.chain().GetBalance(bob_.EthAddress()), Ether(104));
}

TEST_F(NetworkTest, ContractStatePropagates) {
  // Deploy a contract through the network and confirm every replica can
  // serve the same storage proofs.
  auto init = easm::Assemble(R"(
    PUSH1 0x06
    PUSH @runtime PUSH1 0x01 ADD
    PUSH1 0x00
    CODECOPY
    PUSH1 0x06 PUSH1 0x00 RETURN
    runtime: DB 0x602a60005500
  )");
  ASSERT_TRUE(init.ok());
  Transaction deploy;
  deploy.nonce = 0;
  deploy.gas_price = U256(1);
  deploy.gas_limit = 500'000;
  deploy.to = std::nullopt;
  deploy.data = *init;
  deploy.Sign(alice_);
  ASSERT_TRUE(producer_->SubmitTransaction(deploy).ok());
  ASSERT_EQ(net_.ProduceAndBroadcast(producer_.get()), 3u);
  Address contract =
      evm::Evm::ContractAddress(alice_.EthAddress(), 0);
  Transaction call;
  call.nonce = 1;
  call.gas_price = U256(1);
  call.gas_limit = 100'000;
  call.to = contract;
  call.Sign(alice_);
  ASSERT_TRUE(producer_->SubmitTransaction(call).ok());
  ASSERT_EQ(net_.ProduceAndBroadcast(producer_.get()), 3u);
  for (auto& r : replicas_) {
    EXPECT_EQ(r->chain().GetStorage(contract, U256(0)), U256(42));
    EXPECT_EQ(r->chain().GetCode(contract).size(), 6u);
  }
}

TEST_F(NetworkTest, SimTransportDefersGossipUntilSchedulerRuns) {
  sim::Scheduler sched;
  sim::SimTransport transport(&sched, 42);
  sim::LinkConfig cfg;
  cfg.latency_ms = 80;
  transport.SetDefaultLink(cfg);
  net_.SetTransport(&transport);

  ASSERT_TRUE(producer_->SubmitTransaction(Transfer(0, Ether(1))).ok());
  net_.ProduceAndBroadcast(producer_.get());
  // Nothing has arrived yet: the blocks are on the wire.
  for (auto& r : replicas_) EXPECT_EQ(r->Height(), 0u);
  sched.RunAll();
  for (auto& r : replicas_) {
    EXPECT_EQ(r->Height(), 1u);
    EXPECT_EQ(r->HeadHash(), producer_->HeadHash());
  }
  EXPECT_EQ(transport.stats().delivered, 3u);
  EXPECT_EQ(sched.NowMs(), 80u);
}

TEST_F(NetworkTest, TamperedBlockOverSimTransportRejectedWithoutCorruption) {
  sim::Scheduler sched;
  sim::SimTransport transport(&sched, 42);
  net_.SetTransport(&transport);

  ASSERT_TRUE(producer_->SubmitTransaction(Transfer(0, Ether(1))).ok());
  Block block = producer_->ProduceBlock();
  Block forged = block;
  forged.transactions[0].value = Ether(50);
  net_.BroadcastBlock(producer_.get(), forged);
  sched.RunAll();
  for (auto& r : replicas_) {
    EXPECT_EQ(r->Height(), 0u);
    EXPECT_EQ(r->rejected_blocks(), 1u);
    EXPECT_EQ(r->chain().GetBalance(bob_.EthAddress()), Ether(100));
  }
  net_.BroadcastBlock(producer_.get(), block);
  sched.RunAll();
  for (auto& r : replicas_) {
    EXPECT_EQ(r->HeadHash(), producer_->HeadHash());
  }
}

TEST_F(NetworkTest, CrashedReplicaCatchesUpViaSyncFrom) {
  sim::Scheduler sched;
  sim::SimTransport transport(&sched, 42);
  net_.SetTransport(&transport);
  transport.Crash("replica0");

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(producer_->SubmitTransaction(Transfer(i, Ether(1))).ok());
    net_.ProduceAndBroadcast(producer_.get());
    sched.RunAll();
  }
  EXPECT_EQ(replicas_[0]->Height(), 0u);  // missed every block
  EXPECT_EQ(replicas_[1]->Height(), 3u);

  transport.Restart("replica0");
  auto applied = net_.CatchUp(replicas_[0].get(), *producer_);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, 3u);
  EXPECT_EQ(replicas_[0]->HeadHash(), producer_->HeadHash());
  // A second catch-up finds nothing to apply.
  applied = net_.CatchUp(replicas_[0].get(), *producer_);
  ASSERT_TRUE(applied.ok());
  EXPECT_EQ(*applied, 0u);
}

TEST_F(NetworkTest, SameSeedRunsAreIdentical) {
  // The determinism contract: identical seeds replay identical runs —
  // same head hashes, same heights, same transport stats.
  auto run = [this](uint64_t seed) {
    GenesisAlloc alloc = alloc_;
    Node producer("producer", ChainConfig{}, alloc);
    std::vector<std::unique_ptr<Node>> replicas;
    Network net;
    net.AddNode(&producer);
    for (int i = 0; i < 3; ++i) {
      replicas.push_back(std::make_unique<Node>("replica" + std::to_string(i),
                                                ChainConfig{}, alloc));
      net.AddNode(replicas.back().get());
    }
    sim::Scheduler sched;
    sim::SimTransport transport(&sched, seed);
    sim::LinkConfig cfg;
    cfg.latency_ms = 40;
    cfg.jitter_ms = 60;
    cfg.loss = 0.3;
    transport.SetDefaultLink(cfg);
    net.SetTransport(&transport);
    for (int i = 0; i < 5; ++i) {
      Transaction tx = Transfer(i, Ether(1));
      EXPECT_TRUE(producer.SubmitTransaction(tx).ok());
      net.ProduceAndBroadcast(&producer);
      sched.RunAll();
    }
    struct Outcome {
      std::vector<uint64_t> heights;
      std::vector<Hash32> heads;
      sim::SimTransport::Stats stats;
      uint64_t clock;
    } out;
    for (auto& r : replicas) {
      out.heights.push_back(r->Height());
      out.heads.push_back(r->HeadHash());
    }
    out.stats = transport.stats();
    out.clock = sched.NowMs();
    return out;
  };
  auto a = run(1337), b = run(1337), c = run(7331);
  EXPECT_EQ(a.heights, b.heights);
  EXPECT_EQ(a.heads, b.heads);
  EXPECT_EQ(a.clock, b.clock);
  EXPECT_EQ(a.stats.sent, b.stats.sent);
  EXPECT_EQ(a.stats.delivered, b.stats.delivered);
  EXPECT_EQ(a.stats.dropped_loss, b.stats.dropped_loss);
  EXPECT_EQ(a.stats.delay_ms_sum, b.stats.delay_ms_sum);
  // With 30% loss some replica must have missed at least one block in one
  // of the seeds; the two seeds should not produce identical traffic.
  EXPECT_NE(a.stats.delay_ms_sum, c.stats.delay_ms_sum);
}


uint64_t CounterValue(const char* name) {
  obs::Counter* counter = obs::GetCounterOrNull(name);
  return counter != nullptr ? counter->Value() : 0;
}

Transaction Signed(const PrivateKey& key, uint64_t nonce,
                   std::optional<Address> to, const U256& value,
                   uint64_t gas_limit, Bytes data = {}) {
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

TEST_F(NetworkTest, CatchUpExecutesEachBlockOnce) {
  constexpr uint64_t kBlocks = 5;
  for (uint64_t i = 0; i < kBlocks; ++i) {
    ASSERT_TRUE(producer_->SubmitTransaction(Transfer(i, Ether(1))).ok());
    producer_->ProduceBlock();
  }
  const bool counted = obs::Registry::Global() != nullptr;
  const uint64_t verified = CounterValue("validator.chains_verified");

  uint64_t mined = CounterValue("chain.blocks_mined");
  Node late("latecomer", ChainConfig{}, alloc_);
  Status st = late.SyncFrom(producer_->chain().blocks());
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(late.HeadHash(), producer_->HeadHash());
  if (counted) {
    EXPECT_EQ(CounterValue("chain.blocks_mined") - mined, kBlocks);
  }

  mined = CounterValue("chain.blocks_mined");
  auto applied = net_.CatchUp(replicas_[0].get(), *producer_);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(*applied, kBlocks);
  EXPECT_EQ(replicas_[0]->HeadHash(), producer_->HeadHash());
  if (counted) {
    EXPECT_EQ(CounterValue("chain.blocks_mined") - mined, kBlocks);
    EXPECT_EQ(CounterValue("validator.chains_verified"), verified);
  }
}

TEST_F(NetworkTest, ReplicaPoolStaysOutOfImportedBlocks) {
  // replicas_[0] holds an unrelated pending transaction of its own;
  // replicas_[1] already holds a copy of the block's transaction, which the
  // import drops from its pool.
  Transaction own = Signed(bob_, 0, alice_.EthAddress(), Ether(3), 21'000);
  ASSERT_TRUE(replicas_[0]->SubmitTransaction(own).ok());
  Transaction tx = Transfer(0, Ether(1));
  ASSERT_TRUE(replicas_[1]->SubmitTransaction(tx).ok());
  ASSERT_TRUE(producer_->SubmitTransaction(tx).ok());
  EXPECT_EQ(net_.ProduceAndBroadcast(producer_.get()), 3u);
  for (size_t i = 0; i < 2; ++i) {
    SCOPED_TRACE("replica " + std::to_string(i));
    EXPECT_EQ(replicas_[i]->Height(), 1u);
    EXPECT_EQ(replicas_[i]->HeadHash(), producer_->HeadHash());
    EXPECT_EQ(replicas_[i]->rejected_blocks(), 0u);
  }
  EXPECT_EQ(replicas_[0]->chain().PendingCount(), 1u);
  EXPECT_EQ(replicas_[0]->chain().GetReceipt(own.Hash()).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(replicas_[1]->chain().PendingCount(), 0u);
  // The mined transaction is remembered as taken, as on the producer.
  EXPECT_EQ(replicas_[0]->SubmitTransaction(tx).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(NetworkTest, RejectedImportLeavesNodeUnchanged) {
  // Init code that writes storage while deploying a contract whose runtime
  // stores 42 at slot 0.
  auto init = easm::Assemble(R"(
    PUSH1 0x07 PUSH1 0x01 SSTORE
    PUSH1 0x06
    PUSH @runtime PUSH1 0x01 ADD
    PUSH1 0x00
    CODECOPY
    PUSH1 0x06 PUSH1 0x00 RETURN
    runtime: DB 0x602a60005500
  )");
  ASSERT_TRUE(init.ok());
  const Address contract = evm::Evm::ContractAddress(alice_.EthAddress(), 1);

  for (bool parallel : {false, true}) {
    SCOPED_TRACE(parallel ? "parallel" : "serial");
    ChainConfig config;
    config.max_txs_per_block = 4;
    config.audit_invariants = "all";
    config.persist_state = true;
    if (parallel) {
      config.exec_mode = ExecMode::kParallel;
      config.assert_parallel_equivalence = true;
    }
    Node producer("producer", config, alloc_);
    Node replica("replica", config, alloc_);
    ASSERT_TRUE(producer.SubmitTransaction(Transfer(0, Ether(1))).ok());
    const Block head = producer.ProduceBlock();
    ASSERT_TRUE(replica.AcceptBlock(head).ok());
    Transaction own = Signed(bob_, 0, alice_.EthAddress(), Ether(3), 21'000);
    ASSERT_TRUE(replica.SubmitTransaction(own).ok());

    ASSERT_TRUE(producer
                    .SubmitTransaction(
                        Signed(alice_, 1, std::nullopt, U256(), 500'000, *init))
                    .ok());
    ASSERT_TRUE(producer.SubmitTransaction(Transfer(2, Ether(1))).ok());
    const Block good = producer.ProduceBlock();
    ASSERT_EQ(good.transactions.size(), 2u);

    const Blockchain& chain = replica.chain();
    const size_t retained = chain.node_store()->retained_roots();
    const size_t live_nodes = chain.node_store()->live_nodes();
    const U256 alice = chain.GetBalance(alice_.EthAddress());
    const U256 bob = chain.GetBalance(bob_.EthAddress());

    auto forge = [&](const char* want, auto&& mutate) {
      SCOPED_TRACE(want);
      Block forged = good;
      mutate(forged);
      const size_t rejected = replica.rejected_blocks();
      Status st = replica.AcceptBlock(forged);
      EXPECT_EQ(st.code(), StatusCode::kVerificationFailed) << st.ToString();
      EXPECT_EQ(st.message(), std::string("block 2: ") + want);
      EXPECT_EQ(replica.rejected_blocks(), rejected + 1);
      EXPECT_EQ(replica.Height(), 1u);
      EXPECT_EQ(replica.HeadHash(), head.Hash());
      EXPECT_EQ(chain.state().StateRoot(), head.header.state_root);
      EXPECT_EQ(chain.GetBalance(alice_.EthAddress()), alice);
      EXPECT_EQ(chain.GetBalance(bob_.EthAddress()), bob);
      EXPECT_FALSE(chain.state().Exists(contract));
      EXPECT_EQ(chain.PendingCount(), 1u);
      for (const Transaction& tx : forged.transactions) {
        if (tx.Hash() == head.transactions[0].Hash()) continue;
        EXPECT_EQ(chain.GetReceipt(tx.Hash()).status().code(),
                  StatusCode::kNotFound);
      }
      EXPECT_EQ(chain.node_store()->retained_roots(), retained);
      EXPECT_EQ(chain.node_store()->live_nodes(), live_nodes);
    };

    // Re-signing is beyond a byzantine producer: the inflated transfer
    // recovers to an unfunded sender whose nonce run it cannot start.
    forge("transaction count diverged",
          [](Block& b) { b.transactions[1].value = Ether(50); });
    forge("state root mismatch",
          [](Block& b) { b.header.state_root[5] ^= 0x42; });
    forge("receipt root mismatch",
          [](Block& b) { b.header.receipt_root[0] ^= 0x01; });
    forge("parent hash mismatch",
          [](Block& b) { b.header.parent_hash[0] ^= 0x01; });
    forge("bad block number", [](Block& b) { b.header.number = 3; });
    forge("timestamp went backwards",
          [&](Block& b) { b.header.timestamp = head.header.timestamp - 1; });
    // Not before the head, but before the replica's clock: the replica
    // seals at its own clock, so only the header hash differs.
    ASSERT_GT(good.header.timestamp, head.header.timestamp + 1);
    forge("header hash mismatch",
          [&](Block& b) { b.header.timestamp = head.header.timestamp + 1; });
    forge("transaction count diverged", [&](Block& b) {
      for (uint64_t nonce = 3; nonce < 6; ++nonce) {
        b.transactions.push_back(Transfer(nonce, U256(1)));
      }
    });
    forge("transaction count diverged", [&](Block& b) {
      for (uint64_t nonce = 3; nonce < 5; ++nonce) {
        b.transactions.push_back(
            Signed(alice_, nonce, bob_.EthAddress(), U256(1), 4'000'000));
      }
    });
    forge("transaction count diverged",
          [&](Block& b) { b.transactions.push_back(Transfer(4, U256(1))); });
    forge("transaction rejected on replay: transaction already in pool",
          [](Block& b) { b.transactions.push_back(b.transactions[1]); });
    forge("transaction count diverged", [&](Block& b) {
      b.transactions.push_back(head.transactions[0]);
    });
    // Everything but the header's gas matches, so the deployment and its
    // storage write ran to the end before the block was rolled back.
    forge("gas used mismatch", [](Block& b) { ++b.header.gas_used; });

    Status st = replica.AcceptBlock(good);
    ASSERT_TRUE(st.ok()) << st.ToString();
    EXPECT_EQ(replica.HeadHash(), producer.HeadHash());
    EXPECT_EQ(chain.GetStorage(contract, U256(1)), U256(7));
    EXPECT_EQ(chain.GetCode(contract).size(), 6u);
    EXPECT_EQ(chain.PendingCount(), 1u);
    EXPECT_EQ(chain.node_store()->retained_roots(), retained + 1);
    ASSERT_NE(chain.auditor(), nullptr);
    EXPECT_EQ(chain.auditor()->violations(), 0u);
  }
}

}  // namespace
}  // namespace onoff::chain
