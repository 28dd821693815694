// The whole stack at once: the betting protocol running over the simulated
// P2P network. Alice and Bob interact with the producer node; two replica
// nodes validate every block by executing it against their own head; after
// settlement, anyone can audit the outcome from any replica — or from
// nothing but a header and proofs.
//
// Build & run:  ./build/examples/networked_bet

#include <cstdio>

#include "chain/network.h"
#include "onoff/protocol.h"

using namespace onoff;

int main() {
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  chain::GenesisAlloc alloc = {{alice.EthAddress(), contracts::Ether(10)},
                               {bob.EthAddress(), contracts::Ether(10)}};

  // One producer (the PoA authority), two verifying replicas.
  chain::Node producer("producer", chain::ChainConfig{}, alloc);
  chain::Node replica1("replica1", chain::ChainConfig{}, alloc);
  chain::Node replica2("replica2", chain::ChainConfig{}, alloc);
  chain::Network net;
  net.AddNode(&producer);
  net.AddNode(&replica1);
  net.AddNode(&replica2);

  // Run the paper's protocol against the producer's chain (a dispute run,
  // so every stage executes).
  core::MessageBus bus;
  contracts::OffchainConfig offchain;
  offchain.secret_alice = U256(0xa11ce);
  offchain.secret_bob = U256(0xb0b);
  offchain.reveal_iterations = 100;
  core::BettingProtocol protocol(&producer.chain(), &bus, alice, bob, offchain,
                                 contracts::Ether(1));
  core::Behavior dishonest;
  dishonest.admit_loss = false;
  auto report = protocol.Run(dishonest, dishonest);
  if (!report.ok()) {
    std::printf("protocol failed: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("protocol settled: %s (winner %s), producer height %llu\n",
              core::SettlementName(report->settlement),
              report->bob_won ? "bob" : "alice",
              static_cast<unsigned long long>(producer.Height()));

  // Gossip the produced history to the replicas; each replica executes each
  // block once on its own state and accepts it only if every header
  // commitment matches.
  Status sync1 = replica1.SyncFrom(producer.chain().blocks());
  Status sync2 = replica2.SyncFrom(producer.chain().blocks());
  std::printf("replica1 sync: %s (height %llu, rejected %zu)\n",
              sync1.ToString().c_str(),
              static_cast<unsigned long long>(replica1.Height()),
              replica1.rejected_blocks());
  std::printf("replica2 sync: %s (height %llu, rejected %zu)\n",
              sync2.ToString().c_str(),
              static_cast<unsigned long long>(replica2.Height()),
              replica2.rejected_blocks());
  if (!sync1.ok() || !sync2.ok()) return 1;

  // Every node agrees on the final state bit-for-bit.
  bool heads_match = replica1.HeadHash() == producer.HeadHash() &&
                     replica2.HeadHash() == producer.HeadHash();
  std::printf("all heads identical: %s\n", heads_match ? "yes" : "NO");

  // An auditor asks a *replica* (not the producer) about the settlement.
  Address contract = report->onchain_contract;
  U256 resolved = replica1.chain().GetStorage(
      contract, U256(contracts::betting_slots::kResolved));
  std::printf("replica1 reports contract resolved = %s, pot balance = %s\n",
              resolved.ToDecimal().c_str(),
              replica1.chain().GetBalance(contract).ToDecimal().c_str());

  // A byzantine producer cannot sneak a different history past the
  // replicas: flip one transferred wei and the block bounces.
  std::vector<chain::Block> forged = producer.chain().blocks();
  for (auto& block : forged) {
    if (!block.transactions.empty()) {
      block.transactions[0].value += U256(1);
      break;
    }
  }
  chain::Node fresh("fresh", chain::ChainConfig{}, alloc);
  Status bad = fresh.SyncFrom(forged);
  std::printf("forged history rejected by a fresh node: %s\n",
              bad.ok() ? "NO (!!)" : bad.ToString().c_str());
  return heads_match && !bad.ok() ? 0 : 1;
}
