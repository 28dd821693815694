// The two-party bet the paper-table benches run: participants seeded
// "alice" and "bob", 10 ether each, secrets 0xa11ce and 0xb0b and a
// 1-ether deposit. Benches vary only reveal()'s weight and the two
// behaviours, or deploy the off-chain contract publicly to price the
// all-on-chain model. Both helpers print the failing status to stderr and
// exit 1, so a bench's table never shows a number from a broken run.

#ifndef ONOFFCHAIN_BENCH_BET_RUN_H_
#define ONOFFCHAIN_BENCH_BET_RUN_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "chain/blockchain.h"
#include "contracts/betting.h"
#include "onoff/protocol.h"

namespace onoff::bench {

[[noreturn]] inline void ExitWith(const char* what, const Status& status) {
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

inline contracts::OffchainConfig BetOffchainConfig(
    uint64_t reveal_iterations) {
  contracts::OffchainConfig offchain;
  offchain.secret_alice = U256(0xa11ce);
  offchain.secret_bob = U256(0xb0b);
  offchain.reveal_iterations = reveal_iterations;
  return offchain;
}

// Runs the bet through BettingProtocol on a fresh chain.
inline core::ProtocolReport RunBet(uint64_t reveal_iterations,
                                   const core::Behavior& alice_behavior,
                                   const core::Behavior& bob_behavior) {
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  chain::Blockchain chain;
  chain.FundAccount(alice.EthAddress(), contracts::Ether(10));
  chain.FundAccount(bob.EthAddress(), contracts::Ether(10));
  core::MessageBus bus;
  core::BettingProtocol protocol(&chain, &bus, alice, bob,
                                 BetOffchainConfig(reveal_iterations),
                                 contracts::Ether(1));
  auto report = protocol.Run(alice_behavior, bob_behavior);
  if (!report.ok()) ExitWith("protocol", report.status());
  return *report;
}

// The all-on-chain model's first step: alice, holding 10 ether on a fresh
// chain, deploys the off-chain contract's init code publicly.
struct PublicOffchainDeploy {
  explicit PublicOffchainDeploy(uint64_t reveal_iterations)
      : alice(secp256k1::PrivateKey::FromSeed("alice")) {
    chain.FundAccount(alice.EthAddress(), contracts::Ether(10));
    contracts::OffchainConfig offchain = BetOffchainConfig(reveal_iterations);
    offchain.alice = alice.EthAddress();
    offchain.bob = secp256k1::PrivateKey::FromSeed("bob").EthAddress();
    auto built = contracts::BuildOffChainInit(offchain);
    if (!built.ok()) ExitWith("building the off-chain init", built.status());
    init = *built;
    auto deployed =
        chain.Execute(alice, std::nullopt, U256(), init, 8'000'000);
    if (!deployed.ok()) ExitWith("the public deploy", deployed.status());
    if (!deployed->success) {
      ExitWith("the public deploy", Status::ExecutionReverted("no code"));
    }
    receipt = *deployed;
  }

  secp256k1::PrivateKey alice;
  chain::Blockchain chain;
  Bytes init;
  chain::Receipt receipt;
};

}  // namespace onoff::bench

#endif  // ONOFFCHAIN_BENCH_BET_RUN_H_
