// Table II reproduction: gas cost of the dispute-resolution extra functions.
//
//   paper (Kovan, Solidity 0.4.24):
//     deployVerifiedInstance()   225082 + cost of reveal()
//     returnDisputeResolution()  37745
//
// We measure the same two transactions on the simulated chain, sweeping the
// weight of reveal() (keccak-chain iterations) to expose the "+ reveal()"
// structure: the deploy cost is an affine function of the off-chain
// contract's size, and returnDisputeResolution grows linearly with reveal()
// because the miners re-execute it.

#include <cstdio>

#include "chain/blockchain.h"
#include "contracts/betting.h"
#include "crypto/secp256k1.h"
#include "obs/export.h"
#include "support/flags.h"

using namespace onoff;
using contracts::BettingConfig;
using contracts::Ether;
using contracts::OffchainConfig;
using secp256k1::PrivateKey;

namespace {

struct Measurement {
  uint64_t deploy_verified_instance_gas;
  uint64_t return_dispute_resolution_gas;
  size_t offchain_bytecode_bytes;
};

Measurement MeasureDispute(uint64_t reveal_iterations) {
  auto alice = PrivateKey::FromSeed("alice");
  auto bob = PrivateKey::FromSeed("bob");
  chain::Blockchain chain;
  chain.FundAccount(alice.EthAddress(), Ether(10));
  chain.FundAccount(bob.EthAddress(), Ether(10));

  uint64_t now = chain.Now();
  BettingConfig betting;
  betting.alice = alice.EthAddress();
  betting.bob = bob.EthAddress();
  betting.deposit_amount = Ether(1);
  betting.t1 = now + 100;
  betting.t2 = now + 200;
  betting.t3 = now + 300;

  OffchainConfig offchain;
  offchain.alice = alice.EthAddress();
  offchain.bob = bob.EthAddress();
  offchain.secret_alice = U256(0xa11ce);
  offchain.secret_bob = U256(0xb0b);
  offchain.reveal_iterations = reveal_iterations;

  auto onchain_init = contracts::BuildOnChainInit(betting);
  auto offchain_init = contracts::BuildOffChainInit(offchain);

  auto deploy = chain.Execute(alice, std::nullopt, U256(), *onchain_init,
                              4'000'000);
  Address onchain = deploy->contract_address;
  chain.Execute(alice, onchain, Ether(1), contracts::DepositCalldata(),
                300'000);
  chain.Execute(bob, onchain, Ether(1), contracts::DepositCalldata(), 300'000);
  chain.AdvanceTimeTo(betting.t3);  // the loser went silent

  Hash32 digest = Keccak256(*offchain_init);
  auto sig_a = secp256k1::Sign(digest, alice);
  auto sig_b = secp256k1::Sign(digest, bob);
  Bytes calldata = contracts::DeployVerifiedInstanceCalldata(
      *offchain_init, sig_a->v, sig_a->r, sig_a->s, sig_b->v, sig_b->r,
      sig_b->s);
  auto deploy_vi = chain.Execute(bob, onchain, U256(), std::move(calldata),
                                 7'000'000);
  Address instance = Address::FromWord(chain.GetStorage(
      onchain, U256(contracts::betting_slots::kDeployedAddr)));
  auto resolve =
      chain.Execute(bob, instance,
                    U256(), contracts::ReturnDisputeResolutionCalldata(onchain),
                    7'000'000);
  if (!deploy_vi->success || !resolve->success) {
    std::fprintf(stderr, "dispute path failed at iterations=%llu\n",
                 static_cast<unsigned long long>(reveal_iterations));
    std::exit(1);
  }
  return {deploy_vi->gas_used, resolve->gas_used, offchain_init->size()};
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      obs::JsonPathFromArgsOrExit(&argc, argv, "BENCH_table2_gas.json");
  flags::ExitOnLeftoverArgs(argc, argv, "[--json <path>|-]");
  std::printf("=== Table II: gas cost of the dispute extra functions ===\n\n");
  std::printf("Paper reports (Kovan, Solidity 0.4.24):\n");
  std::printf("  deployVerifiedInstance()   225082 + reveal()\n");
  std::printf("  returnDisputeResolution()  37745\n\n");

  std::printf("%-12s %16s %22s %26s\n", "reveal iters", "bytecode bytes",
              "deployVerifiedInstance", "returnDisputeResolution");
  obs::Json rows = obs::Json::Array();
  Measurement base{};
  for (uint64_t iters : {0ull, 10ull, 100ull, 1000ull, 5000ull, 20000ull}) {
    Measurement m = MeasureDispute(iters);
    if (iters == 0) base = m;
    std::printf("%-12llu %16zu %22llu %26llu\n",
                static_cast<unsigned long long>(iters),
                m.offchain_bytecode_bytes,
                static_cast<unsigned long long>(
                    m.deploy_verified_instance_gas),
                static_cast<unsigned long long>(
                    m.return_dispute_resolution_gas));
    rows.Push(obs::Json::Object()
                  .Set("reveal_iterations", obs::Json::Uint(iters))
                  .Set("offchain_bytecode_bytes",
                       obs::Json::Uint(m.offchain_bytecode_bytes))
                  .Set("deploy_verified_instance_gas",
                       obs::Json::Uint(m.deploy_verified_instance_gas))
                  .Set("return_dispute_resolution_gas",
                       obs::Json::Uint(m.return_dispute_resolution_gas)));
  }

  Measurement heavy = MeasureDispute(20000);
  std::printf("\nShape checks vs. the paper:\n");
  std::printf(
      "  deployVerifiedInstance is ~constant in reveal() weight: %llu -> "
      "%llu gas (delta %lld)\n",
      static_cast<unsigned long long>(base.deploy_verified_instance_gas),
      static_cast<unsigned long long>(heavy.deploy_verified_instance_gas),
      static_cast<long long>(heavy.deploy_verified_instance_gas) -
          static_cast<long long>(base.deploy_verified_instance_gas));
  std::printf(
      "  returnDisputeResolution re-executes reveal(): %llu -> %llu gas\n",
      static_cast<unsigned long long>(base.return_dispute_resolution_gas),
      static_cast<unsigned long long>(heavy.return_dispute_resolution_gas));
  std::printf(
      "  paper's fixed deploy cost 225082 vs ours %llu for a %zu-byte "
      "off-chain contract\n",
      static_cast<unsigned long long>(base.deploy_verified_instance_gas),
      base.offchain_bytecode_bytes);
  std::printf(
      "  paper's enforce cost 37745 vs ours %llu (light reveal)\n",
      static_cast<unsigned long long>(base.return_dispute_resolution_gas));
  std::printf(
      "\nNote: the paper measured a Solidity 0.4.24 contract; our codegen\n"
      "emits leaner bytecode, so absolute numbers sit below the paper's\n"
      "while the structure (txbase + calldata + 2x ecrecover + CREATE +\n"
      "200/byte code deposit, and enforce ~ tens of k) matches.\n");

  if (!json_path.empty()) {
    obs::Json results = obs::Json::Object();
    results
        .Set("paper_reference",
             obs::Json::Object()
                 .Set("deploy_verified_instance_gas", obs::Json::Uint(225082))
                 .Set("return_dispute_resolution_gas", obs::Json::Uint(37745)))
        .Set("rows", std::move(rows));
    Status st = obs::WriteBenchJson(json_path, "table2_gas",
                                    std::move(results));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
