// Soundness of the static gas bounds: for every function the protocol
// driver actually executes on the interpreter, the analyzer's worst-case
// bound must cover the gas the receipt reports. This is the acceptance test
// for the machine-verified light/heavy classification — a bound that ever
// undershoots reality would let a "light" function blow the block gas limit
// in production.

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "abi/abi.h"
#include "analysis/analyzer.h"
#include "chain/blockchain.h"
#include "contracts/betting.h"
#include "contracts/synthetic.h"
#include "crypto/keccak.h"
#include "crypto/secp256k1.h"

namespace onoff::analysis {
namespace {

using chain::Blockchain;
using contracts::Ether;
using secp256k1::PrivateKey;

// Execution gas as the analyzer models it: the receipt total minus the
// intrinsic (21000 + calldata + creation) charge. Refunds can push the
// receipt below the intrinsic cost, in which case execution is covered by
// any bound.
uint64_t MeasuredExecGas(const chain::Receipt& receipt, const Bytes& data,
                         bool is_create) {
  chain::Transaction probe;
  if (!is_create) probe.to = Address();
  probe.data = data;
  uint64_t intrinsic = probe.IntrinsicGas();
  return receipt.gas_used > intrinsic ? receipt.gas_used - intrinsic : 0;
}

class AnalysisSoundnessTest : public ::testing::Test {
 protected:
  AnalysisSoundnessTest()
      : alice_(PrivateKey::FromSeed("alice")),
        bob_(PrivateKey::FromSeed("bob")) {
    chain_.FundAccount(alice_.EthAddress(), Ether(50));
    chain_.FundAccount(bob_.EthAddress(), Ether(50));

    uint64_t now = chain_.Now();
    config_.alice = alice_.EthAddress();
    config_.bob = bob_.EthAddress();
    config_.deposit_amount = Ether(1);
    config_.t1 = now + 100;
    config_.t2 = now + 200;
    config_.t3 = now + 300;

    offchain_.alice = alice_.EthAddress();
    offchain_.bob = bob_.EthAddress();
    offchain_.secret_alice = U256(0xa11ce);
    offchain_.secret_bob = U256(0xb0b);
    offchain_.reveal_iterations = 10;
  }

  // Executes a call and asserts the dispatch-recovered bound for the
  // selector covers what the interpreter actually charged.
  chain::Receipt CallCovered(const AnalysisReport& report,
                             const PrivateKey& from, const Address& to,
                             const Bytes& calldata, const U256& value = U256(),
                             uint64_t gas = 3'000'000) {
    auto receipt = chain_.Execute(from, to, value, calldata, gas);
    EXPECT_TRUE(receipt.ok()) << receipt.status().ToString();
    if (!receipt.ok()) return chain::Receipt{};
    EXPECT_TRUE(receipt->success);
    EXPECT_GE(calldata.size(), 4u);
    std::optional<uint32_t> selector = abi::SelectorWord(calldata);
    const FunctionReport* fn = nullptr;
    for (const FunctionReport& f : report.functions) {
      if (f.selector == selector) fn = &f;
    }
    EXPECT_NE(fn, nullptr) << "selector not recovered from dispatch";
    if (fn != nullptr) {
      uint64_t measured = MeasuredExecGas(*receipt, calldata, false);
      EXPECT_TRUE(fn->gas_bound.Covers(measured))
          << fn->name << ": static bound " << fn->gas_bound.ToString()
          << " < measured " << measured;
    }
    return *receipt;
  }

  // Deploys init code and asserts DeployGasBound covers the receipt.
  Address DeployCovered(const Bytes& init, const AnalysisOptions& options) {
    DeploymentReport report = AnalyzeDeployment(init, options);
    EXPECT_FALSE(report.HasErrors());
    auto receipt = chain_.Execute(alice_, std::nullopt, U256(), init,
                                  6'000'000);
    EXPECT_TRUE(receipt.ok()) << receipt.status().ToString();
    if (!receipt.ok()) return Address();
    EXPECT_TRUE(receipt->success);
    uint64_t measured = MeasuredExecGas(*receipt, init, true);
    EXPECT_TRUE(report.DeployGasBound().Covers(measured))
        << "deploy bound " << report.DeployGasBound().ToString()
        << " < measured " << measured;
    return receipt->contract_address;
  }

  Result<AnalysisReport> AnalyzeRuntime(Result<Bytes> runtime,
                                        const AnalysisOptions& options = {}) {
    ONOFF_RETURN_NOT_OK(runtime.status());
    AnalysisReport report = AnalyzeProgram(*runtime, options);
    if (report.HasErrors()) {
      return Status::AnalysisRejected(report.FirstError());
    }
    return report;
  }

  Blockchain chain_;
  PrivateKey alice_;
  PrivateKey bob_;
  contracts::BettingConfig config_;
  contracts::OffchainConfig offchain_;
};

TEST_F(AnalysisSoundnessTest, BettingHonestPathWithinStaticBounds) {
  auto report = AnalyzeRuntime(contracts::BuildOnChainRuntime(config_));
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  auto init = contracts::BuildOnChainInit(config_);
  ASSERT_TRUE(init.ok());
  Address contract = DeployCovered(*init, {});

  CallCovered(*report, alice_, contract, contracts::DepositCalldata(),
              Ether(1));
  CallCovered(*report, bob_, contract, contracts::DepositCalldata(), Ether(1));
  chain_.AdvanceTimeTo(config_.t2);
  CallCovered(*report, alice_, contract, contracts::ReassignCalldata());
}

TEST_F(AnalysisSoundnessTest, BettingRefundPathsWithinStaticBounds) {
  auto report = AnalyzeRuntime(contracts::BuildOnChainRuntime(config_));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto init = contracts::BuildOnChainInit(config_);
  ASSERT_TRUE(init.ok());
  Address contract = DeployCovered(*init, {});

  CallCovered(*report, alice_, contract, contracts::DepositCalldata(),
              Ether(1));
  CallCovered(*report, alice_, contract, contracts::RefundRoundOneCalldata());
  // Deposit again so round two has something to refund.
  CallCovered(*report, alice_, contract, contracts::DepositCalldata(),
              Ether(1));
  chain_.AdvanceTimeTo(config_.t1);
  CallCovered(*report, alice_, contract, contracts::RefundRoundTwoCalldata());
}

TEST_F(AnalysisSoundnessTest, BettingDisputePathWithinStaticBounds) {
  auto onchain = AnalyzeRuntime(contracts::BuildOnChainRuntime(config_));
  ASSERT_TRUE(onchain.ok()) << onchain.status().ToString();
  auto offchain = AnalyzeRuntime(contracts::BuildOffChainRuntime(offchain_));
  ASSERT_TRUE(offchain.ok()) << offchain.status().ToString();

  auto init = contracts::BuildOnChainInit(config_);
  ASSERT_TRUE(init.ok());
  Address contract = DeployCovered(*init, {});
  CallCovered(*onchain, alice_, contract, contracts::DepositCalldata(),
              Ether(1));
  CallCovered(*onchain, bob_, contract, contracts::DepositCalldata(),
              Ether(1));
  chain_.AdvanceTimeTo(config_.t3);

  auto offchain_init = contracts::BuildOffChainInit(offchain_);
  ASSERT_TRUE(offchain_init.ok());
  Hash32 digest = Keccak256(*offchain_init);
  auto sig_a = secp256k1::Sign(digest, alice_);
  auto sig_b = secp256k1::Sign(digest, bob_);
  ASSERT_TRUE(sig_a.ok() && sig_b.ok());
  Bytes dispute = contracts::DeployVerifiedInstanceCalldata(
      *offchain_init, sig_a->v, sig_a->r, sig_a->s, sig_b->v, sig_b->r,
      sig_b->s);
  // deployVerifiedInstance CREATEs: its static bound is ⊤, which trivially
  // covers — the point is that the analyzer never *under*-reports it as
  // bounded.
  chain::Receipt dispute_receipt =
      CallCovered(*onchain, bob_, contract, dispute, U256(), 6'000'000);
  Address instance = Address::FromWord(
      chain_.GetStorage(contract, U256(contracts::betting_slots::kDeployedAddr)));
  ASSERT_FALSE(instance.IsZero());
  EXPECT_GT(dispute_receipt.gas_used, 0u);

  CallCovered(*offchain, bob_, instance,
              contracts::ReturnDisputeResolutionCalldata(contract));
  EXPECT_EQ(chain_.GetStorage(contract,
                              U256(contracts::betting_slots::kResolved)),
            U256(1));
}

TEST_F(AnalysisSoundnessTest, BettingClassificationMachineChecked) {
  // The analyzer agrees with the paper's classification: every on-chain
  // entry point except the CREATE-ing dispute weapon is bounded under the
  // block gas limit, and the off-chain reveal logic is pure (cannot leak
  // private inputs into state).
  auto onchain = AnalyzeRuntime(contracts::BuildOnChainRuntime(config_));
  ASSERT_TRUE(onchain.ok()) << onchain.status().ToString();
  std::optional<uint32_t> deploy_selector =
      abi::SelectorWord(contracts::DeployVerifiedInstanceCalldata(
          Bytes{}, 0, U256(), U256(), 0, U256(), U256()));
  ASSERT_FALSE(onchain->functions.empty());
  for (const FunctionReport& f : onchain->functions) {
    if (f.selector == deploy_selector) {
      EXPECT_FALSE(f.gas_bound.bounded);
      continue;
    }
    EXPECT_TRUE(f.gas_bound.bounded) << f.name;
    EXPECT_LT(f.gas_bound.gas, 8'000'000u) << f.name;
  }

  auto offchain = AnalyzeRuntime(contracts::BuildOffChainRuntime(offchain_));
  ASSERT_TRUE(offchain.ok()) << offchain.status().ToString();
  std::optional<uint32_t> winner_selector =
      abi::SelectorWord(contracts::GetWinnerCalldata());
  bool found = false;
  for (const FunctionReport& f : offchain->functions) {
    if (f.selector != winner_selector) continue;
    found = true;
    // The heavy reveal loop is (correctly) unbounded and must not touch
    // state: that is the privacy guarantee the signature endorses.
    EXPECT_TRUE(f.has_loop);
    EXPECT_EQ(f.effects & effect::kStateLeakMask, 0u);
  }
  EXPECT_TRUE(found);
}

TEST_F(AnalysisSoundnessTest, SyntheticContractsWithinStaticBounds) {
  contracts::SyntheticConfig cfg;
  cfg.num_light = 2;
  cfg.num_heavy = 1;
  cfg.heavy_iterations = 5;

  auto whole = AnalyzeRuntime(contracts::BuildWholeRuntime(cfg));
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  auto whole_init = contracts::BuildWholeInit(cfg);
  ASSERT_TRUE(whole_init.ok());
  Address whole_addr = DeployCovered(*whole_init, {});
  for (int i = 0; i < cfg.num_light; ++i) {
    CallCovered(*whole, alice_, whole_addr, contracts::LightCalldata(i));
  }
  CallCovered(*whole, alice_, whole_addr, contracts::HeavyCalldata(0));

  auto hybrid = AnalyzeRuntime(contracts::BuildHybridOnChainRuntime(cfg));
  ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
  auto hybrid_init = contracts::BuildHybridOnChainInit(cfg);
  ASSERT_TRUE(hybrid_init.ok());
  Address hybrid_addr = DeployCovered(*hybrid_init, {});
  for (int i = 0; i < cfg.num_light; ++i) {
    chain::Receipt r = CallCovered(*hybrid, alice_, hybrid_addr,
                                   contracts::LightCalldata(i));
    EXPECT_GT(r.gas_used, 0u);
  }
  CallCovered(*hybrid, alice_, hybrid_addr,
              contracts::SubmitResultCalldata(
                  0, contracts::NativeHeavyResult(0, cfg.heavy_iterations)));
  // Every hybrid on-chain entry point is statically bounded — the split
  // moved all unbounded computation off-chain.
  ASSERT_FALSE(hybrid->functions.empty());
  for (const FunctionReport& f : hybrid->functions) {
    EXPECT_TRUE(f.gas_bound.bounded) << f.name;
  }
}

}  // namespace
}  // namespace onoff::analysis
