// Regression gate: every contract bundled with the repo must pass the
// static analyzer clean, with the paper's light/private classification
// declared as policy. A codegen change that introduces an unbounded light
// function, a stack-height bug, or a private state leak fails here before
// it can reach the CLI or the protocol driver.

#include <gtest/gtest.h>

#include "analysis/analyzer.h"
#include "contracts/betting.h"
#include "contracts/synthetic.h"
#include "crypto/secp256k1.h"

namespace onoff::contracts {
namespace {

using analysis::AnalysisOptions;
using analysis::AnalyzeDeployment;
using analysis::DeploymentReport;

void ExpectClean(const Result<Bytes>& init, const AnalysisOptions& options,
                 const char* what) {
  ASSERT_TRUE(init.ok()) << what << ": " << init.status().ToString();
  DeploymentReport report = AnalyzeDeployment(*init, options);
  EXPECT_TRUE(report.recognized_deployer) << what;
  EXPECT_FALSE(report.HasErrors())
      << what << ": "
      << analysis::FormatDiagnostic(report.AllDiagnostics().front());
}

BettingConfig TestBettingConfig() {
  BettingConfig config;
  config.alice = secp256k1::PrivateKey::FromSeed("alice").EthAddress();
  config.bob = secp256k1::PrivateKey::FromSeed("bob").EthAddress();
  config.deposit_amount = Ether(1);
  config.t1 = 1100;
  config.t2 = 1200;
  config.t3 = 1300;
  return config;
}

TEST(CodegenLintTest, BettingOnChainPassesWithLightPolicy) {
  // Every entry point except the CREATE-ing dispute weapon is declared
  // light: the analyzer must prove them bounded under the block gas limit.
  ExpectClean(BuildOnChainInit(TestBettingConfig()), OnChainPolicy(),
              "betting on-chain");
}

TEST(CodegenLintTest, BettingOnChainWithSecurityDepositPasses) {
  BettingConfig config = TestBettingConfig();
  config.security_deposit = Ether(1) / U256(2);
  ExpectClean(BuildOnChainInit(config), OnChainPolicy(),
              "betting on-chain with security deposit");
}

TEST(CodegenLintTest, BettingOffChainPassesWithPrivatePolicy) {
  OffchainConfig config;
  config.alice = secp256k1::PrivateKey::FromSeed("alice").EthAddress();
  config.bob = secp256k1::PrivateKey::FromSeed("bob").EthAddress();
  config.secret_alice = U256(0xa11ce);
  config.secret_bob = U256(0xb0b);
  config.reveal_iterations = 25;
  // getWinner() sees the private secrets and must not be able to leak
  // them; returnDisputeResolution() is the sanctioned CALL path and stays
  // unclassified.
  ExpectClean(BuildOffChainInit(config), OffChainPolicy(),
              "betting off-chain");
}

TEST(CodegenLintTest, SyntheticContractsPass) {
  for (int n : {1, 4}) {
    SyntheticConfig config;
    config.num_light = n;
    config.num_heavy = n;
    config.heavy_iterations = 10;
    ExpectClean(BuildWholeInit(config), {}, "synthetic whole");
    ExpectClean(BuildHybridOnChainInit(config), {}, "synthetic hybrid-on");
    ExpectClean(BuildHybridOffChainInit(config), {}, "synthetic hybrid-off");
  }
}

}  // namespace
}  // namespace onoff::contracts
