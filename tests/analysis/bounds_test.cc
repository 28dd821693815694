#include "analysis/bounds.h"

#include <gtest/gtest.h>

#include "chain/blockchain.h"
#include "contracts/betting.h"
#include "contracts/codegen.h"
#include "easm/assembler.h"
#include "onoff/protocol.h"
#include "sim/scheduler.h"
#include "sim/transport.h"
#include "trace/structlog.h"

namespace onoff::analysis {
namespace {

TEST(GasBoundsCheckerTest, ObservedWithinBoundPasses) {
  auto code = easm::Assemble("PUSH1 0x02 PUSH1 0x03 ADD POP STOP");
  ASSERT_TRUE(code.ok());
  GasBoundsChecker checker;
  // Actual execution costs 11 gas (3+3+3+2+0), exactly the static bound.
  EXPECT_FALSE(checker.CheckCall(*code, {}, 11).has_value());
  EXPECT_EQ(checker.checks(), 1u);
  EXPECT_EQ(checker.violations(), 0u);
}

TEST(GasBoundsCheckerTest, ObservedAboveBoundViolates) {
  auto code = easm::Assemble("PUSH1 0x02 PUSH1 0x03 ADD POP STOP");
  ASSERT_TRUE(code.ok());
  GasBoundsChecker checker;
  // A loop-free 5-instruction program is bounded well under 1000 gas; an
  // observation above the bound must surface as a violation.
  auto violation = checker.CheckCall(*code, {}, 1'000'000);
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->observed_gas, 1'000'000u);
  EXPECT_GE(violation->observed_gas, violation->bound_gas);
  EXPECT_FALSE(violation->ToString().empty());
  EXPECT_EQ(checker.violations(), 1u);
}

TEST(GasBoundsCheckerTest, UnboundedProgramsNeverViolate) {
  // An unconditional backwards jump: the analyzer cannot bound it, so the
  // checker must not cry wolf regardless of the observation.
  auto code = easm::Assemble("loop: JUMPDEST PUSH @loop JUMP");
  ASSERT_TRUE(code.ok());
  GasBoundsChecker checker;
  EXPECT_FALSE(checker.CheckCall(*code, {}, UINT64_MAX / 2).has_value());
}

// Every transaction the protocol driver sends — deploys, deposits, the
// dispute round trip — stays within the static analyzer's bounds, for both
// the optimistic and the disputed path. This is the paper's soundness story
// told end-to-end: worst-case bounds certified before signing are never
// beaten by observed execution.
class ProtocolBoundsTest : public ::testing::TestWithParam<bool> {};

TEST_P(ProtocolBoundsTest, NoViolationOnDriverPath) {
  const bool dispute = GetParam();
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  chain::Blockchain chain;
  chain.FundAccount(alice.EthAddress(), contracts::Ether(10));
  chain.FundAccount(bob.EthAddress(), contracts::Ether(10));
  GasBoundsChecker checker;
  chain.set_step_tracer(&checker);

  core::MessageBus bus;
  contracts::OffchainConfig offchain;
  offchain.secret_alice = U256(0xa11ce);
  offchain.secret_bob = U256(0xb0b);
  offchain.reveal_iterations = 10;
  core::BettingProtocol protocol(&chain, &bus, alice, bob, offchain,
                                 contracts::Ether(1));
  core::Behavior behavior;
  behavior.admit_loss = !dispute;
  auto report = protocol.Run(behavior, behavior);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->correct_payout);

  EXPECT_GT(checker.checks(), 0u);
  EXPECT_EQ(checker.violations(), 0u);
}

INSTANTIATE_TEST_SUITE_P(OptimisticAndDisputed, ProtocolBoundsTest,
                         ::testing::Values(false, true));

// The same invariant under the simulated network (retransmissions, delays):
// the full dispute path on the sim driver never beats a bound either.
TEST(GasBoundsCheckerTest, NoViolationOnSimulatedDisputePath) {
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  chain::Blockchain chain;
  chain.FundAccount(alice.EthAddress(), contracts::Ether(10));
  chain.FundAccount(bob.EthAddress(), contracts::Ether(10));
  GasBoundsChecker checker;
  chain.set_step_tracer(&checker);

  core::MessageBus bus;
  contracts::OffchainConfig offchain;
  offchain.secret_alice = U256(0xa11ce);
  offchain.secret_bob = U256(0xb0b);
  offchain.reveal_iterations = 10;

  sim::Scheduler sched;
  sim::SimTransport transport(&sched, /*seed=*/7);
  sim::LinkConfig link;
  link.latency_ms = 40;
  link.jitter_ms = 10;
  transport.SetLink(alice.EthAddress().ToHex(), "chain", link);
  transport.SetLink(bob.EthAddress().ToHex(), "chain", link);

  core::BettingProtocol protocol(&chain, &bus, alice, bob, offchain,
                                 contracts::Ether(1));
  protocol.BindSimulation(&sched, &transport);
  core::Behavior dishonest;
  dishonest.admit_loss = false;
  auto report = protocol.Run(dishonest, dishonest);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_GT(checker.checks(), 0u);
  EXPECT_EQ(checker.violations(), 0u);
}

// Mines one block of four transactions with `hook` as the chain's step
// tracer: a plain transfer, a call carrying `calldata` into a contract that
// copies it to memory and CALLs another, a creation, and a call that
// REVERTs. The contracts are deployed in earlier blocks, before the hook is
// installed. Fills `receipts` with the block's receipts.
void MineFourKinds(evm::TraceHook* hook, std::vector<chain::Receipt>* receipts,
                   const Bytes& calldata = {}) {
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  chain::Blockchain chain;
  chain.FundAccount(alice.EthAddress(), contracts::Ether(10));
  auto deploy = [&](const std::string& runtime) {
    auto code = easm::Assemble(runtime);
    EXPECT_TRUE(code.ok()) << code.status().ToString();
    auto receipt = chain.Execute(alice, std::nullopt, U256(),
                                 contracts::WrapDeployer(*code), 200'000);
    EXPECT_TRUE(receipt.ok() && receipt->success);
    return receipt.ok() ? receipt->contract_address : Address();
  };
  const Address callee = deploy("PUSH1 0x01 POP STOP");
  // CALLDATACOPY(0, 0, size), then CALL(gas, to, value, inoff, insize,
  // outoff, outsize) with just enough gas for the callee.
  const Address caller = deploy(
      "CALLDATASIZE PUSH1 0x00 PUSH1 0x00 CALLDATACOPY "
      "PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH1 0x00 PUSH20 " +
      callee.ToHex() + " PUSH1 0x10 CALL POP STOP");
  const Address reverter = deploy("PUSH1 0x00 PUSH1 0x00 REVERT");
  auto runtime = easm::Assemble("STOP");
  ASSERT_TRUE(runtime.ok());

  chain.set_step_tracer(hook);
  const uint64_t nonce = chain.GetNonce(alice.EthAddress());
  const std::pair<std::optional<Address>, Bytes> kinds[] = {
      {bob.EthAddress(), {}},
      {caller, calldata},
      {std::nullopt, contracts::WrapDeployer(*runtime)},
      {reverter, {}}};
  std::vector<Hash32> hashes;
  for (const auto& [to, data] : kinds) {
    chain::Transaction tx;
    tx.nonce = nonce + hashes.size();
    tx.gas_price = U256(1);
    tx.gas_limit = 200'000;
    tx.to = to;
    tx.value = to.has_value() ? U256(1) : U256();
    tx.data = data;
    tx.Sign(alice);
    auto hash = chain.SubmitTransaction(tx);
    ASSERT_TRUE(hash.ok()) << hash.status().ToString();
    hashes.push_back(*hash);
  }
  ASSERT_EQ(chain.MineBlock().transactions.size(), hashes.size());
  for (const Hash32& hash : hashes) {
    auto receipt = chain.GetReceipt(hash);
    ASSERT_TRUE(receipt.ok());
    receipts->push_back(*receipt);
  }
}

// One check per successful top-level transaction: the nested frame and the
// reverted call are not checked.
TEST(GasBoundsCheckerTest, ChecksEachSuccessfulTransactionOnce) {
  GasBoundsChecker checker;
  std::vector<chain::Receipt> receipts;
  MineFourKinds(&checker, &receipts);
  ASSERT_EQ(receipts.size(), 4u);
  EXPECT_TRUE(receipts[0].success);
  EXPECT_TRUE(receipts[1].success);
  EXPECT_TRUE(receipts[2].success);
  EXPECT_FALSE(receipts[3].success);
  EXPECT_EQ(checker.checks(), 3u);
  EXPECT_EQ(checker.violations(), 0u);
}

// Calldata beyond the analyzed envelope makes the outermost frame of the
// call beat its bound, while the nested frame stays within its own: the
// violation must be the outermost frame's.
TEST(GasBoundsCheckerTest, ViolationIsTheOutermostFrames) {
  AnalysisOptions options;
  options.max_dynamic_bytes = 32;
  GasBoundsChecker checker(options);
  std::vector<chain::Receipt> receipts;
  MineFourKinds(&checker, &receipts, Bytes(16 * 1024, 0));
  ASSERT_EQ(receipts.size(), 4u);
  EXPECT_TRUE(receipts[1].success);
  EXPECT_EQ(checker.checks(), 3u);
  EXPECT_EQ(checker.violations(), 1u);
}

// A structLog tracer behind the checker sees every callback it would see
// installed alone.
TEST(GasBoundsCheckerTest, InnerHookSeesEveryStepAndFrame) {
  std::vector<chain::Receipt> receipts;
  trace::StructLogTracer alone;
  MineFourKinds(&alone, &receipts);
  trace::StructLogTracer inner;
  GasBoundsChecker checker({}, &inner);
  MineFourKinds(&checker, &receipts);
  ASSERT_EQ(receipts.size(), 8u);
  EXPECT_EQ(checker.checks(), 3u);
  // transfer, caller + callee, creation, reverter
  EXPECT_EQ(alone.frames().size(), 5u);
  EXPECT_GT(alone.steps_seen(), 0u);
  EXPECT_EQ(inner.steps_seen(), alone.steps_seen());
  EXPECT_EQ(inner.ToJson().Dump(), alone.ToJson().Dump());
}

// A transaction sent straight to a precompile runs no bytecode, so its
// depth-0 frame opens no bound: it is neither checked nor counted.
TEST(GasBoundsCheckerTest, PrecompileTransactionIsNotChecked) {
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  chain::Blockchain chain;
  chain.FundAccount(alice.EthAddress(), contracts::Ether(10));
  GasBoundsChecker checker;
  chain.set_step_tracer(&checker);
  chain::Transaction tx;
  tx.nonce = chain.GetNonce(alice.EthAddress());
  tx.gas_price = U256(1);
  tx.gas_limit = 100'000;
  tx.to = Address::FromWord(U256(4));  // identity
  tx.data = Bytes(64, 0xAB);
  tx.Sign(alice);
  auto hash = chain.SubmitTransaction(tx);
  ASSERT_TRUE(hash.ok()) << hash.status().ToString();
  ASSERT_EQ(chain.MineBlock().transactions.size(), 1u);
  auto receipt = chain.GetReceipt(*hash);
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->success);
  EXPECT_EQ(checker.checks(), 0u);
  EXPECT_EQ(checker.violations(), 0u);
}

}  // namespace
}  // namespace onoff::analysis
