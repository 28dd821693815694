#include "onoff/protocol.h"

#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace onoff::core {
namespace {

using contracts::Ether;
using secp256k1::PrivateKey;

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest()
      : alice_(PrivateKey::FromSeed("alice")), bob_(PrivateKey::FromSeed("bob")) {
    chain_.FundAccount(alice_.EthAddress(), Ether(10));
    chain_.FundAccount(bob_.EthAddress(), Ether(10));
    offchain_.secret_alice = U256(0xa11ce);
    offchain_.secret_bob = U256(0xb0b);
    offchain_.reveal_iterations = 20;
  }

  BettingProtocol MakeProtocol() {
    return BettingProtocol(&chain_, &bus_, alice_, bob_, offchain_, Ether(1));
  }

  chain::Blockchain chain_;
  MessageBus bus_;
  PrivateKey alice_;
  PrivateKey bob_;
  contracts::OffchainConfig offchain_;
};

TEST_F(ProtocolTest, HonestRunSettlesOptimistically) {
  auto protocol = MakeProtocol();
  auto report = protocol.Run(Behavior{}, Behavior{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->settlement, Settlement::kOptimistic);
  EXPECT_TRUE(report->correct_payout);
  // Privacy headline: nothing of the off-chain contract touched the chain.
  EXPECT_EQ(report->private_bytes_revealed, 0u);
  // The dispute stage stayed silent.
  const StageReport& s4 =
      report->stages[static_cast<int>(Stage::kDisputeResolve)];
  EXPECT_EQ(s4.gas_used, 0u);
  EXPECT_EQ(s4.transactions, 0);
  // Deploy/sign stage carried the signed copies off-chain.
  const StageReport& s2 = report->stages[static_cast<int>(Stage::kDeploySign)];
  EXPECT_GT(s2.offchain_messages, 0u);
  EXPECT_GT(s2.offchain_bytes, 0u);
}

TEST_F(ProtocolTest, DishonestLoserIsOverridden) {
  auto protocol = MakeProtocol();
  Behavior dishonest;
  dishonest.admit_loss = false;
  // Make BOTH dishonest as losers; only the actual loser matters.
  auto report = protocol.Run(dishonest, dishonest);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->settlement, Settlement::kDisputed);
  EXPECT_TRUE(report->correct_payout);
  // The off-chain contract went public.
  EXPECT_GT(report->private_bytes_revealed, 0u);
  EXPECT_FALSE(report->verified_instance.IsZero());
  const StageReport& s4 =
      report->stages[static_cast<int>(Stage::kDisputeResolve)];
  EXPECT_EQ(s4.transactions, 2);  // deployVerifiedInstance + return
  EXPECT_GT(s4.gas_used, 100'000u);
}

TEST_F(ProtocolTest, RefusingToSignAbortsBeforeMoneyMoves) {
  auto protocol = MakeProtocol();
  Behavior no_sign;
  no_sign.sign_offchain_copy = false;
  U256 alice_before = chain_.GetBalance(alice_.EthAddress());
  auto report = protocol.Run(Behavior{}, no_sign);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->settlement, Settlement::kAbortedUnsigned);
  // Alice paid only the deployment gas; her ether never entered the contract.
  const StageReport& s3 =
      report->stages[static_cast<int>(Stage::kSubmitChallenge)];
  EXPECT_EQ(s3.transactions, 0);
  EXPECT_LT(alice_before - chain_.GetBalance(alice_.EthAddress()), Ether(1));
}

TEST_F(ProtocolTest, MissingDepositRefundsTheOther) {
  auto protocol = MakeProtocol();
  Behavior no_deposit;
  no_deposit.make_deposit = false;
  U256 alice_before = chain_.GetBalance(alice_.EthAddress());
  auto report = protocol.Run(Behavior{}, no_deposit);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->settlement, Settlement::kRefunded);
  EXPECT_TRUE(report->correct_payout);
  // Alice got her deposit back; net loss is only gas.
  U256 net_loss = alice_before - chain_.GetBalance(alice_.EthAddress());
  EXPECT_LT(net_loss, U256(2'000'000));  // gas only (price 1)
}

TEST_F(ProtocolTest, WinnerIsConsistentWithNativeReveal) {
  auto protocol = MakeProtocol();
  auto report = protocol.Run(Behavior{}, Behavior{});
  ASSERT_TRUE(report.ok());
  contracts::OffchainConfig cfg = offchain_;
  cfg.alice = alice_.EthAddress();
  cfg.bob = bob_.EthAddress();
  EXPECT_EQ(report->bob_won, contracts::ComputeWinner(cfg));
}

TEST_F(ProtocolTest, DisputePathCostsMoreGasThanOptimistic) {
  // Two separate chains so the runs do not interact.
  chain::Blockchain chain_a;
  chain::Blockchain chain_b;
  for (auto* c : {&chain_a, &chain_b}) {
    c->FundAccount(alice_.EthAddress(), Ether(10));
    c->FundAccount(bob_.EthAddress(), Ether(10));
  }
  MessageBus bus_a;
  MessageBus bus_b;
  BettingProtocol honest(&chain_a, &bus_a, alice_, bob_, offchain_, Ether(1));
  BettingProtocol contested(&chain_b, &bus_b, alice_, bob_, offchain_, Ether(1));
  auto honest_report = honest.Run(Behavior{}, Behavior{});
  Behavior dishonest;
  dishonest.admit_loss = false;
  auto dispute_report = contested.Run(dishonest, dishonest);
  ASSERT_TRUE(honest_report.ok());
  ASSERT_TRUE(dispute_report.ok());
  EXPECT_GT(dispute_report->TotalGas(), honest_report->TotalGas());
  EXPECT_GT(dispute_report->TotalOnchainBytes(),
            honest_report->TotalOnchainBytes());
}

TEST_F(ProtocolTest, TamperedSignedCopyAborts) {
  // A hostile channel flips a byte in every signed-copy message: both
  // participants must detect it and walk away before depositing.
  bus_.set_tamper_hook([](Message& m) {
    if (!m.payload.empty()) m.payload[m.payload.size() / 2] ^= 0x01;
  });
  auto protocol = MakeProtocol();
  U256 alice_before = chain_.GetBalance(alice_.EthAddress());
  auto report = protocol.Run(Behavior{}, Behavior{});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->settlement, Settlement::kAbortedTampered);
  EXPECT_TRUE(report->correct_payout);
  // No deposits happened.
  const StageReport& s3 =
      report->stages[static_cast<int>(Stage::kSubmitChallenge)];
  EXPECT_EQ(s3.transactions, 0);
  EXPECT_LT(alice_before - chain_.GetBalance(alice_.EthAddress()), Ether(1));
}

TEST_F(ProtocolTest, DroppedSignedCopyAborts) {
  bus_.set_drop_hook([](const Message&) { return true; });  // lossy network
  auto protocol = MakeProtocol();
  auto report = protocol.Run(Behavior{}, Behavior{});
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->settlement, Settlement::kAbortedTampered);
  EXPECT_TRUE(report->correct_payout);
}

TEST_F(ProtocolTest, SignedCopiesActuallyTraverseTheBus) {
  auto protocol = MakeProtocol();
  auto report = protocol.Run(Behavior{}, Behavior{});
  ASSERT_TRUE(report.ok());
  // Two broadcasts of a serialized copy (bytecode + one signature each).
  EXPECT_EQ(bus_.messages_sent(), 2u);
  EXPECT_GT(bus_.bytes_sent(), 600u);
  // Both inboxes were drained by the verification step.
  EXPECT_EQ(bus_.PendingFor(alice_.EthAddress()), 0u);
  EXPECT_EQ(bus_.PendingFor(bob_.EthAddress()), 0u);
}

// Each participant signs its own copy once, auditing it first; the rest of
// the signatures are the transactions the run signs. The chain analyzes
// nothing it admits, so the four programs are the two participants' audits
// of the off-chain copy's deployer prologue and runtime.
TEST_F(ProtocolTest, SignsAndAuditsEachCopyOnce) {
  obs::Registry* registry = obs::Registry::Global();
  auto count = [registry](const char* name) -> uint64_t {
    return registry != nullptr ? registry->CounterValue(name) : 0;
  };
  struct Case {
    bool dispute;
    uint64_t sign_ops;
    uint64_t programs;
  };
  for (const Case& c : {Case{false, 8, 4}, Case{true, 9, 4}}) {
    SCOPED_TRACE(c.dispute ? "disputed" : "honest");
    uint64_t sign_ops = count("crypto.sign_ops");
    uint64_t programs = count("analysis.programs");
    Behavior behavior;
    behavior.admit_loss = !c.dispute;
    auto protocol = MakeProtocol();
    auto report = protocol.Run(behavior, behavior);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->settlement,
              c.dispute ? Settlement::kDisputed : Settlement::kOptimistic);
    if (registry == nullptr) continue;  // metrics off (ONOFF_METRICS=0)
    EXPECT_EQ(count("crypto.sign_ops") - sign_ops, c.sign_ops);
    EXPECT_EQ(count("analysis.programs") - programs, c.programs);
  }
}

TEST_F(ProtocolTest, StageAndSettlementNames) {
  EXPECT_STREQ(StageName(Stage::kSplitGenerate), "split/generate");
  EXPECT_STREQ(StageName(Stage::kDisputeResolve), "dispute/resolve");
  EXPECT_STREQ(SettlementName(Settlement::kOptimistic), "optimistic");
  EXPECT_STREQ(SettlementName(Settlement::kAbortedTampered),
               "aborted-tampered");
  EXPECT_STREQ(SettlementName(Settlement::kDisputed), "disputed");
}

// Sweep: the protocol settles correctly across different secrets (and hence
// both possible winners) and reveal weights.
class ProtocolSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(ProtocolSweepTest, AlwaysCorrectPayout) {
  int i = GetParam();
  auto alice = PrivateKey::FromSeed("alice");
  auto bob = PrivateKey::FromSeed("bob");
  chain::Blockchain chain;
  chain.FundAccount(alice.EthAddress(), Ether(10));
  chain.FundAccount(bob.EthAddress(), Ether(10));
  MessageBus bus;
  contracts::OffchainConfig offchain;
  offchain.secret_alice = U256(static_cast<uint64_t>(i) * 7919 + 1);
  offchain.secret_bob = U256(static_cast<uint64_t>(i) * 104729 + 2);
  offchain.reveal_iterations = static_cast<uint64_t>(i % 5) * 10;
  BettingProtocol protocol(&chain, &bus, alice, bob, offchain, Ether(1));
  Behavior loser_behavior;
  loser_behavior.admit_loss = (i % 2 == 0);
  auto report = protocol.Run(loser_behavior, loser_behavior);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->correct_payout);
  EXPECT_EQ(report->settlement, loser_behavior.admit_loss
                                    ? Settlement::kOptimistic
                                    : Settlement::kDisputed);
}

INSTANTIATE_TEST_SUITE_P(Scenarios, ProtocolSweepTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace onoff::core
