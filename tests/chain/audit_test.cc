// The auditor's injected-fault corpus: each class of corruption the runtime
// invariants exist to catch — minted balance, skipped nonce, replayed
// settlement, tampered receipt root — is injected through the chain's
// test-only mutation hooks and must be caught by exactly its invariant, with
// a trace-id-bearing ViolationReport and a triage-bundle dump. The negative
// half runs every betting settlement path under full auditing and demands
// zero violations.

#include "chain/chain_audit.h"

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chain/blockchain.h"
#include "contracts/betting.h"
#include "obs/audit.h"
#include "obs/flight_recorder.h"
#include "onoff/protocol.h"

namespace onoff::chain {
namespace {

using contracts::Ether;
using secp256k1::PrivateKey;

// Points $ONOFF_FLIGHTREC_DIR at a fresh directory under the test temp dir
// for one test, and removes it afterwards, so incident dumps neither land in
// the working directory nor pile up in the system temp dir.
class ScopedDumpDir {
 public:
  ScopedDumpDir()
      : path_(::testing::TempDir() + "/audit_test_" +
              std::to_string(static_cast<unsigned>(::getpid())) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()) {
    std::filesystem::create_directories(path_);
    setenv("ONOFF_FLIGHTREC_DIR", path_.c_str(), 1);
  }
  ScopedDumpDir(const ScopedDumpDir&) = delete;
  ScopedDumpDir& operator=(const ScopedDumpDir&) = delete;
  ~ScopedDumpDir() {
    unsetenv("ONOFF_FLIGHTREC_DIR");
    std::filesystem::remove_all(path_);
  }

  const std::string& path() const { return path_; }
  size_t Bundles() const {
    size_t count = 0;
    for (const auto& entry : std::filesystem::directory_iterator(path_)) {
      if (entry.path().filename().string().rfind("onoffchain-flightrec-", 0) ==
          0) {
        ++count;
      }
    }
    return count;
  }

 private:
  std::string path_;
};

class AuditTest : public ::testing::Test {
 protected:
  AuditTest()
      : alice_(PrivateKey::FromSeed("alice")),
        bob_(PrivateKey::FromSeed("bob")) {
    chain::ChainConfig config;
    config.audit_invariants = "all";
    chain_ = std::make_unique<chain::Blockchain>(config);
    chain_->FundAccount(alice_.EthAddress(), Ether(10));
    chain_->FundAccount(bob_.EthAddress(), Ether(10));
  }

  // One clean value transfer, mined; establishes the lazy audit baselines.
  void CleanBlock() {
    auto receipt = chain_->Execute(alice_, bob_.EthAddress(), U256(1000),
                                   Bytes{}, 100'000);
    ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
    ASSERT_TRUE(receipt->success);
  }

  // All retained reports must name `expected` — "caught by exactly its
  // invariant" means no collateral reports from the other four.
  void ExpectOnlyInvariant(const std::string& expected) {
    std::vector<obs::ViolationReport> reports =
        chain_->auditor()->sink().Reports();
    ASSERT_FALSE(reports.empty());
    for (const obs::ViolationReport& report : reports) {
      EXPECT_EQ(report.invariant, expected) << report.ToString();
    }
  }

  ScopedDumpDir dumps_;
  PrivateKey alice_;
  PrivateKey bob_;
  std::unique_ptr<chain::Blockchain> chain_;
};

TEST_F(AuditTest, CleanTransfersProduceZeroViolations) {
  ASSERT_NE(chain_->auditor(), nullptr);
  EXPECT_EQ(chain_->auditor()->invariant_count(), 5u);
  for (int i = 0; i < 3; ++i) CleanBlock();
  EXPECT_EQ(chain_->auditor()->violations(), 0u);
}

TEST_F(AuditTest, MintedBalanceIsCaughtByConservation) {
  CleanBlock();
  EXPECT_EQ(chain_->auditor()->violations(), 0u);
  // The fault: value appears from nowhere, bypassing FundAccount's OnMint.
  chain_->mutable_state_for_test().AddBalance(bob_.EthAddress(), Ether(1));
  CleanBlock();
  EXPECT_EQ(chain_->auditor()->violations(), 1u);
  ExpectOnlyInvariant("conservation");
  const obs::ViolationReport report = chain_->auditor()->sink().Reports()[0];
  EXPECT_EQ(report.block_height, chain_->Height());
  EXPECT_EQ(report.values.size(), 2u);
  EXPECT_EQ(report.values[0].first, "expected_total");
  EXPECT_EQ(report.values[1].first, "actual_total");
  EXPECT_NE(report.values[0].second, report.values[1].second);
}

// A persistent fault on a report-only chain is reported at every block but
// dumped once: only an invariant's first violation writes a triage bundle.
TEST_F(AuditTest, PersistentFaultDumpsOneBundlePerInvariant) {
  CleanBlock();
  for (int i = 0; i < 10; ++i) {
    chain_->mutable_state_for_test().AddBalance(bob_.EthAddress(), Ether(1));
    CleanBlock();
  }
  EXPECT_EQ(chain_->auditor()->violations(), 10u);
  EXPECT_EQ(chain_->auditor()->sink().Reports().size(), 10u);
  ExpectOnlyInvariant("conservation");
  EXPECT_EQ(dumps_.Bundles(), 1u);
}

TEST_F(AuditTest, LegitimateMintIsNotAViolation) {
  CleanBlock();
  // Post-baseline faucet credit through the audited path.
  chain_->FundAccount(bob_.EthAddress(), Ether(5));
  CleanBlock();
  EXPECT_EQ(chain_->auditor()->violations(), 0u);
}

TEST_F(AuditTest, SkippedNonceIsCaughtByNonceInvariant) {
  CleanBlock();
  // The fault: an EOA's nonce jumps with no transaction from it. (Balances
  // are untouched, so conservation stays quiet — the corpus point is that
  // each fault trips its own invariant.)
  chain_->mutable_state_for_test().SetNonce(bob_.EthAddress(), 7);
  CleanBlock();
  ASSERT_EQ(chain_->auditor()->violations(), 1u);
  ExpectOnlyInvariant("nonce");
  const obs::ViolationReport report = chain_->auditor()->sink().Reports()[0];
  EXPECT_EQ(report.message, "account nonce changed with no transaction from it");
  ASSERT_FALSE(report.values.empty());
  EXPECT_EQ(report.values[0].first, "account");
  EXPECT_EQ(report.values[0].second, bob_.EthAddress().ToHex());
}

TEST_F(AuditTest, NonceDecreaseIsCaughtForAnyAccount) {
  CleanBlock();  // alice's nonce is now 1
  chain_->mutable_state_for_test().SetNonce(alice_.EthAddress(), 0);
  auto receipt = chain_->Execute(bob_, alice_.EthAddress(), U256(1), Bytes{},
                                 100'000);
  ASSERT_TRUE(receipt.ok());
  ASSERT_GE(chain_->auditor()->violations(), 1u);
  ExpectOnlyInvariant("nonce");
  EXPECT_EQ(chain_->auditor()->sink().Reports()[0].message,
            "account nonce decreased");
}

// A contract whose runtime is CALLER SELFDESTRUCT (0x33ff): each call
// deletes it. A transfer to its address afterwards recreates the account
// at nonce 0, which is a new account, not a nonce decrease.
class RecreatedAccountTest : public AuditTest {
 protected:
  Address DeploySelfDestructor() {
    Result<Bytes> init = FromHex("6133ff6000526002601ef3");
    EXPECT_TRUE(init.ok());
    auto receipt = chain_->Execute(alice_, std::nullopt, U256(0), *init,
                                   200'000);
    EXPECT_TRUE(receipt.ok() && receipt->success);
    const Address contract = receipt->contract_address;
    EXPECT_EQ(chain_->GetNonce(contract), 1u);
    EXPECT_EQ(chain_->GetCode(contract), (Bytes{0x33, 0xff}));
    return contract;
  }
};

TEST_F(RecreatedAccountTest, RecreatedInALaterBlockIsFirstSight) {
  const Address contract = DeploySelfDestructor();
  auto destroyed =
      chain_->Execute(alice_, contract, U256(0), Bytes{}, 100'000);
  ASSERT_TRUE(destroyed.ok() && destroyed->success);
  ASSERT_FALSE(chain_->state().Exists(contract));
  auto recreated = chain_->Execute(bob_, contract, U256(5), Bytes{}, 100'000);
  ASSERT_TRUE(recreated.ok() && recreated->success);
  EXPECT_EQ(chain_->GetNonce(contract), 0u);
  EXPECT_EQ(chain_->GetBalance(contract), U256(5));
  CleanBlock();
  EXPECT_EQ(chain_->auditor()->violations(), 0u);
}

TEST_F(RecreatedAccountTest, RecreatedInTheSameBlockIsFirstSight) {
  const Address contract = DeploySelfDestructor();
  auto destroy = chain_->SendTransaction(alice_, contract, U256(0), Bytes{},
                                         100'000);
  auto recreate = chain_->SendTransaction(bob_, contract, U256(5), Bytes{},
                                          100'000);
  ASSERT_TRUE(destroy.ok() && recreate.ok());
  chain_->MineBlock();
  ASSERT_TRUE(chain_->GetReceipt(*destroy)->success);
  ASSERT_TRUE(chain_->GetReceipt(*recreate)->success);
  EXPECT_EQ(chain_->GetNonce(contract), 0u);
  EXPECT_EQ(chain_->GetBalance(contract), U256(5));
  CleanBlock();
  EXPECT_EQ(chain_->auditor()->violations(), 0u);
}

TEST_F(AuditTest, ReplayedSettlementIsCaughtBySettlementInvariant) {
  SettlementAudit settled;
  settled.game = alice_.EthAddress();  // any address works as a game id
  settled.settlement = "disputed";
  settled.resolved = true;
  settled.correct_payout = true;
  settled.trace_id = 42;
  chain_->auditor()->OnSettlement(settled);
  EXPECT_EQ(chain_->auditor()->violations(), 0u);
  // The fault: the same game id reaches a terminal payout twice.
  chain_->auditor()->OnSettlement(settled);
  ASSERT_EQ(chain_->auditor()->violations(), 1u);
  ExpectOnlyInvariant("settlement");
  const obs::ViolationReport report = chain_->auditor()->sink().Reports()[0];
  EXPECT_EQ(report.message, "game settled twice");
  EXPECT_EQ(report.trace_id, 42u);
}

TEST_F(AuditTest, WrongPayoutIsCaughtBySettlementInvariant) {
  SettlementAudit wrong;
  wrong.game = bob_.EthAddress();
  wrong.settlement = "optimistic";
  wrong.resolved = true;
  wrong.correct_payout = false;
  chain_->auditor()->OnSettlement(wrong);
  ASSERT_EQ(chain_->auditor()->violations(), 1u);
  EXPECT_EQ(chain_->auditor()->sink().Reports()[0].message,
            "settlement completed but the pot missed the winner");
}

TEST_F(AuditTest, UnresolvedSettlementsAreExemptFromReplayChecks) {
  SettlementAudit aborted;
  aborted.game = alice_.EthAddress();
  aborted.settlement = "aborted-unsigned";
  aborted.resolved = false;
  chain_->auditor()->OnSettlement(aborted);
  chain_->auditor()->OnSettlement(aborted);  // retries of an abort are fine
  EXPECT_EQ(chain_->auditor()->violations(), 0u);
}

TEST_F(AuditTest, TamperedReceiptRootIsCaughtByReceiptRootInvariant) {
  auto receipt = chain_->Execute(alice_, bob_.EthAddress(), U256(1000),
                                 Bytes{}, 100'000);
  ASSERT_TRUE(receipt.ok());
  EXPECT_EQ(chain_->auditor()->violations(), 0u);

  // The fault: replay the committed block through a fresh auditor with its
  // header receipt root flipped — the speculation/commit consistency check
  // must refuse the header.
  Block tampered = chain_->blocks().back();
  std::vector<Receipt> receipts = {*receipt};
  obs::AuditorConfig sink_config;
  sink_config.dump_flight = false;
  ChainAuditor replay("receipt_root", sink_config);
  replay.OnBlockCommit(tampered, /*records=*/{}, receipts, chain_->state());
  EXPECT_EQ(replay.violations(), 0u) << "untampered block must pass";

  tampered.header.receipt_root[0] ^= 0xff;
  replay.OnBlockCommit(tampered, /*records=*/{}, receipts, chain_->state());
  ASSERT_EQ(replay.violations(), 1u);
  const obs::ViolationReport report = replay.sink().Reports()[0];
  EXPECT_EQ(report.invariant, "receipt_root");
  ASSERT_FALSE(report.values.empty());
  EXPECT_EQ(report.values[0].second, "receipt_root");
}

TEST_F(AuditTest, TimerViolationsOnVirtualClockFacts) {
  obs::AuditorConfig sink_config;
  sink_config.dump_flight = false;
  ChainAuditor timer_audit("timer", sink_config);
  SettlementAudit late;
  late.game = alice_.EthAddress();
  late.settlement = "disputed";
  late.resolved = true;
  late.correct_payout = true;
  late.t3_ms = 300'000;
  late.challenge_period_ms = 8'000;
  late.settled_ms = 309'000;  // 1s past the window
  timer_audit.OnSettlement(late);
  ASSERT_EQ(timer_audit.violations(), 1u);
  EXPECT_EQ(timer_audit.sink().Reports()[0].message,
            "dispute resolved after the challenge window closed");

  late.settled_ms = 307'000;  // inside the window: fine
  late.game = bob_.EthAddress();
  timer_audit.OnSettlement(late);
  EXPECT_EQ(timer_audit.violations(), 1u);
}

// The nonce invariant on crafted blocks, driven through
// MakeBuiltinInvariants("nonce") directly: hand-set nonces in the state, a
// block of signed transactions, and a receipt outcome per transaction.
class NonceCorpusTest : public ::testing::Test {
 protected:
  NonceCorpusTest() : sink_(QuietSink()) {
    std::vector<std::unique_ptr<BlockInvariant>> invariants =
        MakeBuiltinInvariants("nonce");
    EXPECT_EQ(invariants.size(), 1u);
    nonce_ = std::move(invariants.front());
  }

  static obs::AuditorConfig QuietSink() {
    obs::AuditorConfig config;
    config.dump_flight = false;
    return config;
  }

  // A transfer from `key`, signed so the invariant can recover its sender.
  static Transaction SignedTx(const PrivateKey& key, uint64_t nonce) {
    Transaction tx;
    tx.nonce = nonce;
    tx.gas_price = U256(1);
    tx.gas_limit = 21'000;
    tx.to = Address::FromWord(U256(0xdead));
    tx.value = U256(1);
    tx.Sign(key);
    return tx;
  }

  // Commits a block at `height` holding `txs`, whose receipts carry
  // `success` in order.
  void Commit(uint64_t height, std::vector<Transaction> txs,
              const std::vector<bool>& success) {
    Block block;
    block.header.number = height;
    block.transactions = std::move(txs);
    std::vector<Receipt> receipts(success.size());
    for (size_t i = 0; i < success.size(); ++i) {
      receipts[i].success = success[i];
    }
    nonce_->OnBlockCommit(block, /*records=*/{}, receipts, state_, sink_);
  }

  static std::string Value(const obs::ViolationReport& report,
                           const std::string& key) {
    for (const auto& [k, v] : report.values) {
      if (k == key) return v;
    }
    return "<missing>";
  }

  state::WorldState state_;
  obs::Auditor sink_;
  std::unique_ptr<BlockInvariant> nonce_;
};

TEST_F(NonceCorpusTest, NonceSkippedPastItsTransactionCount) {
  PrivateKey alice = PrivateKey::FromSeed("nonce-alice");
  state_.SetNonce(alice.EthAddress(), 0);
  Commit(1, {}, {});  // first sight: the baseline
  EXPECT_EQ(sink_.violations(), 0u);
  // One transaction from alice, but her nonce moves by three.
  Transaction tx = SignedTx(alice, 0);
  state_.SetNonce(alice.EthAddress(), 3);
  Commit(2, {tx}, {true});
  ASSERT_EQ(sink_.violations(), 1u);
  const obs::ViolationReport report = sink_.Reports()[0];
  EXPECT_EQ(report.invariant, "nonce");
  EXPECT_EQ(report.message, "account nonce skipped past its transaction count");
  EXPECT_EQ(report.block_height, 2u);
  Hash32 tx_hash = tx.Hash();
  EXPECT_EQ(report.tx_hash, ToHex0x(BytesView(tx_hash.data(), tx_hash.size())));
  EXPECT_EQ(Value(report, "account"), alice.EthAddress().ToHex());
  EXPECT_EQ(Value(report, "nonce_before"), "0");
  EXPECT_EQ(Value(report, "nonce_after"), "3");
  EXPECT_EQ(Value(report, "txs_in_block"), "1");
  EXPECT_EQ(Value(report, "successful_txs"), "1");
}

TEST_F(NonceCorpusTest, SuccessfulTransactionsThatConsumedNoNonce) {
  PrivateKey bob = PrivateKey::FromSeed("nonce-bob");
  state_.SetNonce(bob.EthAddress(), 4);
  Commit(1, {}, {});
  // Two successful transactions, one nonce consumed.
  state_.SetNonce(bob.EthAddress(), 5);
  Commit(2, {SignedTx(bob, 4), SignedTx(bob, 5)}, {true, true});
  ASSERT_EQ(sink_.violations(), 1u);
  const obs::ViolationReport report = sink_.Reports()[0];
  EXPECT_EQ(report.message,
            "successful transactions did not all consume a nonce");
  EXPECT_EQ(Value(report, "account"), bob.EthAddress().ToHex());
  EXPECT_EQ(Value(report, "nonce_before"), "4");
  EXPECT_EQ(Value(report, "nonce_after"), "5");
  EXPECT_EQ(Value(report, "txs_in_block"), "2");
  EXPECT_EQ(Value(report, "successful_txs"), "2");

  // A reverted transaction still consumes a nonce but counts as
  // unsuccessful, so one nonce for one success and one revert is clean.
  state_.SetNonce(bob.EthAddress(), 6);
  Commit(3, {SignedTx(bob, 5), SignedTx(bob, 6)}, {true, false});
  EXPECT_EQ(sink_.violations(), 1u);
}

// Violations on many accounts in one block arrive in ascending address
// order, each with its own message; first-sight accounts and contracts
// whose nonce moved without a transaction stay exempt.
TEST_F(NonceCorpusTest, ReportsArriveInAscendingAddressOrder) {
  std::vector<PrivateKey> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back(PrivateKey::FromSeed("nonce-corpus-" + std::to_string(i)));
    state_.SetNonce(keys.back().EthAddress(), 10);
  }
  Address contract = Address::FromWord(U256(0xc0de));
  state_.SetCode(contract, Bytes{0x00});
  state_.SetNonce(contract, 1);
  Commit(1, {}, {});
  ASSERT_EQ(sink_.violations(), 0u);

  // Accounts cycle through the four messages.
  const char* kMessages[] = {
      "account nonce decreased",
      "account nonce changed with no transaction from it",
      "account nonce skipped past its transaction count",
      "successful transactions did not all consume a nonce",
  };
  std::vector<Transaction> txs;
  std::vector<bool> success;
  std::map<std::string, std::string> expected;  // account hex -> message
  for (size_t i = 0; i < keys.size(); ++i) {
    const Address addr = keys[i].EthAddress();
    switch (i % 4) {
      case 0:
        state_.SetNonce(addr, 9);
        break;
      case 1:
        state_.SetNonce(addr, 11);
        break;
      case 2:
        txs.push_back(SignedTx(keys[i], 10));
        success.push_back(true);
        state_.SetNonce(addr, 12);
        break;
      case 3:
        txs.push_back(SignedTx(keys[i], 10));
        txs.push_back(SignedTx(keys[i], 11));
        success.insert(success.end(), {true, true});
        state_.SetNonce(addr, 10);
        break;
    }
    expected[addr.ToHex()] = kMessages[i % 4];
  }
  state_.SetNonce(contract, 2);  // an internal CREATE: exempt
  state_.SetNonce(Address::FromWord(U256(0xf1257)), 5);  // first sight
  Commit(2, std::move(txs), success);

  std::vector<obs::ViolationReport> reports = sink_.Reports();
  ASSERT_EQ(reports.size(), keys.size());
  std::vector<std::string> order;
  for (const obs::ViolationReport& report : reports) {
    EXPECT_EQ(report.invariant, "nonce");
    EXPECT_EQ(report.block_height, 2u);
    std::string account = Value(report, "account");
    order.push_back(account);
    EXPECT_EQ(report.message, expected[account]) << account;
  }
  // Hex of equal-length addresses sorts like the addresses themselves; the
  // map iterates in that order.
  std::vector<std::string> ascending;
  for (const auto& [account, message] : expected) ascending.push_back(account);
  EXPECT_EQ(order, ascending);
}

// A violation with a global flight recorder installed dumps a schema-tagged
// triage bundle into $ONOFF_FLIGHTREC_DIR.
TEST_F(AuditTest, ViolationDumpsTriageBundleIntoDumpDir) {
  obs::FlightRecorder recorder;
  obs::FlightRecorder* previous = obs::FlightRecorder::InstallGlobal(&recorder);
  recorder.Record(obs::FlightKind::kSettlement, 7, 21'000, 0, "disputed");

  ChainAuditor audited("settlement", obs::AuditorConfig{});
  SettlementAudit settled;
  settled.game = alice_.EthAddress();
  settled.settlement = "disputed";
  settled.resolved = true;
  settled.correct_payout = true;
  settled.trace_id = 7;
  audited.OnSettlement(settled);
  audited.OnSettlement(settled);
  ASSERT_EQ(audited.violations(), 1u);
  obs::FlightRecorder::InstallGlobal(previous);

  bool found = false;
  for (const auto& entry : std::filesystem::directory_iterator(dumps_.path())) {
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    if (buf.str().find("onoffchain-flightrec-v1") == std::string::npos) {
      continue;
    }
    EXPECT_NE(buf.str().find("\"game settled twice\""), std::string::npos);
    EXPECT_NE(buf.str().find("\"invariant-violation\""), std::string::npos);
    found = true;
  }
  EXPECT_TRUE(found) << "no triage bundle written to " << dumps_.path();
}

// The negative corpus: every betting settlement path runs under full
// auditing with zero violations — the invariants accept the protocol's
// legitimate behaviours, including the adversarial ones.
class AuditNegativeTest : public ::testing::Test {
 protected:
  // Runs one betting game on a freshly audited chain and returns (settlement,
  // violations).
  std::pair<core::Settlement, uint64_t> RunAudited(core::Behavior alice_b,
                                                   core::Behavior bob_b) {
    auto alice = PrivateKey::FromSeed("alice");
    auto bob = PrivateKey::FromSeed("bob");
    chain::ChainConfig config;
    config.audit_invariants = "all";
    chain::Blockchain chain(config);
    chain.FundAccount(alice.EthAddress(), Ether(10));
    chain.FundAccount(bob.EthAddress(), Ether(10));
    core::MessageBus bus;
    contracts::OffchainConfig offchain;
    offchain.secret_alice = U256(0xa11ce);
    offchain.secret_bob = U256(0xb0b);
    offchain.reveal_iterations = 20;
    core::BettingProtocol protocol(&chain, &bus, alice, bob, offchain,
                                   Ether(1));
    auto report = protocol.Run(alice_b, bob_b);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    if (!report.ok()) return {core::Settlement::kAbortedUnsigned, UINT64_MAX};
    return {report->settlement, chain.auditor()->violations()};
  }

  ScopedDumpDir dumps_;
};

TEST_F(AuditNegativeTest, AllSettlementPathsAuditClean) {
  core::Behavior honest;
  core::Behavior dishonest;
  dishonest.admit_loss = false;
  core::Behavior unsigned_copy;
  unsigned_copy.sign_offchain_copy = false;
  core::Behavior no_deposit;
  no_deposit.make_deposit = false;

  auto [optimistic, v1] = RunAudited(honest, honest);
  EXPECT_EQ(optimistic, core::Settlement::kOptimistic);
  EXPECT_EQ(v1, 0u);

  auto [disputed, v2] = RunAudited(dishonest, dishonest);
  EXPECT_EQ(disputed, core::Settlement::kDisputed);
  EXPECT_EQ(v2, 0u);

  auto [aborted, v3] = RunAudited(honest, unsigned_copy);
  EXPECT_EQ(aborted, core::Settlement::kAbortedUnsigned);
  EXPECT_EQ(v3, 0u);

  auto [refunded, v4] = RunAudited(honest, no_deposit);
  EXPECT_EQ(refunded, core::Settlement::kRefunded);
  EXPECT_EQ(v4, 0u);
}

}  // namespace
}  // namespace onoff::chain
