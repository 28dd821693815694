// Exactness of the incremental per-block audit. The conservation and nonce
// invariants evaluate a block from WorldState's touched set and sweep the
// whole account map only at the first audited block and every
// state_history_blocks blocks. These tests pin that down:
//   - on randomized multi-block workloads, mined serially and in parallel,
//     a chain that sweeps every block (state_history_blocks = 1) and one
//     that sweeps every 64 blocks report the same violations in the same
//     blocks;
//   - a fault injected through WorldState's public mutators is reported in
//     the block that follows it, without a sweep;
//   - a write that skips the touched set (through a test-only peer) goes
//     unseen until the next full sweep, which reports it.

#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <unistd.h>
#include <vector>

#include <gtest/gtest.h>

#include "chain/blockchain.h"
#include "chain/chain_audit.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace onoff::state {

// Writes straight into the account map, past the recording accessor: the
// kind of write the periodic full sweep exists to catch.
class WorldStateTestPeer {
 public:
  static Account& Untracked(WorldState& ws, const Address& addr) {
    return ws.accounts_.accounts_.at(addr);
  }
};

}  // namespace onoff::state

namespace onoff::chain {
namespace {

using secp256k1::PrivateKey;

const U256 kEther = U256(1'000'000'000'000'000'000ull);

// CALLER SELFDESTRUCT: every call deletes the contract.
const Bytes kSelfDestructorInit = {0x61, 0x33, 0xff, 0x60, 0x00, 0x52,
                                   0x60, 0x02, 0x60, 0x1e, 0xf3};
// CALL(gas, calldata[0:32], 0, 0, 0, 0, 0), then REVERT: whatever the
// callee did (a SELFDESTRUCT included) is undone.
const Bytes kReverterInit = {
    0x60, 0x15, 0x60, 0x0c, 0x60, 0x00, 0x39, 0x60, 0x15, 0x60, 0x00,
    0xf3,  // CODECOPY the 21-byte runtime below and RETURN it
    0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60, 0x00, 0x60,
    0x00, 0x35, 0x5a, 0xf1, 0x50, 0x60, 0x00, 0x60, 0x00, 0xfd};
// CREATE(0, 0, 0), then STOP: the contract's own nonce moves on every call.
const Bytes kCreatorInit = {0x60, 0x09, 0x60, 0x0c, 0x60, 0x00, 0x39, 0x60,
                            0x09, 0x60, 0x00, 0xf3, 0x60, 0x00, 0x60, 0x00,
                            0x60, 0x00, 0xf0, 0x50, 0x00};

uint64_t FullSweeps() {
  obs::Registry* registry = obs::Registry::Global();
  return registry != nullptr ? registry->CounterValue("audit.full_sweeps")
                             : 0;
}

std::unique_ptr<Blockchain> AuditedChain(
    uint64_t history_blocks, ExecMode exec_mode = ExecMode::kSerial) {
  ChainConfig config;
  config.audit_invariants = "all";
  config.state_history_blocks = history_blocks;
  config.exec_mode = exec_mode;
  if (exec_mode == ExecMode::kParallel) config.exec_workers = 2;
  return std::make_unique<Blockchain>(config);
}

// The block's reports in a comparable form, then an empty sink.
std::vector<std::string> TakeReports(Blockchain& chain) {
  std::vector<std::string> out;
  for (const obs::ViolationReport& r : chain.auditor()->sink().Reports()) {
    std::string key = r.invariant + " | " + r.message + " | " +
                      std::to_string(r.block_height) + " | " + r.tx_hash;
    for (const auto& [k, v] : r.values) key += " | " + k + "=" + v;
    out.push_back(std::move(key));
  }
  chain.auditor()->sink().Clear();
  return out;
}

void Transfer(Blockchain& chain, const PrivateKey& from, const Address& to) {
  auto receipt = chain.Execute(from, to, U256(1000), Bytes{}, 100'000);
  ASSERT_TRUE(receipt.ok()) << receipt.status().ToString();
  ASSERT_TRUE(receipt->success);
}

class AuditExactnessTest : public ::testing::Test {
 protected:
  AuditExactnessTest()
      : dump_dir_(::testing::TempDir() + "/audit_exactness_" +
                  std::to_string(static_cast<unsigned>(::getpid()))) {
    // Every violation dumps a triage bundle; keep them out of the way.
    std::filesystem::create_directories(dump_dir_);
    setenv("ONOFF_FLIGHTREC_DIR", dump_dir_.c_str(), 1);
    previous_recorder_ = obs::FlightRecorder::InstallGlobal(&recorder_);
  }
  ~AuditExactnessTest() override {
    obs::FlightRecorder::InstallGlobal(previous_recorder_);
    std::filesystem::remove_all(dump_dir_);
  }

  std::string dump_dir_;
  obs::FlightRecorder recorder_;
  obs::FlightRecorder* previous_recorder_ = nullptr;
};

// Drives two chains through the same randomized blocks: transfers to known,
// fresh and destroyed addresses, creations, SELFDESTRUCTs, reverted calls
// (some of which revert a SELFDESTRUCT), contracts that CREATE, faucet
// credits, and faults injected between blocks through WorldState's public
// mutators.
class LockstepWorkload {
 public:
  LockstepWorkload(uint64_t seed, Blockchain* a, Blockchain* b)
      : rng_(seed), chains_{a, b} {
    for (int i = 0; i < 6; ++i) {
      keys_.push_back(PrivateKey::FromSeed("exactness-" + std::to_string(i)));
      for (Blockchain* chain : chains_) {
        chain->FundAccount(keys_.back().EthAddress(), kEther * U256(100));
      }
    }
  }

  // Mines one randomized block on both chains and returns each chain's
  // reports for it.
  std::vector<std::vector<std::string>> MineBlock() {
    BetweenBlocks();
    std::vector<uint64_t> pending(keys_.size(), 0);
    const int txs = static_cast<int>(Draw(7));
    for (int i = 0; i < txs; ++i) {
      const size_t k = Draw(keys_.size());
      Transaction tx;
      tx.nonce = chains_[0]->GetNonce(keys_[k].EthAddress()) + pending[k]++;
      tx.gas_price = U256(1);
      tx.gas_limit = 200'000;
      switch (Draw(6)) {
        case 0:
          tx.to = keys_[Draw(keys_.size())].EthAddress();
          tx.value = U256(1 + Draw(1000));
          break;
        case 1:
          tx.to = Address::FromWord(U256(0xf000 + Draw(64)));
          tx.value = U256(1 + Draw(1000));
          break;
        case 2:
          tx.to = Pick(destructors_, keys_[k].EthAddress());
          tx.value = U256(Draw(3));
          break;
        case 3:
          tx.data = Draw(2) == 0 ? kSelfDestructorInit : kCreatorInit;
          break;
        case 4: {
          if (!reverter_.has_value()) {
            tx.data = kReverterInit;
            break;
          }
          tx.to = *reverter_;
          Address target = Pick(destructors_, keys_[0].EthAddress());
          tx.data = Bytes(12, 0);
          tx.data.insert(tx.data.end(), target.view().begin(),
                         target.view().end());
          break;
        }
        default:
          tx.to = Pick(creators_, keys_[k].EthAddress());
          break;
      }
      tx.Sign(keys_[k]);
      for (Blockchain* chain : chains_) {
        auto hash = chain->SubmitTransaction(tx);
        EXPECT_TRUE(hash.ok()) << hash.status().ToString();
        if (tx.IsContractCreation() && chain == chains_[0] && hash.ok()) {
          creations_.push_back({*hash, tx.data});
        }
      }
    }
    std::vector<std::vector<std::string>> reports;
    for (Blockchain* chain : chains_) {
      chain->MineBlock();
      reports.push_back(TakeReports(*chain));
    }
    EXPECT_EQ(chains_[0]->blocks().back().header.state_root,
              chains_[1]->blocks().back().header.state_root);
    for (const auto& [hash, init] : creations_) {
      auto receipt = chains_[0]->GetReceipt(hash);
      if (!receipt.ok() || !receipt->success) continue;
      const Address created = receipt->contract_address;
      if (init == kSelfDestructorInit) destructors_.push_back(created);
      if (init == kCreatorInit) creators_.push_back(created);
      if (init == kReverterInit) reverter_ = created;
    }
    creations_.clear();
    return reports;
  }

 private:
  size_t Draw(size_t n) { return static_cast<size_t>(rng_() % n); }

  Address Pick(const std::vector<Address>& from, const Address& fallback) {
    return from.empty() ? fallback : from[Draw(from.size())];
  }

  // Faucet credits and injected faults, applied identically to both chains.
  void BetweenBlocks() {
    if (Draw(6) == 0) {
      const Address to = Draw(2) == 0
                             ? keys_[Draw(keys_.size())].EthAddress()
                             : Address::FromWord(U256(0xf000 + Draw(64)));
      const U256 amount(1 + Draw(1'000'000));
      for (Blockchain* chain : chains_) chain->FundAccount(to, amount);
    }
    if (Draw(5) != 0) return;
    const size_t fault = Draw(6);
    const Address key = keys_[Draw(keys_.size())].EthAddress();
    const Address contract = Pick(creators_, key);
    const Address fresh = Address::FromWord(U256(0xf000 + Draw(64)));
    const U256 amount(1 + Draw(1'000'000));
    for (Blockchain* chain : chains_) {
      state::WorldState& ws = chain->mutable_state_for_test();
      switch (fault) {
        case 0:  // value from nowhere
          ws.AddBalance(key, amount);
          break;
        case 1:  // value into nowhere
          (void)ws.SubBalance(key, amount);
          break;
        case 2:  // a nonce jump on an EOA
          ws.SetNonce(key, ws.GetNonce(key) + 2);
          break;
        case 3:  // a nonce decrease on a contract
          ws.SetNonce(contract, ws.GetNonce(contract) / 2);
          break;
        case 4:  // an account vanishes, balance and all
          ws.DeleteAccount(fresh);
          break;
        default:  // code appears on a fresh account
          ws.SetCode(fresh, Bytes{0x00});
          break;
      }
      ws.ClearJournal();
    }
  }

  std::mt19937_64 rng_;
  std::vector<Blockchain*> chains_;
  std::vector<PrivateKey> keys_;
  std::vector<Address> destructors_;
  std::vector<Address> creators_;
  std::optional<Address> reverter_;
  std::vector<std::pair<Hash32, Bytes>> creations_;
};

// Serial blocks, and parallel ones, whose speculative overlays commit
// through WorldState's public mutators.
class SweepCadenceTest : public AuditExactnessTest,
                         public ::testing::WithParamInterface<ExecMode> {};

TEST_P(SweepCadenceTest, SweepEveryBlockAndEvery64ReportTheSame) {
  uint64_t total_reports = 0;
  std::set<std::string> invariants;
  for (uint64_t seed : {11u, 12u, 13u}) {
    std::unique_ptr<Blockchain> every_block = AuditedChain(1, GetParam());
    std::unique_ptr<Blockchain> every_64 = AuditedChain(64, GetParam());
    LockstepWorkload workload(seed, every_block.get(), every_64.get());
    const uint64_t sweeps_before = FullSweeps();
    for (int block = 0; block < 140; ++block) {
      std::vector<std::vector<std::string>> reports = workload.MineBlock();
      ASSERT_EQ(reports[0], reports[1])
          << "seed " << seed << " block " << every_block->Height();
      total_reports += reports[0].size();
      for (const std::string& r : reports[0]) {
        invariants.insert(r.substr(0, r.find(' ')));
      }
    }
    if (obs::Registry::Global() != nullptr) {
      // Two per-account invariants on each chain: 140 sweeps each on the
      // first, the baseline plus heights 64 and 128 on the second.
      EXPECT_EQ(FullSweeps() - sweeps_before, 2u * (140 + 3));
    }
  }
  // The workload has teeth: both invariants fired.
  EXPECT_GT(total_reports, 10u);
  EXPECT_EQ(invariants, (std::set<std::string>{"conservation", "nonce"}));
}

INSTANTIATE_TEST_SUITE_P(ExecModes, SweepCadenceTest,
                         ::testing::Values(ExecMode::kSerial,
                                           ExecMode::kParallel));

TEST_F(AuditExactnessTest, TrackedFaultIsReportedInItsOwnBlockWithoutASweep) {
  std::unique_ptr<Blockchain> chain = AuditedChain(64);
  const PrivateKey alice = PrivateKey::FromSeed("alice");
  const PrivateKey bob = PrivateKey::FromSeed("bob");
  const Address carol = Address::FromWord(U256(0xca401));
  chain->FundAccount(alice.EthAddress(), kEther * U256(10));
  chain->FundAccount(carol, kEther);
  while (chain->Height() < 10) Transfer(*chain, alice, bob.EthAddress());
  ASSERT_EQ(chain->auditor()->violations(), 0u);

  chain->mutable_state_for_test().AddBalance(carol, kEther);
  chain->mutable_state_for_test().SetNonce(carol, 3);
  const uint64_t sweeps_before = FullSweeps();
  Transfer(*chain, alice, bob.EthAddress());
  EXPECT_EQ(FullSweeps(), sweeps_before);  // block 11 read the touched set
  std::vector<std::string> reports = TakeReports(*chain);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].rfind("conservation | ", 0), 0u) << reports[0];
  EXPECT_NE(reports[0].find(" | 11 | "), std::string::npos) << reports[0];
  EXPECT_EQ(reports[1].rfind("nonce | account nonce changed with no "
                             "transaction from it | 11 | ",
                             0),
            0u)
      << reports[1];
}

// A SELFDESTRUCT undone by its caller's REVERT leaves the same account in
// place, so it keeps its nonce baseline: a nonce fault on it in that block
// is still reported.
TEST_F(AuditExactnessTest, RevertedSelfDestructKeepsTheBaseline) {
  std::unique_ptr<Blockchain> chain = AuditedChain(64);
  const PrivateKey alice = PrivateKey::FromSeed("alice");
  chain->FundAccount(alice.EthAddress(), kEther * U256(10));
  auto deploy = [&](const Bytes& init) {
    auto receipt =
        chain->Execute(alice, std::nullopt, U256(0), init, 200'000);
    EXPECT_TRUE(receipt.ok() && receipt->success);
    return receipt->contract_address;
  };
  const Address destructor = deploy(kSelfDestructorInit);
  const Address reverter = deploy(kReverterInit);
  ASSERT_EQ(chain->GetNonce(destructor), 1u);

  chain->mutable_state_for_test().SetNonce(destructor, 0);
  Bytes target(12, 0);
  target.insert(target.end(), destructor.view().begin(),
                destructor.view().end());
  auto reverted = chain->Execute(alice, reverter, U256(0), target, 200'000);
  ASSERT_TRUE(reverted.ok());
  EXPECT_FALSE(reverted->success);
  ASSERT_TRUE(chain->state().Exists(destructor));
  std::vector<obs::ViolationReport> reports = chain->auditor()->sink().Reports();
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].message, "account nonce decreased");
  EXPECT_EQ(reports[0].block_height, chain->Height());
}

// Between sweeps the nonce invariant also checks the block's senders, even
// ones the block never wrote: receipts that claim success for a sender
// whose nonce did not move are reported from the touched-set path too.
TEST(AuditIncrementalNonceTest, SendersTheBlockNeverWroteAreChecked) {
  obs::AuditorConfig quiet;
  quiet.dump_flight = false;
  obs::Auditor sink(quiet);
  std::vector<std::unique_ptr<BlockInvariant>> invariants =
      MakeBuiltinInvariants("nonce", 64);
  ASSERT_EQ(invariants.size(), 1u);
  BlockInvariant& nonce = *invariants.front();
  state::WorldState ws;
  const PrivateKey alice = PrivateKey::FromSeed("nonce-alice");
  ws.SetNonce(alice.EthAddress(), 4);
  Block block;
  block.header.number = 1;
  nonce.OnBlockCommit(block, /*records=*/{}, {}, ws, sink);  // baseline sweep
  ws.ClearTouched();

  block.header.number = 2;
  for (uint64_t n : {4u, 5u}) {
    Transaction tx;
    tx.nonce = n;
    tx.gas_price = U256(1);
    tx.gas_limit = 21'000;
    tx.to = Address::FromWord(U256(0xdead));
    tx.Sign(alice);
    block.transactions.push_back(tx);
  }
  std::vector<Receipt> receipts(2);
  receipts[0].success = receipts[1].success = true;
  const uint64_t sweeps_before = FullSweeps();
  nonce.OnBlockCommit(block, /*records=*/{}, receipts, ws, sink);
  if (obs::Registry::Global() != nullptr) {
    EXPECT_EQ(FullSweeps(), sweeps_before);
  }
  ASSERT_EQ(sink.violations(), 1u);
  EXPECT_EQ(sink.Reports()[0].message,
            "successful transactions did not all consume a nonce");
}

// (state_history_blocks, height of the block whose audit reports the write)
class UntrackedWriteTest
    : public AuditExactnessTest,
      public ::testing::WithParamInterface<std::pair<uint64_t, uint64_t>> {};

TEST_P(UntrackedWriteTest, IsReportedByTheNextFullSweepAndNotBefore) {
  const auto [history_blocks, caught_at] = GetParam();
  std::unique_ptr<Blockchain> chain = AuditedChain(history_blocks);
  const PrivateKey alice = PrivateKey::FromSeed("alice");
  const PrivateKey bob = PrivateKey::FromSeed("bob");
  const Address carol = Address::FromWord(U256(0xca401));
  const Address dave = Address::FromWord(U256(0xda7e));
  chain->FundAccount(alice.EthAddress(), kEther * U256(10));
  chain->FundAccount(carol, kEther);
  chain->FundAccount(dave, kEther);
  while (chain->Height() < 3) Transfer(*chain, alice, bob.EthAddress());
  ASSERT_EQ(chain->auditor()->violations(), 0u);

  // Neither account is written again, so only a sweep can see these.
  state::WorldState& ws = chain->mutable_state_for_test();
  state::WorldStateTestPeer::Untracked(ws, carol).balance += kEther;
  state::WorldStateTestPeer::Untracked(ws, dave).nonce = 9;
  while (chain->Height() + 1 < caught_at) {
    Transfer(*chain, alice, bob.EthAddress());
    ASSERT_EQ(chain->auditor()->violations(), 0u)
        << "reported early, at block " << chain->Height();
  }
  Transfer(*chain, alice, bob.EthAddress());
  std::vector<obs::ViolationReport> reports = chain->auditor()->sink().Reports();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].invariant, "conservation");
  EXPECT_EQ(reports[0].block_height, caught_at);
  EXPECT_EQ(reports[1].invariant, "nonce");
  EXPECT_EQ(reports[1].message,
            "account nonce changed with no transaction from it");
  EXPECT_EQ(reports[1].block_height, caught_at);
}

INSTANTIATE_TEST_SUITE_P(SweepCadence, UntrackedWriteTest,
                         ::testing::Values(std::make_pair(64u, 64u),
                                           std::make_pair(16u, 16u),
                                           std::make_pair(0u, 4u)));

}  // namespace
}  // namespace onoff::chain
