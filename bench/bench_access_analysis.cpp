// Static access analysis (DESIGN §12): what the dataflow pass costs per
// contract, and whether the access hints built from its summaries hold on
// a betting-style parallel block.
//
// Two sections:
//   analysis_cost   - cold AnalyzeProgram time and warm summary-cache
//                     lookup per contract (the paper contracts plus a
//                     synthetic multi-selector contract);
//   betting_static  - a block mix of plain transfers (known hints) and
//                     reassign()/deposit() calls on distinct betting
//                     instances (⊤ hints) on a parallel chain with the
//                     containment audit on: commits, containment
//                     violations (must be 0), and the serial state root.
//
// Every row reports `roots_match`: the betting row re-derives the serial
// root, the analysis rows execute nothing and report a trivially-true bit.
// Writes BENCH_access_analysis.json (onoffchain-bench-v1) via --json <path>.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "analysis/access_summary.h"
#include "analysis/analyzer.h"
#include "chain/blockchain.h"
#include "contracts/betting.h"
#include "crypto/keccak.h"
#include "easm/assembler.h"
#include "obs/export.h"
#include "support/flags.h"

using namespace onoff;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// A synthetic contract with `n` selectors, each doing a read-modify-write
// of its own storage slot — a summary with one constant slot per selector.
Bytes PerSelectorSlotContract(size_t n) {
  // Selector i stores to slot 0x50 + i, which must fit PUSH1.
  constexpr size_t kMaxSelectors = 0x100 - 0x50;
  if (n > kMaxSelectors) {
    std::fprintf(stderr, "%zu selectors requested, at most %zu fit\n", n,
                 kMaxSelectors);
    std::exit(1);
  }
  std::string src = "PUSH1 0x00 CALLDATALOAD PUSH1 0xe0 SHR\n";
  for (size_t i = 0; i < n; ++i) {
    char sel[16];
    std::snprintf(sel, sizeof sel, "0x4000%04x", static_cast<uint16_t>(i));
    src += "DUP1 PUSH4 " + std::string(sel) + " EQ PUSH @f" +
           std::to_string(i) + " JUMPI\n";
  }
  src += "PUSH1 0x00 PUSH1 0x00 REVERT\n";
  for (size_t i = 0; i < n; ++i) {
    char slot[8];
    std::snprintf(slot, sizeof slot, "0x%02x",
                  static_cast<uint8_t>(0x50 + i));
    src += "f" + std::to_string(i) + ":\nPOP PUSH1 " + std::string(slot) +
           " SLOAD PUSH1 0x01 ADD PUSH1 " + std::string(slot) +
           " SSTORE STOP\n";
  }
  auto code = easm::Assemble(src);
  if (!code.ok()) std::exit(1);
  return *code;
}

chain::Transaction MakeTx(const secp256k1::PrivateKey& key, uint64_t nonce,
                          std::optional<Address> to, const U256& value,
                          Bytes data, uint64_t gas_limit) {
  chain::Transaction tx;
  tx.nonce = nonce;
  tx.gas_price = U256(1);
  tx.gas_limit = gas_limit;
  tx.to = to;
  tx.value = value;
  tx.data = std::move(data);
  tx.Sign(key);
  return tx;
}

// ---- Section 1: analysis cost per contract -------------------------------

void BenchAnalysisCost(obs::Json& results) {
  contracts::BettingConfig bcfg;
  bcfg.alice = secp256k1::PrivateKey::FromSeed("alice").EthAddress();
  bcfg.bob = secp256k1::PrivateKey::FromSeed("bob").EthAddress();
  bcfg.deposit_amount = contracts::Ether(1);
  contracts::OffchainConfig ocfg;
  ocfg.alice = bcfg.alice;
  ocfg.bob = bcfg.bob;
  ocfg.secret_alice = U256(0xa11ce);
  ocfg.secret_bob = U256(0xb0b);
  ocfg.reveal_iterations = 20;

  auto onchain = contracts::BuildOnChainRuntime(bcfg);
  auto offchain = contracts::BuildOffChainRuntime(ocfg);
  if (!onchain.ok() || !offchain.ok()) std::exit(1);

  struct Subject {
    const char* name;
    Bytes code;
  };
  const Subject subjects[] = {
      {"betting_onchain", *onchain},
      {"betting_offchain", *offchain},
      {"synthetic_8sel", PerSelectorSlotContract(8)},
  };

  std::printf("--- analysis cost per contract ---\n");
  std::printf("%-18s %10s %14s %14s\n", "contract", "bytes", "cold (us)",
              "cached (us)");
  constexpr int kIters = 200;
  for (const Subject& s : subjects) {
    Hash32 hash = Keccak256(s.code);
    // Cold: full dataflow analysis, cache cleared every round.
    double t0 = NowMs();
    for (int i = 0; i < kIters; ++i) {
      analysis::AccessSummaryCache::Global().Clear();
      auto access = analysis::AccessSummaryCache::Global().Get(hash, s.code);
      if (access == nullptr) std::exit(1);
    }
    double cold_us = (NowMs() - t0) * 1000.0 / kIters;
    // Warm: the per-code-hash lookup every executor worker pays.
    t0 = NowMs();
    for (int i = 0; i < kIters; ++i) {
      auto access = analysis::AccessSummaryCache::Global().Get(hash, s.code);
      if (access == nullptr) std::exit(1);
    }
    double warm_us = (NowMs() - t0) * 1000.0 / kIters;
    std::printf("%-18s %10zu %14.1f %14.2f\n", s.name, s.code.size(), cold_us,
                warm_us);
    results.Push(obs::Json::Object()
                     .Set("section", obs::Json::Str("analysis_cost"))
                     .Set("contract", obs::Json::Str(s.name))
                     .Set("code_bytes",
                          obs::Json::Num(static_cast<double>(s.code.size())))
                     .Set("analysis_us", obs::Json::Num(cold_us))
                     .Set("cache_hit_us", obs::Json::Num(warm_us))
                     .Set("roots_match", obs::Json::Bool(true)));
  }
  std::printf("\n");
}

// ---- Section 2: containment audit on the betting workload ---------------

void BenchBettingWorkload(obs::Json& results, uint64_t blocks) {
  // Per block: 8 plain transfers (payment traffic, known hints), 4
  // reassign() and 2 deposit() calls on distinct betting instances. The
  // betting functions carry CALL effects (payout transfers), so their
  // summaries are ⊤ and their hints unknown; the transfers' hints are the
  // audited share.
  constexpr size_t kInstances = 8;
  constexpr size_t kTransfers = 8;
  constexpr size_t kReassigns = 4;
  constexpr size_t kDeposits = 2;
  constexpr size_t kBlockTxs = kTransfers + kReassigns + kDeposits;
  chain::ChainConfig serial_cfg;
  serial_cfg.max_txs_per_block = kBlockTxs;
  chain::ChainConfig par_cfg;
  par_cfg.exec_mode = chain::ExecMode::kParallel;
  par_cfg.exec_workers = 4;
  par_cfg.check_static_containment = true;
  par_cfg.max_txs_per_block = kBlockTxs;
  chain::Blockchain serial(serial_cfg);
  chain::Blockchain parallel(par_cfg);

  std::vector<secp256k1::PrivateKey> keys;
  std::vector<uint64_t> nonces(kInstances + kTransfers, 0);
  for (size_t i = 0; i < kInstances + kTransfers; ++i) {
    keys.push_back(
        secp256k1::PrivateKey::FromSeed("bet-" + std::to_string(i)));
    for (auto* c : {&serial, &parallel}) {
      c->FundAccount(keys.back().EthAddress(), contracts::Ether(1000));
    }
  }

  // One betting instance per sender pair; deposits stay open (huge t1).
  std::vector<Address> instances;
  for (size_t i = 0; i < kInstances; ++i) {
    contracts::BettingConfig cfg;
    cfg.alice = keys[i].EthAddress();
    cfg.bob = keys[(i + 1) % kInstances].EthAddress();
    cfg.deposit_amount = contracts::Ether(1);
    cfg.t1 = 1u << 30;
    auto init = contracts::BuildOnChainInit(cfg);
    if (!init.ok()) std::exit(1);
    chain::Transaction deploy =
        MakeTx(keys[i], nonces[i]++, std::nullopt, U256(), *init, 2'000'000);
    for (auto* c : {&serial, &parallel}) {
      if (!c->SubmitTransaction(deploy).ok()) std::exit(1);
      c->MineBlock();
    }
    auto receipt = parallel.GetReceipt(deploy.Hash());
    if (!receipt.ok() || !receipt->success) std::exit(1);
    instances.push_back(receipt->contract_address);
  }

  chain::ParallelExecStats before = parallel.parallel_stats();
  uint64_t total_txs = 0;
  for (uint64_t b = 0; b < blocks; ++b) {
    std::vector<chain::Transaction> txs;
    // Disjoint payments: hints name only intrinsic account fields.
    for (size_t i = 0; i < kTransfers; ++i) {
      size_t k = kInstances + i;
      auto recipient = secp256k1::PrivateKey::FromSeed(
          "pay-" + std::to_string(b) + "-" + std::to_string(i));
      txs.push_back(MakeTx(keys[k], nonces[k]++, recipient.EthAddress(),
                           U256(1000), {}, 21'000));
    }
    // ⊤ tail: reassign()/deposit() summaries carry CALL effects.
    for (size_t i = 0; i < kReassigns; ++i) {
      size_t k = (b + i) % kInstances;
      txs.push_back(MakeTx(keys[k], nonces[k]++, instances[k], U256(),
                           contracts::ReassignCalldata(), 200'000));
    }
    for (size_t i = 0; i < kDeposits; ++i) {
      size_t k = (b + kReassigns + i) % kInstances;
      txs.push_back(MakeTx(keys[k], nonces[k]++, instances[k],
                           contracts::Ether(1),
                           contracts::DepositCalldata(), 300'000));
    }
    for (const chain::Transaction& tx : txs) {
      for (auto* c : {&serial, &parallel}) {
        if (!c->SubmitTransaction(tx).ok()) std::exit(1);
      }
    }
    serial.MineBlock();
    parallel.MineBlock();
    total_txs += txs.size();
  }

  const chain::ParallelExecStats& after = parallel.parallel_stats();
  uint64_t committed = after.committed - before.committed;
  uint64_t violations = after.hint_violations - before.hint_violations;
  bool roots_match =
      serial.state().StateRoot() == parallel.state().StateRoot();

  std::printf("--- betting workload: containment audit ---\n");
  std::printf(
      "%llu txs over %llu blocks: %llu committed, %llu containment "
      "violations, roots %s\n\n",
      static_cast<unsigned long long>(total_txs),
      static_cast<unsigned long long>(blocks),
      static_cast<unsigned long long>(committed),
      static_cast<unsigned long long>(violations),
      roots_match ? "ok" : "DIFF");
  results.Push(
      obs::Json::Object()
          .Set("section", obs::Json::Str("betting_static"))
          .Set("blocks", obs::Json::Num(static_cast<double>(blocks)))
          .Set("transfers_per_block",
               obs::Json::Num(static_cast<double>(kTransfers)))
          .Set("betting_calls_per_block",
               obs::Json::Num(static_cast<double>(kReassigns + kDeposits)))
          .Set("txs", obs::Json::Num(static_cast<double>(total_txs)))
          .Set("committed", obs::Json::Num(static_cast<double>(committed)))
          .Set("hint_violations",
               obs::Json::Num(static_cast<double>(violations)))
          .Set("roots_match", obs::Json::Bool(roots_match)));
  if (!roots_match || violations != 0) std::exit(1);
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      obs::JsonPathFromArgsOrExit(&argc, argv, "BENCH_access_analysis.json");
  uint64_t blocks = flags::U64FlagFromArgs(&argc, argv, "blocks", 20);
  flags::ExitOnLeftoverArgs(argc, argv, "[--blocks N] [--json <path>|-]");

  std::printf("=== Static access analysis (%u threads) ===\n\n",
              std::thread::hardware_concurrency());
  obs::Json results = obs::Json::Array();
  BenchAnalysisCost(results);
  BenchBettingWorkload(results, blocks);

  if (!json_path.empty()) {
    Status st = obs::WriteBenchJson(json_path, "access_analysis",
                                    std::move(results));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
