// Static access analysis as a scheduler (DESIGN §12): what the dataflow
// pass costs per contract, how much of a betting-style block it can prove
// conflict-free before the speculation wave, and what that proof is worth
// in block-mining throughput.
//
// Three sections:
//   analysis_cost      - cold AnalyzeProgram time and warm summary-cache
//                        lookup per contract (the paper contracts plus a
//                        synthetic multi-selector contract);
//   betting_static     - a block mix of reassign() calls on distinct
//                        betting instances (statically disjoint) and
//                        deposit() calls (⊤, optimistic fallback): fraction
//                        of commits proven clear statically, containment
//                        violations (must be 0);
//   static_scheduling  - serial vs parallel with exec_static_scheduling
//                        off/on, on a disjoint per-sender workload.
//
// Every row re-derives the serial state root and reports `roots_match`.
// Writes BENCH_access_analysis.json (onoffchain-bench-v1) via --json <path>.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
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

using namespace onoff;

namespace {

double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Wraps `runtime` in init code that returns it verbatim.
Bytes InitFor(const Bytes& runtime) {
  if (runtime.size() > 0xffff) {
    std::fprintf(stderr, "runtime of %zu bytes does not fit PUSH2\n",
                 runtime.size());
    std::exit(1);
  }
  auto hex_len = [&] {
    char buf[8];
    std::snprintf(buf, sizeof buf, "%04x",
                  static_cast<uint16_t>(runtime.size()));
    return std::string(buf);
  };
  std::string src = "PUSH2 0x" + hex_len();
  src += "\nPUSH @runtime PUSH1 0x01 ADD\nPUSH1 0x00\nCODECOPY\n";
  src += "PUSH2 0x" + hex_len();
  src += " PUSH1 0x00 RETURN\nruntime: DB 0x" + ToHex(runtime) + "\n";
  auto init = easm::Assemble(src);
  if (!init.ok()) std::exit(1);
  return *init;
}

// A synthetic contract with `n` selectors, each doing a read-modify-write
// of its own storage slot — the shape the static scheduler is built for.
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

Bytes SelectorCalldata(uint32_t selector) {
  Bytes data;
  data.push_back(static_cast<uint8_t>(selector >> 24));
  data.push_back(static_cast<uint8_t>(selector >> 16));
  data.push_back(static_cast<uint8_t>(selector >> 8));
  data.push_back(static_cast<uint8_t>(selector));
  return data;
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

// ---- Section 2: static disjointness on the betting workload --------------

void BenchBettingWorkload(obs::Json& results, uint64_t blocks) {
  // Per block: 8 plain transfers (payment traffic, statically provable),
  // 4 reassign() and 2 deposit() calls on distinct betting instances. The
  // betting functions carry CALL effects (payout transfers), so their
  // summaries are ⊤ and they ride the optimistic path; the transfers in
  // front of them are the statically disjoint share.
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
    // Statically provable head: disjoint payments. Unknown hints poison
    // the scheduling prefix, so the ⊤ betting calls go last.
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
  uint64_t clear = after.static_clear - before.static_clear;
  uint64_t violations = after.hint_violations - before.hint_violations;
  double pct = committed > 0 ? 100.0 * static_cast<double>(clear) /
                                   static_cast<double>(committed)
                             : 0.0;
  bool roots_match =
      serial.state().StateRoot() == parallel.state().StateRoot();

  std::printf("--- betting workload: static disjointness ---\n");
  std::printf(
      "%llu txs over %llu blocks: %llu committed, %llu statically clear "
      "(%.1f%%), %llu containment violations, roots %s\n\n",
      static_cast<unsigned long long>(total_txs),
      static_cast<unsigned long long>(blocks),
      static_cast<unsigned long long>(committed),
      static_cast<unsigned long long>(clear), pct,
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
          .Set("static_clear", obs::Json::Num(static_cast<double>(clear)))
          .Set("static_clear_pct", obs::Json::Num(pct))
          .Set("hint_violations",
               obs::Json::Num(static_cast<double>(violations)))
          .Set("roots_match", obs::Json::Bool(roots_match)));
  if (!roots_match || violations != 0) std::exit(1);
}

// ---- Section 3: throughput with static scheduling off/on -----------------

struct SchedMode {
  const char* name;
  chain::ExecMode exec_mode;
  bool static_scheduling;
};

double RunDisjointWorkload(const SchedMode& mode, uint64_t blocks,
                           size_t senders, Hash32* root_out) {
  chain::ChainConfig config;
  config.exec_mode = mode.exec_mode;
  config.exec_workers = 4;
  config.exec_static_scheduling = mode.static_scheduling;
  config.max_txs_per_block = senders;
  chain::Blockchain chain(config);

  std::vector<secp256k1::PrivateKey> keys;
  std::vector<uint64_t> nonces(senders, 0);
  for (size_t i = 0; i < senders; ++i) {
    keys.push_back(
        secp256k1::PrivateKey::FromSeed("sched-" + std::to_string(i)));
    chain.FundAccount(keys.back().EthAddress(), contracts::Ether(1000));
  }
  Bytes init = InitFor(PerSelectorSlotContract(senders));
  auto deploy = chain.Execute(keys[0], std::nullopt, U256(), init, 2'000'000);
  if (!deploy.ok() || !deploy->success) std::exit(1);
  Address contract = deploy->contract_address;
  nonces[0] = 1;

  auto run_blocks = [&](uint64_t count) {
    for (uint64_t b = 0; b < count; ++b) {
      for (size_t i = 0; i < senders; ++i) {
        chain::Transaction tx = MakeTx(
            keys[i], nonces[i]++, contract, U256(),
            SelectorCalldata(0x40000000u + static_cast<uint32_t>(i)),
            100'000);
        if (!chain.SubmitTransaction(tx).ok()) std::exit(1);
      }
      if (chain.MineBlock().transactions.size() != senders) std::exit(1);
    }
  };
  run_blocks(blocks / 4 + 1);  // warmup
  double t0 = NowMs();
  run_blocks(blocks);
  double wall_ms = NowMs() - t0;
  *root_out = chain.state().StateRoot();
  return wall_ms;
}

void BenchStaticScheduling(obs::Json& results, uint64_t blocks) {
  constexpr size_t kSenders = 16;
  const SchedMode modes[] = {
      {"serial", chain::ExecMode::kSerial, false},
      {"parallel_static_off", chain::ExecMode::kParallel, false},
      {"parallel_static_on", chain::ExecMode::kParallel, true},
  };
  std::printf("--- disjoint workload: static scheduling off/on ---\n");
  std::printf("%-20s %12s %12s %9s %6s\n", "mode", "wall (ms)", "tx/s",
              "speedup", "roots");
  double serial_tx_per_s = 0;
  Hash32 serial_root{};
  for (const SchedMode& mode : modes) {
    Hash32 root{};
    double wall_ms = RunDisjointWorkload(mode, blocks, kSenders, &root);
    double txs = static_cast<double>(blocks * kSenders);
    double tx_per_s = wall_ms > 0 ? 1000.0 * txs / wall_ms : 0.0;
    bool is_serial = mode.exec_mode == chain::ExecMode::kSerial;
    if (is_serial) {
      serial_tx_per_s = tx_per_s;
      serial_root = root;
    }
    double speedup = serial_tx_per_s > 0 ? tx_per_s / serial_tx_per_s : 1.0;
    bool roots_match = root == serial_root;
    std::printf("%-20s %12.1f %12.0f %8.2fx %6s\n", mode.name, wall_ms,
                tx_per_s, speedup, roots_match ? "ok" : "DIFF");
    results.Push(
        obs::Json::Object()
            .Set("section", obs::Json::Str("static_scheduling"))
            .Set("mode", obs::Json::Str(mode.name))
            .Set("blocks", obs::Json::Num(static_cast<double>(blocks)))
            .Set("txs_per_block",
                 obs::Json::Num(static_cast<double>(kSenders)))
            .Set("wall_ms", obs::Json::Num(wall_ms))
            .Set("tx_per_s", obs::Json::Num(tx_per_s))
            .Set("speedup_vs_serial", obs::Json::Num(speedup))
            .Set("roots_match", obs::Json::Bool(roots_match)));
    if (!roots_match) std::exit(1);
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      obs::JsonPathFromArgsOrExit(&argc, argv, "BENCH_access_analysis.json");
  uint64_t blocks = 20;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--blocks") == 0) {
      blocks = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }

  std::printf("=== Static access analysis & pre-scheduling (%u threads) ===\n\n",
              std::thread::hardware_concurrency());
  obs::Json results = obs::Json::Array();
  BenchAnalysisCost(results);
  BenchBettingWorkload(results, blocks);
  BenchStaticScheduling(results, blocks);

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
