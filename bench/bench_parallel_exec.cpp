// Optimistic parallel execution: block-mining throughput of the serial
// executor vs the speculation-wave executor at several worker counts, on a
// conflict-free workload (every sender calls its own compute-loop contract)
// and a fully conflicting one (every sender increments the same storage
// slot, so every speculation but the first re-executes).
//
// Every parallel run re-derives the serial run's final state root and
// reports `roots_match`; speedup scales with hardware threads, so the
// `hardware_threads` field qualifies the numbers.
//
// Writes BENCH_parallel_exec.json (onoffchain-bench-v1) via --json <path>.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "chain/blockchain.h"
#include "contracts/betting.h"
#include "easm/assembler.h"
#include "obs/export.h"

using namespace onoff;

namespace {

// Gas limit of every loop-contract call; a block must hold one per sender.
constexpr uint64_t kCallGas = 100'000;

[[noreturn]] void Fail(const std::string& reason) {
  std::fprintf(stderr, "bench_parallel_exec: %s\n", reason.c_str());
  std::exit(1);
}

// A compute loop (256 iterations of ADD/DUP/GT/JUMPI) ending in an SSTORE —
// enough EVM work per transaction that execution, not packing, dominates.
Bytes BuildLoopContract() {
  auto runtime = easm::Assemble(R"(
    PUSH1 0x00
    loop: JUMPDEST
    PUSH1 0x01 ADD
    DUP1 PUSH2 0x0100 GT
    PUSH @loop JUMPI
    PUSH1 0x00 SSTORE
    STOP
  )");
  if (!runtime.ok()) {
    Fail("loop contract does not assemble: " + runtime.status().ToString());
  }
  auto hex_len = [&] {
    char buf[8];
    std::snprintf(buf, sizeof buf, "%04zx", runtime->size());
    return std::string(buf);
  };
  std::string init_src = "PUSH2 0x" + hex_len();
  init_src += "\nPUSH @runtime PUSH1 0x01 ADD\nPUSH1 0x00\nCODECOPY\n";
  init_src += "PUSH2 0x" + hex_len();
  init_src += " PUSH1 0x00 RETURN\nruntime: DB 0x" + ToHex(*runtime) + "\n";
  auto init = easm::Assemble(init_src);
  if (!init.ok()) {
    Fail("loop contract deployer does not assemble: " +
         init.status().ToString());
  }
  return *init;
}

struct Mode {
  const char* name;
  chain::ExecMode exec_mode;
  size_t workers;  // 0 = shared pool (hardware-sized)
};

struct RunResult {
  double wall_ms = 0;
  double tx_per_s = 0;
  Hash32 state_root{};
};

// Mines `blocks` blocks of one call per sender and times only the mining.
RunResult RunWorkload(const Mode& mode, const Bytes& init, size_t senders,
                      uint64_t blocks, bool conflicting) {
  chain::ChainConfig config;
  config.exec_mode = mode.exec_mode;
  config.exec_workers = mode.workers;
  config.max_txs_per_block = senders;
  chain::Blockchain chain(config);

  std::vector<secp256k1::PrivateKey> keys;
  std::vector<Address> contracts;
  std::vector<uint64_t> nonces(senders, 0);
  for (size_t i = 0; i < senders; ++i) {
    keys.push_back(
        secp256k1::PrivateKey::FromSeed("bench-" + std::to_string(i)));
    chain.FundAccount(keys.back().EthAddress(), contracts::Ether(1000));
  }
  for (size_t i = 0; i < senders; ++i) {
    auto deploy =
        chain.Execute(keys[i], std::nullopt, U256(), init, 500'000);
    if (!deploy.ok() || !deploy->success) {
      Fail("deploying sender " + std::to_string(i) + "'s loop contract failed");
    }
    contracts.push_back(deploy->contract_address);
    nonces[i] = 1;
  }

  auto run_blocks = [&](uint64_t count) {
    for (uint64_t b = 0; b < count; ++b) {
      for (size_t i = 0; i < senders; ++i) {
        chain::Transaction tx;
        tx.nonce = nonces[i]++;
        tx.gas_price = U256(1);
        tx.gas_limit = kCallGas;
        tx.to = conflicting ? contracts[0] : contracts[i];
        tx.value = U256();
        tx.Sign(keys[i]);
        auto hash = chain.SubmitTransaction(tx);
        if (!hash.ok()) {
          Fail("submitting sender " + std::to_string(i) +
               "'s call failed: " + hash.status().ToString());
        }
      }
      size_t packed = chain.MineBlock().transactions.size();
      if (packed != senders) {
        Fail("a block packed " + std::to_string(packed) + " of " +
             std::to_string(senders) + " calls");
      }
    }
  };
  run_blocks(blocks / 4 + 1);  // warmup

  auto start = std::chrono::steady_clock::now();
  run_blocks(blocks);
  auto end = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  double txs = static_cast<double>(blocks * senders);
  r.tx_per_s = r.wall_ms > 0 ? 1000.0 * txs / r.wall_ms : 0.0;
  r.state_root = chain.state().StateRoot();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      obs::JsonPathFromArgsOrExit(&argc, argv, "BENCH_parallel_exec.json");
  uint64_t blocks = 20;
  size_t senders = 16;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--blocks") == 0) {
      blocks = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--senders") == 0) {
      senders = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  const uint64_t gas_limit = chain::ChainConfig().block_gas_limit;
  if (senders > gas_limit / kCallGas) {
    std::fprintf(stderr,
                 "--senders %zu: one %llu-gas call per sender exceeds the "
                 "%llu block gas limit; at most %llu senders fit\n",
                 senders, static_cast<unsigned long long>(kCallGas),
                 static_cast<unsigned long long>(gas_limit),
                 static_cast<unsigned long long>(gas_limit / kCallGas));
    return 2;
  }

  unsigned hw = std::thread::hardware_concurrency();
  const Mode modes[] = {
      {"serial", chain::ExecMode::kSerial, 0},
      {"parallel_2", chain::ExecMode::kParallel, 2},
      {"parallel_4", chain::ExecMode::kParallel, 4},
      {"parallel_hw", chain::ExecMode::kParallel, 0},
  };

  Bytes init = BuildLoopContract();
  std::printf(
      "=== Parallel execution: %llu blocks x %zu loop-contract txs "
      "(%u hardware threads) ===\n\n",
      static_cast<unsigned long long>(blocks), senders, hw);

  obs::Json results = obs::Json::Array();
  for (bool conflicting : {false, true}) {
    const char* workload = conflicting ? "conflicting" : "disjoint";
    std::printf("--- workload: %s ---\n", workload);
    std::printf("%-12s %8s %12s %12s %9s %6s\n", "mode", "workers",
                "wall (ms)", "tx/s", "speedup", "roots");
    double serial_tx_per_s = 0;
    Hash32 serial_root{};
    for (const Mode& mode : modes) {
      RunResult r = RunWorkload(mode, init, senders, blocks, conflicting);
      bool is_serial = mode.exec_mode == chain::ExecMode::kSerial;
      if (is_serial) {
        serial_tx_per_s = r.tx_per_s;
        serial_root = r.state_root;
      }
      double speedup =
          serial_tx_per_s > 0 ? r.tx_per_s / serial_tx_per_s : 1.0;
      bool roots_match = r.state_root == serial_root;
      std::printf("%-12s %8zu %12.1f %12.0f %8.2fx %6s\n", mode.name,
                  mode.workers, r.wall_ms, r.tx_per_s, speedup,
                  roots_match ? "ok" : "DIFF");
      results.Push(
          obs::Json::Object()
              .Set("workload", obs::Json::Str(workload))
              .Set("mode", obs::Json::Str(mode.name))
              .Set("workers", obs::Json::Num(static_cast<double>(
                                  mode.workers == 0 ? hw : mode.workers)))
              .Set("blocks", obs::Json::Num(static_cast<double>(blocks)))
              .Set("txs_per_block",
                   obs::Json::Num(static_cast<double>(senders)))
              .Set("wall_ms", obs::Json::Num(r.wall_ms))
              .Set("tx_per_s", obs::Json::Num(r.tx_per_s))
              .Set("speedup_vs_serial", obs::Json::Num(speedup))
              .Set("roots_match", obs::Json::Bool(roots_match))
              .Set("hardware_threads",
                   obs::Json::Num(static_cast<double>(hw))));
      if (!roots_match) {
        std::fprintf(stderr, "state root diverged in mode %s\n", mode.name);
        return 1;
      }
    }
    std::printf("\n");
  }

  if (!json_path.empty()) {
    Status st = obs::WriteBenchJson(json_path, "parallel_exec",
                                    std::move(results));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
