// Observability overhead: block-mining throughput of the parallel executor
// with the invariant auditor, flight recorder and time-series sampler off
// (baseline), each enabled alone, and all three together.
//
// The workload is the disjoint parallel-execution shape from
// bench_parallel_exec (every sender calls its own compute-loop contract),
// which exercises every instrumented boundary per block: pool admit, block
// start/commit audit, flight-recorder events, and a sampler tick.
//
// Gating is structural, not timed: every mode must reproduce the baseline
// state root and record zero invariant violations. The overhead percentages
// are reported for the JSON/EXPERIMENTS tables but never asserted, so noisy
// CI runners cannot flake this bench.
//
// Writes BENCH_obs_pipeline.json (onoffchain-bench-v1) via --json <path>.

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "chain/blockchain.h"
#include "contracts/betting.h"
#include "easm/assembler.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"

using namespace onoff;

namespace {

// Same compute loop as bench_parallel_exec: 256 ADD/DUP/GT/JUMPI iterations
// ending in an SSTORE, so execution dominates per-tx bookkeeping.
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
  if (!runtime.ok()) std::exit(1);
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
  if (!init.ok()) std::exit(1);
  return *init;
}

struct Mode {
  const char* name;
  const char* audit_invariants;  // "" = auditor off
  size_t flight_recorder_events;
  uint64_t timeseries_interval_ms;
};

struct RunResult {
  double wall_ms = 0;
  double tx_per_s = 0;
  Hash32 state_root{};
  uint64_t violations = 0;
  uint64_t flight_events = 0;
  size_t timeseries_samples = 0;
};

// Mines `blocks` blocks of one call per sender and times only the mining.
RunResult RunWorkload(const Mode& mode, const Bytes& init, size_t senders,
                      uint64_t blocks) {
  chain::ChainConfig config;
  config.exec_mode = chain::ExecMode::kParallel;
  config.max_txs_per_block = senders;
  config.audit_invariants = mode.audit_invariants;
  config.flight_recorder_events = mode.flight_recorder_events;
  config.timeseries_interval_ms = mode.timeseries_interval_ms;
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
    auto deploy = chain.Execute(keys[i], std::nullopt, U256(), init, 500'000);
    if (!deploy.ok() || !deploy->success) std::exit(1);
    contracts.push_back(deploy->contract_address);
    nonces[i] = 1;
  }

  auto run_blocks = [&](uint64_t count) {
    for (uint64_t b = 0; b < count; ++b) {
      for (size_t i = 0; i < senders; ++i) {
        chain::Transaction tx;
        tx.nonce = nonces[i]++;
        tx.gas_price = U256(1);
        tx.gas_limit = 100'000;
        tx.to = contracts[i];
        tx.value = U256();
        tx.Sign(keys[i]);
        auto hash = chain.SubmitTransaction(tx);
        if (!hash.ok()) std::exit(1);
      }
      if (chain.MineBlock().transactions.size() != senders) std::exit(1);
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
  if (chain.auditor() != nullptr) r.violations = chain.auditor()->violations();
  if (obs::FlightRecorder* rec = obs::FlightRecorder::Global()) {
    r.flight_events = rec->events_recorded();
  }
  if (chain.timeseries() != nullptr) {
    r.timeseries_samples = chain.timeseries()->samples();
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      obs::JsonPathFromArgsOrExit(&argc, argv, "BENCH_obs_pipeline.json");
  uint64_t blocks = 16;
  size_t senders = 16;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--blocks") == 0) {
      blocks = std::strtoull(argv[i + 1], nullptr, 10);
    } else if (std::strcmp(argv[i], "--senders") == 0) {
      senders = std::strtoull(argv[i + 1], nullptr, 10);
    }
  }

  // The sampler interval is 0 everywhere except the sampler modes; 1ms makes
  // it fire on essentially every block so the bench measures its worst case.
  const Mode modes[] = {
      {"baseline", "", 0, 0},
      {"auditor", "all", 0, 0},
      {"recorder", "", 4096, 0},
      {"sampler", "", 0, 1},
      {"all", "all", 4096, 1},
  };

  Bytes init = BuildLoopContract();
  std::printf(
      "=== Observability overhead: %" PRIu64
      " parallel blocks x %zu loop-contract txs ===\n\n",
      blocks, senders);
  std::printf("%-10s %12s %12s %10s %7s %6s\n", "mode", "wall (ms)", "tx/s",
              "overhead", "events", "roots");

  // One untimed baseline pass first: timed cold (process-wide code-analysis
  // cache, allocator, CPU clocks), the baseline ran slowest and every
  // instrumented mode showed a negative overhead.
  RunWorkload(modes[0], init, senders, blocks);

  obs::Json results = obs::Json::Array();
  double baseline_tx_per_s = 0;
  Hash32 baseline_root{};
  bool ok = true;
  for (const Mode& mode : modes) {
    RunResult r = RunWorkload(mode, init, senders, blocks);
    bool is_baseline = std::strcmp(mode.name, "baseline") == 0;
    if (is_baseline) {
      baseline_tx_per_s = r.tx_per_s;
      baseline_root = r.state_root;
    }
    // Overhead relative to the uninstrumented run; negative values are run
    // noise and read as ~0.
    double overhead_pct =
        baseline_tx_per_s > 0 && r.tx_per_s > 0
            ? (baseline_tx_per_s / r.tx_per_s - 1.0) * 100.0
            : 0.0;
    bool roots_match = r.state_root == baseline_root;
    std::printf("%-10s %12.1f %12.0f %9.2f%% %7" PRIu64 " %6s\n", mode.name,
                r.wall_ms, r.tx_per_s, overhead_pct, r.flight_events,
                roots_match ? "ok" : "DIFF");
    results.Push(
        obs::Json::Object()
            .Set("mode", obs::Json::Str(mode.name))
            .Set("blocks", obs::Json::Uint(blocks))
            .Set("txs_per_block", obs::Json::Uint(senders))
            .Set("wall_ms", obs::Json::Num(r.wall_ms))
            .Set("tx_per_s", obs::Json::Num(r.tx_per_s))
            .Set("overhead_pct", obs::Json::Num(overhead_pct))
            .Set("audit_violations", obs::Json::Uint(r.violations))
            .Set("flight_events", obs::Json::Uint(r.flight_events))
            .Set("timeseries_samples",
                 obs::Json::Uint(r.timeseries_samples))
            .Set("roots_match", obs::Json::Bool(roots_match)));
    if (!roots_match) {
      std::fprintf(stderr, "state root diverged in mode %s\n", mode.name);
      ok = false;
    }
    if (r.violations != 0) {
      std::fprintf(stderr, "mode %s reported %" PRIu64 " violations\n",
                   mode.name, r.violations);
      ok = false;
    }
  }
  std::printf(
      "\nAll modes must reproduce the baseline state root with zero\n"
      "violations; overhead is informational (target: 'all' within ~5%%\n"
      "on a quiet machine) and never asserted.\n");

  if (!json_path.empty()) {
    Status st =
        obs::WriteBenchJson(json_path, "obs_pipeline", std::move(results));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
