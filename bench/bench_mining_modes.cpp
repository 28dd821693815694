// Mining modes: block-mining throughput of one loop-contract workload under
// every execution and instrumentation mode this repo adds beyond the
// paper's evaluation, one row per mode.
//
//   exec   disjoint and conflicting blocks, mined serially and by the
//          speculation-wave executor on 2, 4 and the hardware-sized pool of
//          workers; vs_baseline is the speedup over the same workload's
//          serial row.
//   obs    disjoint blocks on the hardware-sized pool with the invariant
//          auditor (which arms a 1024-slot flight recorder when none is
//          installed), a 4096-slot flight recorder, the time-series sampler
//          at a 1 ms interval (it fires on essentially every block: the
//          worst case), and all three; vs_baseline is taken against
//          exec/disjoint/parallel_hw.
//   trace  disjoint blocks mined serially, every transaction submitted under
//          its own trace, sampled 1 in 64, all traced, and all traced with a
//          per-opcode structLog; vs_baseline is taken against
//          exec/disjoint/serial, where no tracer is installed, so it also
//          checks that tracing costs nothing when off.
//
// In the disjoint workload every sender calls its own contract; in the
// conflicting one every sender calls sender 0's, so every speculation but
// the first re-executes.
//
// A pass builds a fresh chain, deploys every sender's contract, mines
// blocks/4 + 1 untimed blocks, then times --blocks blocks of one signed
// call per sender (signing, pool admission and mining). Every row runs one
// untimed pass, then kRounds rounds visit every row in turn, so drift of
// the host hits every row alike; a row reports the median tx/s with the
// min-max over the rounds, and vs_baseline is the median of its per-round
// ratios to the same round's baseline row.
//
// Gating is structural: every pass must reproduce its workload's serial
// state root with zero audit violations, or the bench exits 1. Speedups
// and overheads are never asserted (they swing with the host and scale
// with hardware_threads), so noisy CI runners cannot flake it.
//
// Writes BENCH_mining_modes.json (onoffchain-bench-v1) via --json <path>.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "chain/blockchain.h"
#include "contracts/betting.h"
#include "contracts/codegen.h"
#include "easm/assembler.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "support/flags.h"
#include "trace/structlog.h"
#include "trace/trace.h"

using namespace onoff;

namespace {

// Timed rounds after the untimed pass; odd, so the median is one round.
constexpr size_t kRounds = 5;
static_assert(kRounds % 2 == 1);

// Gas limit of every deployment and loop-contract call; a block must hold
// one per sender.
constexpr uint64_t kCallGas = 100'000;

[[noreturn]] void Fail(const std::string& reason) {
  std::fprintf(stderr, "bench_mining_modes: %s\n", reason.c_str());
  std::exit(1);
}

// A compute loop (256 iterations of ADD/DUP/GT/JUMPI) ending in an SSTORE:
// enough EVM work per transaction that execution, not packing, dominates,
// and enough opcodes that per-step hooks show.
Bytes LoopContractInit() {
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
  return contracts::WrapDeployer(*runtime);
}

struct Row {
  const char* section;
  bool conflicting;
  const char* mode;
  size_t baseline;  // index of the row vs_baseline divides by
  size_t root_row;  // index of the serial row whose root every pass matches
  chain::ChainConfig config;
  uint64_t trace_sample_every = 0;  // > 0: trace every tx, keep 1 in N
  bool structlog = false;

  // Filled in by the passes.
  std::vector<double> tx_per_s{};  // one per timed round
  Hash32 first_root{};
  bool roots_match = true;
  uint64_t audit_violations = 0;  // over every pass
  uint64_t flight_events = 0;     // of the last pass
  size_t timeseries_samples = 0;  // of the last pass

  const char* workload() const {
    return conflicting ? "conflicting" : "disjoint";
  }
  size_t workers() const {
    if (config.exec_mode == chain::ExecMode::kSerial) return 1;
    return config.exec_workers != 0 ? config.exec_workers
                                     : std::thread::hardware_concurrency();
  }
};

struct Pass {
  double wall_ms = 0;
  Hash32 state_root{};
  uint64_t audit_violations = 0;
  uint64_t flight_events = 0;
  size_t timeseries_samples = 0;
};

Hash32 Submit(chain::Blockchain& chain, const secp256k1::PrivateKey& key,
              uint64_t nonce, std::optional<Address> to, Bytes data) {
  chain::Transaction tx;
  tx.nonce = nonce;
  tx.gas_price = U256(1);
  tx.gas_limit = kCallGas;
  tx.to = to;
  tx.data = std::move(data);
  tx.Sign(key);
  auto hash = chain.SubmitTransaction(tx);
  if (!hash.ok()) {
    Fail("submitting a transaction failed: " + hash.status().ToString());
  }
  return *hash;
}

void MineFull(chain::Blockchain& chain, size_t senders) {
  size_t packed = chain.MineBlock().transactions.size();
  if (packed != senders) {
    Fail("a block packed " + std::to_string(packed) + " of " +
         std::to_string(senders) + " transactions");
  }
}

// Runs one pass of `row` on a fresh chain and restores every global it
// installs (the tracer here, the flight recorder in ~Blockchain) before it
// returns.
Pass RunPass(const Row& row, const Bytes& init,
             const std::vector<secp256k1::PrivateKey>& keys,
             uint64_t blocks) {
  const size_t senders = keys.size();
  trace::TracerConfig tracer_config;
  tracer_config.sample_every = row.trace_sample_every;
  trace::Tracer tracer(tracer_config);
  trace::Tracer* traced = row.trace_sample_every > 0 ? &tracer : nullptr;
  trace::StructLogConfig structlog_config;
  structlog_config.stack_top_k = 8;
  trace::StructLogTracer structlog(structlog_config);

  chain::ChainConfig config = row.config;
  config.max_txs_per_block = senders;
  chain::Blockchain chain(config);
  for (const auto& key : keys) {
    chain.FundAccount(key.EthAddress(), contracts::Ether(1000));
  }
  std::vector<Hash32> deploys;
  for (const auto& key : keys) {
    deploys.push_back(Submit(chain, key, 0, std::nullopt, init));
  }
  MineFull(chain, senders);
  std::vector<Address> own_contract;
  for (const Hash32& hash : deploys) {
    auto receipt = chain.GetReceipt(hash);
    if (!receipt.ok() || !receipt->success) Fail("a deployment failed");
    own_contract.push_back(receipt->contract_address);
  }

  trace::Tracer* previous_tracer =
      traced != nullptr ? trace::Tracer::InstallGlobal(traced) : nullptr;
  if (row.structlog) chain.set_step_tracer(&structlog);
  uint64_t nonce = 1;
  auto mine_blocks = [&](uint64_t count) {
    for (uint64_t b = 0; b < count; ++b, ++nonce) {
      for (size_t i = 0; i < senders; ++i) {
        Address to = own_contract[row.conflicting ? 0 : i];
        if (traced == nullptr) {
          Submit(chain, keys[i], nonce, to, {});
          continue;
        }
        // One trace per transaction, submitted under its context: the pool
        // keeps the context and mining rejoins the trace.
        trace::ScopedSpan span(traced, traced->StartTrace(), "bench.tx",
                               "bench");
        trace::ScopedContext ambient(span.context());
        Submit(chain, keys[i], nonce, to, {});
      }
      MineFull(chain, senders);
      // Like debug_traceTransaction: keep the collection cost, drop the
      // records.
      if (row.structlog) structlog.Clear();
    }
  };
  mine_blocks(blocks / 4 + 1);  // warm-up: first SSTOREs, pool, caches

  auto start = std::chrono::steady_clock::now();
  mine_blocks(blocks);
  auto end = std::chrono::steady_clock::now();
  if (traced != nullptr) trace::Tracer::InstallGlobal(previous_tracer);

  Pass pass;
  pass.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  pass.state_root = chain.state().StateRoot();
  if (chain.auditor() != nullptr) {
    pass.audit_violations = chain.auditor()->violations();
  }
  if (obs::FlightRecorder* recorder = obs::FlightRecorder::Global()) {
    pass.flight_events = recorder->events_recorded();
  }
  if (chain.timeseries() != nullptr) {
    pass.timeseries_samples = chain.timeseries()->samples();
  }
  return pass;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

std::vector<Row> BuildRows() {
  auto parallel = [](size_t workers) {
    chain::ChainConfig config;
    config.exec_mode = chain::ExecMode::kParallel;
    config.exec_workers = workers;
    return config;
  };
  std::vector<Row> rows;
  for (bool conflicting : {false, true}) {
    const size_t serial = rows.size();
    auto add_exec = [&](const char* mode, chain::ChainConfig config) {
      rows.push_back({.section = "exec",
                      .conflicting = conflicting,
                      .mode = mode,
                      .baseline = serial,
                      .root_row = serial,
                      .config = config});
    };
    add_exec("serial", chain::ChainConfig());
    add_exec("parallel_2", parallel(2));
    add_exec("parallel_4", parallel(4));
    add_exec("parallel_hw", parallel(0));
  }
  const size_t disjoint_serial = 0;
  const size_t disjoint_parallel_hw = 3;

  auto add_obs = [&](const char* mode, const char* audit, size_t recorder,
                     uint64_t sampler_ms) {
    chain::ChainConfig config = parallel(0);
    config.audit_invariants = audit;
    config.flight_recorder_events = recorder;
    config.timeseries_interval_ms = sampler_ms;
    rows.push_back({.section = "obs",
                    .conflicting = false,
                    .mode = mode,
                    .baseline = disjoint_parallel_hw,
                    .root_row = disjoint_serial,
                    .config = config});
  };
  add_obs("auditor", "all", 0, 0);
  add_obs("recorder", "", 4096, 0);
  add_obs("sampler", "", 0, 1);
  add_obs("all", "all", 4096, 1);

  auto add_trace = [&](const char* mode, uint64_t sample_every,
                       bool structlog) {
    rows.push_back({.section = "trace",
                    .conflicting = false,
                    .mode = mode,
                    .baseline = disjoint_serial,
                    .root_row = disjoint_serial,
                    .config = chain::ChainConfig(),
                    .trace_sample_every = sample_every,
                    .structlog = structlog});
  };
  add_trace("sampled_1_in_64", 64, false);
  add_trace("full_spans", 1, false);
  add_trace("full_structlog", 1, true);
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      obs::JsonPathFromArgsOrExit(&argc, argv, "BENCH_mining_modes.json");
  const uint64_t blocks = flags::U64FlagFromArgs(&argc, argv, "blocks", 20);
  const uint64_t senders = flags::U64FlagFromArgs(&argc, argv, "senders", 16);
  flags::ExitOnLeftoverArgs(argc, argv,
                            "[--blocks N] [--senders N] [--json <path>|-]");
  if (blocks == 0 || senders == 0) {
    std::fprintf(stderr, "--blocks and --senders must be at least 1\n");
    return 2;
  }
  const uint64_t gas_limit = chain::ChainConfig().block_gas_limit;
  if (senders > gas_limit / kCallGas) {
    std::fprintf(stderr,
                 "--senders %" PRIu64 ": one %" PRIu64
                 "-gas call per sender exceeds the %" PRIu64
                 " block gas limit; at most %" PRIu64 " senders fit\n",
                 senders, kCallGas, gas_limit, gas_limit / kCallGas);
    return 2;
  }

  std::vector<secp256k1::PrivateKey> keys;
  for (uint64_t i = 0; i < senders; ++i) {
    keys.push_back(
        secp256k1::PrivateKey::FromSeed("bench-" + std::to_string(i)));
  }
  const Bytes init = LoopContractInit();
  const unsigned hw = std::thread::hardware_concurrency();
  std::vector<Row> rows = BuildRows();
  const double txs = static_cast<double>(blocks * senders);

  auto run = [&](size_t r, bool timed) {
    Row& row = rows[r];
    Pass pass = RunPass(row, init, keys, blocks);
    if (!timed && r == row.root_row) row.first_root = pass.state_root;
    if (pass.state_root != rows[row.root_row].first_root) {
      row.roots_match = false;
    }
    row.audit_violations += pass.audit_violations;
    row.flight_events = pass.flight_events;
    row.timeseries_samples = pass.timeseries_samples;
    if (timed) row.tx_per_s.push_back(txs / (pass.wall_ms / 1000.0));
  };
  // The untimed pass also fixes each workload's serial root, which comes
  // before every other row of that workload.
  for (size_t r = 0; r < rows.size(); ++r) run(r, false);
  for (size_t round = 0; round < kRounds; ++round) {
    for (size_t r = 0; r < rows.size(); ++r) run(r, true);
  }

  std::printf(
      "=== Mining modes: %" PRIu64 " blocks x %" PRIu64
      " loop-contract txs, %zu interleaved rounds (%u hardware threads) "
      "===\n\n",
      blocks, senders, kRounds, hw);
  std::printf("%-7s %-12s %-16s %7s %9s %9s %9s %8s %7s %6s\n", "section",
              "workload", "mode", "workers", "tx/s", "min", "max", "vs base",
              "events", "roots");
  obs::Json results = obs::Json::Array();
  bool ok = true;
  for (const Row& row : rows) {
    const Row& base = rows[row.baseline];
    std::vector<double> ratios;
    for (size_t k = 0; k < kRounds; ++k) {
      ratios.push_back(row.tx_per_s[k] / base.tx_per_s[k]);
    }
    const double tx_per_s = Median(row.tx_per_s);
    const double vs_baseline = Median(ratios);
    const auto [min, max] =
        std::minmax_element(row.tx_per_s.begin(), row.tx_per_s.end());
    std::printf("%-7s %-12s %-16s %7zu %9.0f %9.0f %9.0f %7.2fx %7" PRIu64
                " %6s\n",
                row.section, row.workload(), row.mode, row.workers(), tx_per_s,
                *min, *max, vs_baseline, row.flight_events,
                row.roots_match ? "ok" : "DIFF");
    results.Push(
        obs::Json::Object()
            .Set("section", obs::Json::Str(row.section))
            .Set("workload", obs::Json::Str(row.workload()))
            .Set("mode", obs::Json::Str(row.mode))
            .Set("workers", obs::Json::Uint(row.workers()))
            .Set("blocks", obs::Json::Uint(blocks))
            .Set("txs_per_block", obs::Json::Uint(senders))
            .Set("wall_ms", obs::Json::Num(1000.0 * txs / tx_per_s))
            .Set("tx_per_s", obs::Json::Num(tx_per_s))
            .Set("tx_per_s_min", obs::Json::Num(*min))
            .Set("tx_per_s_max", obs::Json::Num(*max))
            .Set("vs_baseline", obs::Json::Num(vs_baseline))
            .Set("roots_match", obs::Json::Bool(row.roots_match))
            .Set("audit_violations", obs::Json::Uint(row.audit_violations))
            .Set("flight_events", obs::Json::Uint(row.flight_events))
            .Set("timeseries_samples", obs::Json::Uint(row.timeseries_samples))
            .Set("hardware_threads", obs::Json::Uint(hw)));
    if (!row.roots_match) {
      std::fprintf(stderr, "%s/%s/%s: state root diverged from serial\n",
                   row.section, row.workload(), row.mode);
      ok = false;
    }
    if (row.audit_violations != 0) {
      std::fprintf(stderr, "%s/%s/%s: %" PRIu64 " audit violations\n",
                   row.section, row.workload(), row.mode,
                   row.audit_violations);
      ok = false;
    }
  }
  std::printf(
      "\ntx/s is the median of %zu rounds, min and max their spread; vs base\n"
      "is the median per-round ratio to the baseline row (exec: the\n"
      "workload's serial row; obs: exec disjoint parallel_hw; trace: exec\n"
      "disjoint serial). Every pass must reproduce its workload's serial\n"
      "state root with zero audit violations; timings are informational.\n",
      kRounds);

  if (!json_path.empty()) {
    Status st =
        obs::WriteBenchJson(json_path, "mining_modes", std::move(results));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return ok ? 0 : 1;
}
