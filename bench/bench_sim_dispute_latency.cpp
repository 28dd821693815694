// Simulated-network experiment: dispute-resolution success rate as a
// function of the challenge period under latency, loss and partitions.
//
// The paper's dispute path assumes the winner's deployVerifiedInstance and
// returnDisputeResolution transactions always reach the chain "in time".
// This bench makes that liveness assumption a measured quantity: a
// dishonest loser goes silent, the winner must win the race between the
// network and the challenge period. Every run is driven by the
// deterministic simulator (src/sim/), so identical --sim-seed values
// reproduce identical tables and identical JSON, byte for byte (run with
// ONOFF_METRICS=0 so the JSON carries no host-stamped metrics section).
//
// Flags: --sim-seed N, --trials N, --json PATH, and optionally
// --sim-latency-ms N / --sim-loss P to pin a single sweep point.

#include <cinttypes>
#include <cstdio>
#include <vector>

#include "chain/blockchain.h"
#include "contracts/betting.h"
#include "obs/export.h"
#include "onoff/protocol.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/transport.h"
#include "support/flags.h"

using namespace onoff;
using core::Behavior;
using core::BettingProtocol;
using core::MessageBus;
using core::Settlement;

namespace {

// Derives a unique deterministic seed per (cell, trial) from the base seed.
uint64_t TrialSeed(uint64_t base, uint64_t challenge_ms, uint64_t latency_ms,
                   uint64_t loss_permille, uint64_t trial) {
  uint64_t state = base;
  (void)sim::SplitMix64(&state);
  state ^= challenge_ms * 0x9e3779b97f4a7c15ULL;
  (void)sim::SplitMix64(&state);
  state ^= latency_ms * 0xbf58476d1ce4e5b9ULL;
  (void)sim::SplitMix64(&state);
  state ^= loss_permille * 0x94d049bb133111ebULL;
  (void)sim::SplitMix64(&state);
  state ^= trial;
  return sim::SplitMix64(&state);
}

struct TrialOutcome {
  bool resolved = false;  // settlement == kDisputed with the correct payout
  uint64_t dispute_ms = 0;
  uint64_t dropped = 0;  // transport drops, all causes
  uint64_t violations = 0;  // invariant violations (any nonzero is a bug)
};

// Invariant violations across every trial in the process; the JSON carries
// this as a structural gate (it must be 0 on a healthy build).
uint64_t g_audit_violations = 0;

// One protocol run with a dishonest loser: the winner must push the two
// dispute transactions through the configured network inside the challenge
// period. Latency/loss apply to the participant->chain links only (the
// off-chain bus stays clean, so every run reaches the dispute stage).
TrialOutcome RunDisputeTrial(uint64_t seed, uint64_t latency_ms,
                             uint64_t jitter_ms, double loss,
                             uint64_t challenge_ms,
                             uint64_t partition_start_ms = 0,
                             uint64_t partition_heal_ms = 0) {
  auto alice = secp256k1::PrivateKey::FromSeed("alice");
  auto bob = secp256k1::PrivateKey::FromSeed("bob");
  // The adversarial-soak posture: every trial runs fully audited, with the
  // flight recorder armed and the registry sampled on the virtual clock.
  // All three are deterministic (and the sampler is a no-op under
  // ONOFF_METRICS=0, keeping the exported JSON byte-stable per seed).
  chain::ChainConfig chain_config;
  chain_config.audit_invariants = "all";
  chain_config.flight_recorder_events = 1024;
  chain_config.timeseries_interval_ms = 250;
  chain::Blockchain chain(chain_config);
  chain.FundAccount(alice.EthAddress(), contracts::Ether(10));
  chain.FundAccount(bob.EthAddress(), contracts::Ether(10));
  MessageBus bus;
  contracts::OffchainConfig offchain;
  offchain.secret_alice = U256(0xa11ce);
  offchain.secret_bob = U256(0xb0b);
  offchain.reveal_iterations = 20;

  sim::Scheduler sched;
  sim::SimTransport transport(&sched, seed);
  sim::LinkConfig cfg;
  cfg.latency_ms = latency_ms;
  cfg.jitter_ms = jitter_ms;
  cfg.loss = loss;
  transport.SetLink(alice.EthAddress().ToHex(), "chain", cfg);
  transport.SetLink(bob.EthAddress().ToHex(), "chain", cfg);
  if (partition_heal_ms > partition_start_ms) {
    transport.SchedulePartition(partition_start_ms, {"chain"},
                                partition_heal_ms);
  }

  core::ProtocolTiming timing;
  timing.challenge_period_ms = challenge_ms;
  BettingProtocol protocol(&chain, &bus, alice, bob, offchain,
                           contracts::Ether(1), timing);
  protocol.BindSimulation(&sched, &transport);
  Behavior dishonest;
  dishonest.admit_loss = false;
  auto report = protocol.Run(dishonest, dishonest);
  TrialOutcome out;
  out.dropped = transport.stats().dropped_total();
  out.violations = chain.auditor() != nullptr ? chain.auditor()->violations()
                                              : 0;
  g_audit_violations += out.violations;
  if (!report.ok()) return out;  // counted as unresolved
  out.resolved =
      report->settlement == Settlement::kDisputed && report->correct_payout;
  out.dispute_ms = report->dispute_ms;
  return out;
}

struct Cell {
  uint64_t challenge_ms;
  uint64_t latency_ms;
  uint64_t jitter_ms;
  double loss;
  uint64_t trials;
  uint64_t resolved = 0;
  uint64_t dropped = 0;
  double mean_dispute_ms = 0;

  double success_rate() const {
    return trials > 0 ? static_cast<double>(resolved) / trials : 0;
  }
};

Cell RunCell(uint64_t base_seed, uint64_t challenge_ms, uint64_t latency_ms,
             double loss, uint64_t trials) {
  Cell cell;
  cell.challenge_ms = challenge_ms;
  cell.latency_ms = latency_ms;
  cell.jitter_ms = latency_ms / 4;
  cell.loss = loss;
  cell.trials = trials;
  uint64_t dispute_ms_sum = 0;
  for (uint64_t t = 0; t < trials; ++t) {
    uint64_t seed = TrialSeed(base_seed, challenge_ms, latency_ms,
                              static_cast<uint64_t>(loss * 1000), t);
    TrialOutcome out = RunDisputeTrial(seed, latency_ms, cell.jitter_ms, loss,
                                       challenge_ms);
    cell.dropped += out.dropped;
    if (out.resolved) {
      ++cell.resolved;
      dispute_ms_sum += out.dispute_ms;
    }
  }
  cell.mean_dispute_ms =
      cell.resolved > 0 ? static_cast<double>(dispute_ms_sum) / cell.resolved
                        : 0;
  return cell;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      obs::JsonPathFromArgsOrExit(&argc, argv, "BENCH_sim_dispute_latency.json");
  const uint64_t seed = flags::U64FlagFromArgs(&argc, argv, "sim-seed", 42);
  const uint64_t trials = flags::U64FlagFromArgs(&argc, argv, "trials", 12);
  // Pin a single sweep point when given explicitly (sentinel defaults).
  uint64_t only_latency =
      flags::U64FlagFromArgs(&argc, argv, "sim-latency-ms", 0);
  double only_loss = flags::DoubleFlagFromArgs(&argc, argv, "sim-loss", -1.0);
  flags::ExitOnLeftoverArgs(argc, argv,
                            "[--sim-seed N] [--trials N] [--sim-latency-ms N] "
                            "[--sim-loss P] [--json <path>|-]");

  std::vector<uint64_t> challenges = {250, 1000, 4000, 8000};
  std::vector<uint64_t> latencies = {10, 125, 500, 2000, 4000};
  std::vector<double> losses = {0.0, 0.1, 0.3};
  if (only_latency > 0) latencies = {only_latency};
  if (only_loss >= 0) losses = {only_loss};

  std::printf(
      "=== Simulated network: dispute success vs challenge period ===\n"
      "seed=%" PRIu64 " trials=%" PRIu64
      " per cell; jitter = latency/4; a dishonest loser goes silent and the\n"
      "winner races the challenge period with retransmission every %ums.\n",
      seed, trials, 250u);

  obs::Json rows = obs::Json::Array();
  for (double loss : losses) {
    std::printf("\n-- loss %.0f%% --\n", loss * 100);
    std::printf("%-16s", "latency (ms)");
    for (uint64_t c : challenges) {
      std::printf("  cp=%-6" PRIu64, c);
    }
    std::printf("  %s\n", "mean resolve ms (cp=max)");
    for (uint64_t latency : latencies) {
      std::printf("%-16" PRIu64, latency);
      double last_mean = 0;
      for (uint64_t challenge : challenges) {
        Cell cell = RunCell(seed, challenge, latency, loss, trials);
        std::printf("  %-9.2f", cell.success_rate());
        last_mean = cell.mean_dispute_ms;
        rows.Push(obs::Json::Object()
                      .Set("challenge_period_ms", obs::Json::Uint(challenge))
                      .Set("latency_ms", obs::Json::Uint(latency))
                      .Set("jitter_ms", obs::Json::Uint(cell.jitter_ms))
                      .Set("loss", obs::Json::Num(loss))
                      .Set("trials", obs::Json::Uint(cell.trials))
                      .Set("resolved", obs::Json::Uint(cell.resolved))
                      .Set("success_rate", obs::Json::Num(cell.success_rate()))
                      .Set("mean_dispute_ms",
                           obs::Json::Num(cell.mean_dispute_ms))
                      .Set("transport_drops", obs::Json::Uint(cell.dropped)));
      }
      std::printf("  %.0f\n", last_mean);
    }
  }

  // Partition sweep: the chain is unreachable from T3-1s until `past_t3`
  // ms after T3; the challenge period is 8s. Deterministic (no loss/jitter):
  // resolution succeeds iff the heal leaves enough window for two RTTs.
  std::printf(
      "\n-- partition across T3 (cp=8000ms, latency=50ms, loss=0) --\n");
  std::printf("%-24s %-10s %s\n", "partition past T3 (ms)", "resolved",
              "dispute ms");
  obs::Json partition_rows = obs::Json::Array();
  for (uint64_t past_t3 : {0ull, 2000ull, 4000ull, 6000ull, 7900ull,
                           12000ull}) {
    // T3 sits at virtual 300'000ms (300 s after Run()).
    TrialOutcome out =
        RunDisputeTrial(seed, 50, 0, 0.0, /*challenge_ms=*/8000,
                        /*partition_start_ms=*/299'000,
                        /*partition_heal_ms=*/300'000 + past_t3);
    std::printf("%-24" PRIu64 " %-10s %" PRIu64 "\n", past_t3,
                out.resolved ? "yes" : "no", out.dispute_ms);
    partition_rows.Push(
        obs::Json::Object()
            .Set("partition_past_t3_ms", obs::Json::Uint(past_t3))
            .Set("resolved", obs::Json::Uint(out.resolved ? 1 : 0))
            .Set("dispute_ms", obs::Json::Uint(out.dispute_ms)));
  }

  std::printf(
      "\nSuccess degrades as the one-way delay (latency + jitter, plus\n"
      "retransmission over loss) approaches half the challenge period —\n"
      "two transactions must land — and collapses to 0 when a partition\n"
      "outlives the window. The paper's liveness assumption holds only\n"
      "where this table reads 1.00.\n");

  std::printf("audit: %" PRIu64 " invariant violations across all trials\n",
              g_audit_violations);

  if (!json_path.empty()) {
    obs::Json results = obs::Json::Object();
    results.Set("seed", obs::Json::Uint(seed))
        .Set("trials", obs::Json::Uint(trials))
        .Set("audit_violations", obs::Json::Uint(g_audit_violations))
        .Set("rows", std::move(rows))
        .Set("partition_sweep", std::move(partition_rows));
    Status st = obs::WriteBenchJson(json_path, "sim_dispute_latency",
                                    std::move(results));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
  }
  return 0;
}
