// protocol_lifecycle: the participants' view (paper Fig. 2 and Table II).
// Full core::BettingProtocol::Run lifecycles with reveal_iterations = 1000;
// the loser disputes with p = 0.2 and every chain is audited. Each instance
// gets a fresh chain, built outside the timed call; its blocks hold one
// transaction each, so the parallel executor never runs, and the protocol
// driver, codegen, signing and the pre-signing analyzer dominate. Closed
// loop: the next settlement starts when the previous one returns.

#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "chain/blockchain.h"
#include "contracts/betting.h"
#include "generator.h"
#include "obs/metrics.h"
#include "onoff/message_bus.h"
#include "onoff/protocol.h"

namespace perfbench {

using namespace onoff;

namespace {

constexpr const char* kStageNames[core::kNumStages] = {
    "split_generate", "deploy_sign", "submit_challenge", "dispute_resolve"};

// The seeded inputs every settlement of a run shares. The participants and
// secrets are fixed per seed, so every settlement of one kind is the same
// on-chain: its gas must repeat exactly.
struct Inputs {
  Inputs(const secp256k1::PrivateKey& a, const secp256k1::PrivateKey& b)
      : alice(a), bob(b), alice_addr(a.EthAddress()), bob_addr(b.EthAddress()) {}

  secp256k1::PrivateKey alice;
  secp256k1::PrivateKey bob;
  Address alice_addr;
  Address bob_addr;
  contracts::OffchainConfig offchain;
  bool bob_wins = false;
  // Per settlement kind ([0] optimistic, [1] disputed), from set-up's
  // reference runs.
  uint64_t gas[2] = {0, 0};
  uint64_t bytes[2] = {0, 0};
};

struct Outcome {
  bool ok = false;
  core::ProtocolReport report;
  double run_us = 0;
  double mine_us = 0;  // chain.mine_block_us observed during Run
  double mined_blocks = 0;
  uint64_t height = 0;  // blocks on the instance's chain
};

// One settlement on a fresh audited chain; checks its outcome.
Outcome Settle(const Inputs& in, bool dispute, bool flip_winner,
                  bool flip_root, SpanRecorder* spans, Report* report) {
  static obs::Histogram* mine_hist = obs::GetHistogramOrNull(
      "chain.mine_block_us", obs::DefaultTimeBucketsUs());
  Outcome out;
  std::unique_ptr<chain::Blockchain> chain;
  {
    SpanRecorder::Scope s(spans, "chain.build");
    chain::ChainConfig config;
    config.audit_invariants = "all";
    chain = std::make_unique<chain::Blockchain>(config);
    chain->FundAccount(in.alice_addr, BettingPlanner::ParticipantFunds());
    chain->FundAccount(in.bob_addr, BettingPlanner::ParticipantFunds());
  }
  core::MessageBus bus;
  core::BettingProtocol protocol(chain.get(), &bus, in.alice, in.bob,
                                 in.offchain, BettingPlanner::Deposit());
  core::Behavior honest;
  core::Behavior silent_loser;
  silent_loser.admit_loss = false;
  const core::Behavior& alice = dispute && in.bob_wins ? silent_loser : honest;
  const core::Behavior& bob = dispute && !in.bob_wins ? silent_loser : honest;

  const double mine_sum0 = mine_hist != nullptr ? mine_hist->Sum() : 0;
  const double mine_n0 =
      mine_hist != nullptr ? static_cast<double>(mine_hist->Count()) : 0;
  const uint64_t t0 = NowNs();
  Result<core::ProtocolReport> r = [&] {
    SpanRecorder::Scope s(spans, "protocol.run");
    return protocol.Run(alice, bob);
  }();
  out.run_us = static_cast<double>(NowNs() - t0) / 1e3;
  if (mine_hist != nullptr) {
    out.mine_us = mine_hist->Sum() - mine_sum0;
    out.mined_blocks = static_cast<double>(mine_hist->Count()) - mine_n0;
  }
  out.height = chain->Height();

  report->Check(r.ok(), "protocol run: " + r.status().ToString());
  if (!r.ok()) return out;
  out.report = *r;
  const int kind = dispute ? 1 : 0;
  const core::Settlement want =
      dispute ? core::Settlement::kDisputed : core::Settlement::kOptimistic;
  report->Check(out.report.settlement == want,
                std::string("settled ") +
                    core::SettlementName(out.report.settlement) +
                    ", expected " + core::SettlementName(want));
  report->Check(out.report.bob_won == (in.bob_wins != flip_winner) &&
                    out.report.correct_payout,
                "settlement did not pay its rightful winner");
  report->Check(in.gas[kind] == 0 || out.report.TotalGas() == in.gas[kind],
                "gas differs from the other settlements of its kind");
  report->Check(chain->auditor() != nullptr &&
                    chain->auditor()->violations() == 0,
                "audit violations");
  Hash32 expected = chain->state().RebuildStateRoot();
  if (flip_root) expected[0] ^= 1;
  report->Check(chain->state().StateRoot() == expected,
                "state root differs from a from-scratch rebuild");
  out.ok = true;
  return out;
}

// Keys, secrets, and one reference settlement of each kind (which also
// fills the analysis and code caches before timing).
bool SetUp(const Options& opt, Report* report, std::unique_ptr<Inputs>* out) {
  auto in = std::make_unique<Inputs>(DeriveKey(opt.seed, "alice", 0),
                                     DeriveKey(opt.seed, "bob", 0));
  Rng secrets(opt.seed);
  in->offchain.alice = in->alice_addr;
  in->offchain.bob = in->bob_addr;
  in->offchain.secret_alice = U256(secrets.Next());
  in->offchain.secret_bob = U256(secrets.Next());
  in->offchain.reveal_iterations = opt.tiny ? 100 : 1'000;
  in->bob_wins = contracts::ComputeWinner(in->offchain);
  for (int kind = 0; kind < 2; ++kind) {
    Outcome s = Settle(*in, kind == 1, false, false, nullptr, report);
    if (!s.ok) return false;
    in->gas[kind] = s.report.TotalGas();
    in->bytes[kind] = s.report.TotalOnchainBytes();
  }
  *out = std::move(in);
  return true;
}

}  // namespace

void RunProtocolLifecycle(const Options& opt, Report* report) {
  // Set-up is short here, so more repetitions steady its median.
  const int reps = opt.tiny ? 1 : 5;
  std::vector<double> setup_s;
  std::unique_ptr<Inputs> in;
  for (int r = 0; r < reps; ++r) {
    const uint64_t t0 = NowNs();
    bool ok = SetUp(opt, report, &in);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    if (!ok) return;
  }

  SpanRecorder spans;
  RegistryDelta registry;
  DisputePattern pattern(opt.seed);
  std::vector<double> settle_ms;
  std::vector<double> dispute_ms;
  std::vector<double> block_ms;
  std::vector<double> offchain_us;
  std::vector<double> heights;
  std::array<double, core::kNumStages> stage_gas{};
  std::array<double, core::kNumStages> stage_offchain{};
  double txs = 0;
  double gas = 0;
  double window_us = 0;
  double traced_us = 0;
  double untraced_us = 0;
  double traced_n = 0;
  double untraced_n = 0;
  size_t runs = 0;
  CpuRotation rotation;
  registry.Begin();
  while (window_us < opt.seconds * 1e6) {
    rotation.MaybeNext();
    const bool dispute = pattern.Next();
    const bool traced = opt.trace && runs % 2 == 0;
    spans.set_enabled(traced);
    Outcome s = Settle(*in, dispute, runs == 0 && opt.inject == "payout",
                          runs == 0 && opt.inject == "root", &spans, report);
    spans.set_enabled(false);
    ++runs;
    window_us += s.run_us;
    (traced ? traced_us : untraced_us) += s.run_us;
    (traced ? traced_n : untraced_n) += 1;
    if (!s.ok) continue;
    settle_ms.push_back(s.run_us / 1e3);
    if (dispute) dispute_ms.push_back(s.run_us / 1e3);
    block_ms.push_back(Ratio(s.mine_us, s.mined_blocks) / 1e3);
    offchain_us.push_back(s.run_us - s.mine_us);
    heights.push_back(static_cast<double>(s.height));
    for (int i = 0; i < core::kNumStages; ++i) {
      const core::StageReport& stage = s.report.stages[i];
      stage_gas[i] += static_cast<double>(stage.gas_used);
      stage_offchain[i] += static_cast<double>(stage.offchain_bytes);
      txs += stage.transactions;
    }
    gas += static_cast<double>(s.report.TotalGas());
  }
  registry.End();

  // ---- End-to-end metrics ----
  const double window_s = window_us / 1e6;
  const uint64_t n = settle_ms.size();
  report->Set("tx_per_s", Ratio(txs, window_s), n);
  report->Set("mgas_per_s", Ratio(gas / 1e6, window_s), n);
  // Mean MineBlock time within each settlement (its own chain's blocks and
  // the participants' local executions), over settlements.
  report->Set("block_ms_p50", Quantile(block_ms, 0.5), n);
  report->Set("block_ms_p90", Quantile(block_ms, 0.9), n);
  report->Set("settle_ms_p50", Quantile(settle_ms, 0.5), n);
  report->Set("settle_ms_p99", Quantile(settle_ms, 0.99), n);
  report->Set("dispute_settle_ms_p50", Quantile(dispute_ms, 0.5),
              dispute_ms.size());
  // E[gas](p): every settlement of a kind costs the same (checked above).
  report->Set("gas_per_settlement",
              (1 - kDisputeRate) * static_cast<double>(in->gas[0]) +
                  kDisputeRate * static_cast<double>(in->gas[1]),
              n);
  report->Set("onchain_bytes_per_settlement",
              (1 - kDisputeRate) * static_cast<double>(in->bytes[0]) +
                  kDisputeRate * static_cast<double>(in->bytes[1]),
              n);
  std::sort(setup_s.begin(), setup_s.end());
  report->Set("setup_s", setup_s[setup_s.size() / 2], setup_s.size());

  // ---- Per-layer metrics ----
  const double settled = static_cast<double>(n);
  SetRegistryLayers(registry, registry.Count("chain.blocks_mined"), txs, gas,
                    report);
  for (int i = 0; i < core::kNumStages; ++i) {
    std::string prefix = std::string("onoff.stage.") + kStageNames[i];
    report->Set(prefix + ".gas", Ratio(stage_gas[i], settled), n);
    report->Set(prefix + ".offchain_bytes", Ratio(stage_offchain[i], settled),
                n);
  }
  auto per_settlement = [&](const char* metric, const char* counter) {
    report->Set(metric, Ratio(registry.Count(counter), settled), n);
  };
  per_settlement("bus.messages_per_settlement", "bus.messages_sent");
  per_settlement("crypto.sign_ops_per_settlement", "crypto.sign_ops");
  per_settlement("crypto.verify_ops_per_settlement", "crypto.verify_ops");
  per_settlement("crypto.recover_ops_per_settlement", "crypto.recover_ops");
  per_settlement("evm.creates_per_settlement", "evm.creates");
  per_settlement("analysis.programs_per_settlement", "analysis.programs");
  report->Set("chain.blocks_per_settlement", Mean(heights), n);
  report->Set("onoff.offchain_us_per_settlement", Mean(offchain_us), n);
  report->Set("chain.mine_us_p50", 1e3 * Quantile(block_ms, 0.5), n);
  report->Set("chain.mine_us_p90", 1e3 * Quantile(block_ms, 0.9), n);
  report->Set("evm.mgas_per_s",
              Ratio(gas, registry.HistSum("chain.apply_tx_us")), n);
  if (opt.trace) {
    report->Set("trace.overhead_pct",
                100.0 * (Ratio(Ratio(traced_us, traced_n),
                               Ratio(untraced_us, untraced_n)) -
                         1.0),
                runs);
    report->Set("trace.spans", static_cast<double>(spans.size()), spans.size());
    if (!opt.trace_out.empty()) {
      report->Check(spans.WriteChromeTrace(opt.trace_out),
                    "writing " + opt.trace_out);
      std::printf("spans written to %s\n", opt.trace_out.c_str());
    }
  }
}

}  // namespace perfbench
