// The two node workloads. Pre-signed wire transactions are decoded,
// admitted and mined block by block through the public chain API
//   Transaction::Decode -> Blockchain::SubmitTransaction -> MineBlock
// in a closed loop from one process. The chain's block clock is virtual
// (4 s a block), so inclusion latency in chain time is set by the block
// interval; what the CPU bounds, and what is timed here, is how fast the
// node admits and mines.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "chain/blockchain.h"
#include "generator.h"

namespace perfbench {

using namespace onoff;

namespace {

struct NodeWorkload {
  NodeShape shape;
  chain::ChainConfig config;
  size_t warmup_blocks = 0;
  // Blocks pre-signed during set-up per measured second. If the node
  // outruns them, more are signed between timed blocks.
  double planned_blocks_per_s = 0;
  // Replay every block on a serial chain after the window, to check roots
  // and derive the parallel speedup.
  bool serial_oracle = false;
};

// mixed_serial: the ROADMAP's headline node path. Signed transfers from 2 k
// senders to 50 k funded accounts, with betting instances settling alongside
// (four start every block, so about 1 in 10 transactions is a betting call,
// and one instance in five disputes). Serial execution, every audit
// invariant, and persistence to the in-memory node store (a disk store
// would add fsync noise). The cost sits in sender recovery, the pool, state
// commit and persist, and the O(accounts) conservation audit; EVM work is
// small and the parallel executor never runs.
NodeWorkload MixedSerial(bool tiny) {
  NodeWorkload w;
  w.shape.traffic = NodeShape::Traffic::kTransfers;
  w.shape.senders = tiny ? 100 : 2'000;
  w.shape.recipients = tiny ? 2'000 : 50'000;
  w.shape.transfers_per_block = tiny ? 40 : 150;
  w.shape.starts_per_4_blocks = tiny ? 4 : 16;
  w.shape.reveal_iterations = 20;
  w.config.exec_mode = chain::ExecMode::kSerial;
  w.config.audit_invariants = "all";
  w.config.persist_state = true;  // empty state_db_path: in-memory store
  w.warmup_blocks = tiny ? 1 : 3;
  w.planned_blocks_per_s = 6;
  return w;
}

// compute_parallel: the only workload where the EVM and the parallel
// executor dominate. ~100 k-gas loop calls to per-sender contracts; one call
// in eight hits one shared counter, so conflicts and re-execution show up.
// Block fill is drawn per block from a few calls up to the gas limit, which
// spans the ≈32 tx/block point where the speculation wave starts to win on
// 4 threads. One betting instance starts every 4th block, so participants'
// settlement is measured under compute load too. Parallel execution with
// no more workers than hardware threads; audit and persist off; small
// state. The containment oracle is on, because the zero-hint-violation gate
// needs it.
NodeWorkload ComputeParallel(bool tiny) {
  NodeWorkload w;
  w.shape.traffic = NodeShape::Traffic::kCompute;
  w.shape.senders = tiny ? 24 : 96;
  w.shape.min_calls = tiny ? 2 : 4;
  w.shape.max_calls = tiny ? 20 : 64;
  w.shape.starts_per_4_blocks = 1;
  w.shape.reveal_iterations = 20;
  w.config.exec_mode = chain::ExecMode::kParallel;
  w.config.exec_workers = std::min<size_t>(HardwareThreads(), 8);
  w.config.check_static_containment = true;
  w.warmup_blocks = tiny ? 2 : 20;
  w.planned_blocks_per_s = 45;
  w.serial_oracle = true;
  return w;
}

// One set-up: the chain after genesis and deploys, plus the stream.
struct NodeRun {
  std::unique_ptr<NodeStream> stream;
  std::unique_ptr<chain::Blockchain> chain;
  std::vector<WireTx> deploys;
  std::vector<PlannedBlock> blocks;
  // Participants funded right before stream block i (the oracle replays
  // the funding at the same points).
  std::map<size_t, std::vector<Address>> funding;
  double genesis_commit_s = 0;
};

Status SubmitAll(chain::Blockchain* chain, const std::vector<WireTx>& txs) {
  for (const WireTx& wire : txs) {
    ONOFF_ASSIGN_OR_RETURN(chain::Transaction tx,
                           chain::Transaction::Decode(wire.rlp));
    ONOFF_RETURN_NOT_OK(chain->SubmitTransaction(tx).status());
  }
  return Status::OK();
}

void FundParticipants(NodeRun* run, size_t before_block) {
  std::vector<Address>& funded = run->funding[before_block];
  for (const Address& a : run->stream->betting().TakeNewParticipants()) {
    run->chain->FundAccount(a, BettingPlanner::ParticipantFunds());
    funded.push_back(a);
  }
}

Status Extend(NodeRun* run, size_t blocks, size_t before_block) {
  for (size_t i = 0; i < blocks; ++i) {
    PlannedBlock block;
    ONOFF_RETURN_NOT_OK(run->stream->Next(true, &block));
    run->blocks.push_back(std::move(block));
  }
  FundParticipants(run, before_block);
  return Status::OK();
}

// Keys, genesis funding, the genesis commit, contract deploys, and the
// pre-signed stream.
Status SetUp(const NodeWorkload& w, const Options& opt, NodeRun* run) {
  run->stream = std::make_unique<NodeStream>(w.shape, opt.seed);
  run->chain = std::make_unique<chain::Blockchain>(w.config);
  run->stream->Fund(run->chain.get());
  // An empty first block commits (and persists) the genesis allocation.
  uint64_t t0 = NowNs();
  run->chain->MineBlock();
  run->genesis_commit_s = static_cast<double>(NowNs() - t0) / 1e9;
  ONOFF_RETURN_NOT_OK(run->stream->SetupDeploys(&run->deploys));
  ONOFF_RETURN_NOT_OK(SubmitAll(run->chain.get(), run->deploys));
  run->chain->MineAllPending();
  for (const WireTx& wire : run->deploys) {
    Result<chain::Receipt> r = run->chain->GetReceipt(wire.hash);
    if (!r.ok() || !r->success) return Status::Internal("set-up deploy failed");
  }
  run->stream->Anchor(run->chain->Height() + 1, run->chain->Now(),
                      w.config.block_interval_seconds);
  size_t planned = w.warmup_blocks + static_cast<size_t>(std::ceil(
                                         opt.seconds * w.planned_blocks_per_s));
  return Extend(run, planned, 0);
}

struct BlockTiming {
  double total_us = 0;  // decode of the first wire tx .. MineBlock returns
  double mine_us = 0;   // MineBlock alone
  size_t txs = 0;
  uint64_t gas = 0;
};

// Decodes, recovers (traced blocks only, as a separate span), admits and
// mines one planned block.
BlockTiming MineOne(chain::Blockchain* chain, const PlannedBlock& block,
                    SpanRecorder* spans, std::string* first_error) {
  BlockTiming t;
  const uint64_t t0 = NowNs();
  uint64_t t1 = 0;
  const chain::Block* mined = nullptr;
  {
    SpanRecorder::Scope block_span(spans, "block");
    for (const WireTx& wire : block.txs) {
      Result<chain::Transaction> tx = [&] {
        SpanRecorder::Scope s(spans, "rlp.decode");
        return chain::Transaction::Decode(wire.rlp);
      }();
      if (!tx.ok()) {
        if (first_error->empty()) *first_error = tx.status().ToString();
        continue;
      }
      if (spans->enabled()) {
        SpanRecorder::Scope s(spans, "crypto.recover");
        (void)tx->Sender();
      }
      Result<Hash32> submitted = [&] {
        SpanRecorder::Scope s(spans, "pool.submit");
        return chain->SubmitTransaction(*tx);
      }();
      if (!submitted.ok() && first_error->empty()) {
        *first_error = submitted.status().ToString();
      }
    }
    t1 = NowNs();
    SpanRecorder::Scope s(spans, "chain.mine");
    mined = &chain->MineBlock();
  }
  const uint64_t t2 = NowNs();
  t.total_us = static_cast<double>(t2 - t0) / 1e3;
  t.mine_us = static_cast<double>(t2 - t1) / 1e3;
  t.txs = mined->transactions.size();
  t.gas = mined->header.gas_used;
  return t;
}

bool GasOf(const chain::Blockchain& chain, const std::vector<Hash32>& txs,
           uint64_t* gas) {
  for (const Hash32& h : txs) {
    Result<chain::Receipt> r = chain.GetReceipt(h);
    if (!r.ok() || !r->success) return false;
    *gas += r->gas_used;
  }
  return true;
}

// Replays every mined block on a serial chain built from the same set-up
// and compares header roots block by block. Times the window's blocks for
// the speedup; the registry window covers only those blocks.
void ReplayOnSerialChain(const NodeWorkload& w, const NodeRun& run,
                         size_t submitted, size_t window_first,
                         size_t window_end, double parallel_window_us,
                         const Options& opt, Report* report) {
  chain::ChainConfig config = w.config;
  config.exec_mode = chain::ExecMode::kSerial;
  config.exec_workers = 0;
  config.check_static_containment = false;
  chain::Blockchain oracle(config);
  run.stream->Fund(&oracle);
  oracle.MineBlock();
  Status st = SubmitAll(&oracle, run.deploys);
  report->Check(st.ok(), "oracle set-up: " + st.ToString());
  oracle.MineAllPending();

  RegistryDelta registry;
  double serial_us = 0;
  double window_gas = 0;
  std::string first_error;
  SpanRecorder no_spans;
  for (size_t i = 0; i < submitted; ++i) {
    auto funded = run.funding.find(i);
    if (funded != run.funding.end()) {
      for (const Address& a : funded->second) {
        oracle.FundAccount(a, BettingPlanner::ParticipantFunds());
      }
    }
    if (i == window_first) registry.Begin();
    BlockTiming t = MineOne(&oracle, run.blocks[i], &no_spans, &first_error);
    if (i >= window_first && i < window_end) {
      serial_us += t.total_us;
      window_gas += static_cast<double>(t.gas);
    }
    if (i + 1 == window_end) registry.End();
  }

  const auto& ours = run.chain->blocks();
  const auto& theirs = oracle.blocks();
  report->Check(ours.size() == theirs.size(),
                "serial replay mined a different number of blocks");
  size_t common = std::min(ours.size(), theirs.size());
  for (size_t h = 1; h < common; ++h) {
    Hash32 expected = theirs[h].header.state_root;
    if (opt.inject == "root" && h + 1 == common) expected[0] ^= 1;
    report->Check(ours[h].header.state_root == expected &&
                      ours[h].header.receipt_root ==
                          theirs[h].header.receipt_root &&
                      ours[h].header.tx_root == theirs[h].header.tx_root,
                  "block " + std::to_string(h) +
                      ": parallel roots differ from the serial replay");
  }
  uint64_t n = window_end - window_first;
  report->Set("parallel.speedup_vs_serial",
              Ratio(serial_us, parallel_window_us), n);
  // gas per µs of serial apply time is Mgas/s.
  report->Set("evm.mgas_per_s",
              Ratio(window_gas, registry.HistSum("chain.apply_tx_us")), n);
}

void RunNode(const NodeWorkload& w, const Options& opt, Report* report) {
  NodeWorkload workload = w;
  workload.shape.block_gas_limit = w.config.block_gas_limit;
  workload.shape.max_txs_per_block = w.config.max_txs_per_block;

  // Set-up is repeated and its median reported, so that work moved into
  // set-up shows; the last one is kept for the run.
  const int reps = opt.tiny ? 1 : 3;
  std::vector<double> setup_s;
  std::unique_ptr<NodeRun> run;
  for (int r = 0; r < reps; ++r) {
    run.reset();
    auto fresh = std::make_unique<NodeRun>();
    const uint64_t t0 = NowNs();
    Status st = SetUp(workload, opt, fresh.get());
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    report->Check(st.ok(), "set-up: " + st.ToString());
    if (!st.ok()) return;
    run = std::move(fresh);
  }
  chain::Blockchain& chain = *run->chain;
  NodeStream& stream = *run->stream;
  const uint64_t first_height = stream.first_height();

  SpanRecorder spans;
  RegistryDelta registry;
  std::string first_error;
  // Per stream block: start and end on a clock that runs only while blocks
  // are being timed (signing of extra blocks is excluded).
  std::vector<double> start_us;
  std::vector<double> end_us;
  double clock_us = 0;
  std::vector<BlockTiming> window;
  std::vector<bool> window_traced;

  // Only the serial workload is single-threaded; the parallel one already
  // spreads over every CPU.
  CpuRotation rotation;
  const bool rotate = w.config.exec_mode == chain::ExecMode::kSerial;
  size_t next = 0;
  auto run_block = [&](bool traced) {
    if (rotate) rotation.MaybeNext();
    spans.set_enabled(traced);
    const PlannedBlock& block = run->blocks[next];
    BlockTiming t = MineOne(&chain, block, &spans, &first_error);
    spans.set_enabled(false);
    report->Check(t.txs == block.txs.size(),
                  "block " + std::to_string(block.height) + " packed " +
                      std::to_string(t.txs) + " of " +
                      std::to_string(block.txs.size()) + " transactions");
    start_us.push_back(clock_us);
    clock_us += t.total_us;
    end_us.push_back(clock_us);
    ++next;
    return t;
  };

  while (next < w.warmup_blocks) run_block(false);
  const size_t window_first = next;
  const size_t chunk =
      static_cast<size_t>(std::ceil(std::max(1.0, w.planned_blocks_per_s)));
  double window_us = 0;
  registry.Begin();
  while (window_us < opt.seconds * 1e6) {
    if (next == run->blocks.size()) {
      Status st = Extend(run.get(), chunk, next);
      report->Check(st.ok(), "signing more blocks: " + st.ToString());
      if (!st.ok()) break;
    }
    bool traced = opt.trace && (next - window_first) % 2 == 0;
    BlockTiming t = run_block(traced);
    window_us += t.total_us;
    window.push_back(t);
    window_traced.push_back(traced);
  }
  registry.End();
  const size_t window_end = next;

  // Drain: mine the follow-ups of every instance already started, so each
  // one settles and is checked. Traffic and later instances are dropped.
  const uint64_t cutoff = first_height + window_end;
  uint64_t last_height = cutoff - 1;
  for (const Instance& in : stream.betting().instances()) {
    if (in.start_height < cutoff) {
      last_height = std::max(last_height, in.end_height);
    }
  }
  while (first_height + next <= last_height) {
    if (next == run->blocks.size()) {
      PlannedBlock block;
      Status st = stream.Next(false, &block);
      report->Check(st.ok(), "drain block: " + st.ToString());
      if (!st.ok()) break;
      run->blocks.push_back(std::move(block));
    }
    std::erase_if(run->blocks[next].txs, [&](const WireTx& tx) {
      return tx.instance < 0 ||
             stream.betting().instances()[tx.instance].start_height >= cutoff;
    });
    run_block(false);
  }
  const size_t submitted = next;
  if (!first_error.empty()) {
    std::fprintf(stderr, "perfbench: first rejected transaction: %s\n",
                 first_error.c_str());
  }

  // Every submitted transaction was admitted and succeeded.
  for (const WireTx& wire : run->deploys) {
    Result<chain::Receipt> r = chain.GetReceipt(wire.hash);
    report->Check(r.ok() && r->success, "set-up deploy failed");
  }
  for (size_t i = 0; i < submitted; ++i) {
    for (const WireTx& wire : run->blocks[i].txs) {
      Result<chain::Receipt> r = chain.GetReceipt(wire.hash);
      report->Check(r.ok() && r->success,
                    "transaction in block " +
                        std::to_string(run->blocks[i].height) +
                        (r.ok() ? " failed" : " has no receipt"));
    }
  }

  // Every instance paid its rightful winner: each participant's balance is
  // the funding, minus the deposit and the gas of their own transactions,
  // plus the pot for the winner.
  std::vector<double> settle_ms;
  std::vector<double> dispute_ms;
  std::vector<double> blocks_per_settlement;
  double gas_sum[2] = {0, 0};
  double bytes_sum[2] = {0, 0};
  double kind_n[2] = {0, 0};
  bool injected = false;
  for (const Instance& in : stream.betting().instances()) {
    if (in.start_height >= cutoff) continue;
    uint64_t alice_gas = 0;
    uint64_t bob_gas = 0;
    bool receipts_ok =
        GasOf(chain, in.alice_txs, &alice_gas) && GasOf(chain, in.bob_txs, &bob_gas);
    bool bob_wins = in.bob_wins;
    if (opt.inject == "payout" && !injected) {
      bob_wins = !bob_wins;
      injected = true;
    }
    const U256 funds = BettingPlanner::ParticipantFunds();
    const U256 pot = BettingPlanner::Deposit() * U256(2);
    U256 alice_expected = funds - BettingPlanner::Deposit() - U256(alice_gas);
    U256 bob_expected = funds - BettingPlanner::Deposit() - U256(bob_gas);
    (bob_wins ? bob_expected : alice_expected) += pot;
    report->Check(receipts_ok && chain.GetBalance(in.alice) == alice_expected &&
                      chain.GetBalance(in.bob) == bob_expected,
                  "betting instance at height " +
                      std::to_string(in.start_height) +
                      " did not pay its rightful winner");
    const int kind = in.dispute ? 1 : 0;
    gas_sum[kind] += static_cast<double>(alice_gas + bob_gas);
    bytes_sum[kind] += static_cast<double>(
        in.calldata_bytes + chain.GetCode(in.onchain).size() +
        (in.dispute ? chain.GetCode(in.verified).size() : 0));
    kind_n[kind] += 1;
    blocks_per_settlement.push_back(
        static_cast<double>(in.end_height - in.start_height + 1));
    size_t s = in.start_height - first_height;
    size_t e = in.end_height - first_height;
    if (s >= window_first && e < window_end) {
      double ms = (end_us[e] - start_us[s]) / 1e3;
      settle_ms.push_back(ms);
      if (in.dispute) dispute_ms.push_back(ms);
    }
  }

  if (w.serial_oracle) {
    ReplayOnSerialChain(w, *run, submitted, window_first, window_end,
                        window_us, opt, report);
  } else {
    Hash32 expected = chain.state().RebuildStateRoot();
    if (opt.inject == "root") expected[0] ^= 1;
    report->Check(chain.state().StateRoot() == expected,
                  "final state root differs from a from-scratch rebuild");
  }
  report->Check(chain.auditor() == nullptr || chain.auditor()->violations() == 0,
                "audit violations");
  report->Check(chain.parallel_stats().hint_violations == 0,
                "static hint violations");

  // ---- End-to-end metrics ----
  double window_s = window_us / 1e6;
  double txs = 0;
  double gas = 0;
  std::vector<double> block_ms;
  std::vector<double> mine_us;
  std::vector<double> mine_small_us;
  std::vector<double> mine_large_us;
  double traced_us = 0;
  double untraced_us = 0;
  double traced_n = 0;
  double untraced_n = 0;
  for (size_t i = 0; i < window.size(); ++i) {
    const BlockTiming& t = window[i];
    txs += static_cast<double>(t.txs);
    gas += static_cast<double>(t.gas);
    block_ms.push_back(t.total_us / 1e3);
    mine_us.push_back(t.mine_us);
    (t.txs < 32 ? mine_small_us : mine_large_us).push_back(t.mine_us);
    (window_traced[i] ? traced_us : untraced_us) += t.total_us;
    (window_traced[i] ? traced_n : untraced_n) += 1;
  }
  const uint64_t n_blocks = window.size();
  report->Set("tx_per_s", Ratio(txs, window_s), n_blocks);
  report->Set("mgas_per_s", Ratio(gas / 1e6, window_s), n_blocks);
  report->Set("block_ms_p50", Quantile(block_ms, 0.5), n_blocks);
  report->Set("block_ms_p90", Quantile(block_ms, 0.9), n_blocks);
  report->Set("settle_ms_p50", Quantile(settle_ms, 0.5), settle_ms.size());
  report->Set("settle_ms_p99", Quantile(settle_ms, 0.99), settle_ms.size());
  report->Set("dispute_settle_ms_p50", Quantile(dispute_ms, 0.5),
              dispute_ms.size());
  // E[gas](p) and E[bytes](p) at the dispute rate, from per-kind means.
  auto expected_at_p = [&](const double* sums) {
    return (1 - kDisputeRate) * Ratio(sums[0], kind_n[0]) +
           kDisputeRate * Ratio(sums[1], kind_n[1]);
  };
  const auto n_settled = static_cast<uint64_t>(kind_n[0] + kind_n[1]);
  report->Set("gas_per_settlement", expected_at_p(gas_sum), n_settled);
  report->Set("onchain_bytes_per_settlement", expected_at_p(bytes_sum),
              n_settled);
  std::sort(setup_s.begin(), setup_s.end());
  report->Set("setup_s", setup_s[setup_s.size() / 2], setup_s.size());

  // ---- Per-layer metrics ----
  SetRegistryLayers(registry, static_cast<double>(n_blocks), txs, gas, report);
  report->Set("storage.genesis_commit_s", run->genesis_commit_s, 1);
  std::vector<double> recover = spans.DurationsUs("crypto.recover");
  std::vector<double> decode = spans.DurationsUs("rlp.decode");
  std::vector<double> submit = spans.DurationsUs("pool.submit");
  report->Set("crypto.recover_us", Mean(recover), recover.size());
  report->Set("rlp.decode_us", Mean(decode), decode.size());
  report->Set("pool.submit_us_p50", Quantile(submit, 0.5), submit.size());
  report->Set("pool.submit_us_p90", Quantile(submit, 0.9), submit.size());
  report->Set("chain.mine_us_p50", Quantile(mine_us, 0.5), n_blocks);
  report->Set("chain.mine_us_p90", Quantile(mine_us, 0.9), n_blocks);
  report->Set("chain.mine_other_us_per_block",
              Mean(mine_us) -
                  Ratio(registry.HistSum("chain.apply_tx_us"), n_blocks) -
                  Ratio(registry.HistSum("storage.commit_us"), n_blocks),
              n_blocks);
  report->Set("parallel.mine_us_small_p50", Quantile(mine_small_us, 0.5),
              mine_small_us.size());
  report->Set("parallel.mine_us_large_p50", Quantile(mine_large_us, 0.5),
              mine_large_us.size());
  if (!w.serial_oracle) {
    // Serial path: the window's gas over its transaction apply time.
    report->Set("evm.mgas_per_s",
                Ratio(gas, registry.HistSum("chain.apply_tx_us")), n_blocks);
  }
  report->Set("chain.blocks_per_settlement", Mean(blocks_per_settlement),
              blocks_per_settlement.size());
  if (opt.trace) {
    report->Set("trace.overhead_pct",
                100.0 * (Ratio(Ratio(traced_us, traced_n),
                               Ratio(untraced_us, untraced_n)) -
                         1.0),
                n_blocks);
    report->Set("trace.spans", static_cast<double>(spans.size()), spans.size());
    if (!opt.trace_out.empty()) {
      report->Check(spans.WriteChromeTrace(opt.trace_out),
                    "writing " + opt.trace_out);
      std::printf("spans written to %s\n", opt.trace_out.c_str());
    }
  }
}

}  // namespace

void RunMixedSerial(const Options& options, Report* report) {
  RunNode(MixedSerial(options.tiny), options, report);
}

void RunComputeParallel(const Options& options, Report* report) {
  RunNode(ComputeParallel(options.tiny), options, report);
}

}  // namespace perfbench
