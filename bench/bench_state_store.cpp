// The incremental authenticated state store vs the from-scratch trie
// rebuild it replaced: state-root time as total accounts scale, as the
// per-block write set scales, plus the cost of copy-on-write Clone() and
// snapshots. Every row cross-checks the incremental root against the
// rebuilt root (`roots_match`), so the speedups are over a verified-equal
// commitment. The last section mines signed transfer blocks on an audited
// chain of the same size, to show that the per-block audit, like the
// commit, costs what the block touches rather than what the state holds.
//
// Writes BENCH_state_store.json (onoffchain-bench-v1) via --json <path>.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "chain/blockchain.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "state/world_state.h"
#include "storage/node_store.h"
#include "storage/state_store.h"
#include "support/address.h"
#include "support/flags.h"
#include "support/u256.h"

using namespace onoff;

namespace {

// Real addresses are keccak outputs, uniform from byte 0 (which is what
// std::hash<Address> keys on) — so spread the index over the leading bytes.
Address AddrOf(uint64_t i) {
  std::array<uint8_t, Address::kSize> raw{};
  uint64_t x = (i + 1) * 0x9E3779B97F4A7C15ull;  // splitmix-style spread
  for (int b = 0; b < 8; ++b) {
    raw[b] = static_cast<uint8_t>(x >> (8 * b));
  }
  raw[19] = 0x5A;
  return Address(raw);
}

// Every row records the hardware threads: a commit of at least
// StateStore::kSplitCommitThreshold accounts runs on the shared pool.
obs::Json HardwareThreads() {
  return obs::Json::Uint(std::max(1u, std::thread::hardware_concurrency()));
}

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// N accounts, each with a balance, nonce, and two storage slots.
state::WorldState BuildState(uint64_t accounts) {
  state::WorldState ws;
  for (uint64_t i = 0; i < accounts; ++i) {
    Address a = AddrOf(i);
    ws.SetBalance(a, U256(1'000'000 + i));
    ws.SetNonce(a, i % 7);
    ws.SetStorage(a, U256(1), U256(i));
    ws.SetStorage(a, U256(2), U256(i * 2 + 1));
    if (i % 4096 == 0) ws.ClearJournal();
  }
  ws.ClearJournal();
  return ws;
}

// Audited mining: 150 signed transfers a block, from 150 funded senders to
// random accounts among `accounts` funded ones, on a serial chain with every
// audit invariant on. The conservation and nonce invariants read the
// block's touched set, and sweep every account only at the first audited
// block and at heights that are multiples of state_history_blocks (64), so
// the blocks are split by whether they swept (the audit.full_sweeps
// counter moved). Pushes the row; false when the run cannot be trusted
// (no metrics registry for the audit timers, a rejected transfer, a root
// mismatch or a violation).
bool AuditedMining(uint64_t accounts, obs::Json* results) {
  obs::Registry* registry = obs::Registry::Global();
  if (registry == nullptr) {
    std::fprintf(stderr, "audited_mining reads the metrics registry, which "
                         "ONOFF_METRICS=0 turns off\n");
    return false;
  }
  constexpr size_t kSenders = 150;
  constexpr uint64_t kBlocks = 128;

  chain::ChainConfig config;
  config.audit_invariants = "all";
  chain::Blockchain chain(config);
  std::vector<secp256k1::PrivateKey> senders;
  for (size_t i = 0; i < kSenders; ++i) {
    senders.push_back(
        secp256k1::PrivateKey::FromSeed("state-store-" + std::to_string(i)));
    chain.FundAccount(senders.back().EthAddress(),
                      U256(1'000'000'000'000'000'000ull));
  }
  for (uint64_t i = 0; i < accounts; ++i) {
    chain.FundAccount(AddrOf(i), U256(1'000'000 + i));
  }
  // The first block commits the genesis allocation and takes the audit
  // baselines (one sweep each).
  auto t0 = std::chrono::steady_clock::now();
  chain.MineBlock();
  const double genesis_ms = MsSince(t0);

  auto audit_us = [registry] {
    double sum = 0;
    for (const char* name : {"audit.conservation_us", "audit.nonce_us"}) {
      sum += registry->GetHistogram(name, obs::DefaultTimeBucketsUs())
                 ->TakeSnapshot()
                 .sum;
    }
    return sum;
  };
  struct Blocks {
    uint64_t count = 0;
    double mine_ms = 0;
    double audit_us = 0;
  } incremental, sweep;
  uint64_t next_recipient = 0x2545F4914F6CDD1Dull;  // xorshift64 state
  for (uint64_t block = 0; block < kBlocks; ++block) {
    for (const secp256k1::PrivateKey& key : senders) {
      next_recipient ^= next_recipient << 13;
      next_recipient ^= next_recipient >> 7;
      next_recipient ^= next_recipient << 17;
      chain::Transaction tx;
      tx.nonce = block;
      tx.gas_price = U256(1);
      tx.gas_limit = 21'000;
      tx.to = AddrOf(next_recipient % accounts);
      tx.value = U256(1);
      tx.Sign(key);
      if (!chain.SubmitTransaction(tx).ok()) {
        std::fprintf(stderr, "audited_mining: transfer rejected\n");
        return false;
      }
    }
    const uint64_t sweeps = registry->CounterValue("audit.full_sweeps");
    const double audit_before = audit_us();
    t0 = std::chrono::steady_clock::now();
    chain.MineBlock();
    const double mine_ms = MsSince(t0);
    Blocks& into = registry->CounterValue("audit.full_sweeps") != sweeps
                       ? sweep
                       : incremental;
    ++into.count;
    into.mine_ms += mine_ms;
    into.audit_us += audit_us() - audit_before;
  }
  auto mean = [](double total, uint64_t n) { return n > 0 ? total / n : 0; };
  const uint64_t violations = chain.auditor()->violations();
  const bool roots_match =
      chain.blocks().back().header.state_root ==
      chain.state().RebuildStateRoot();
  std::printf("%10llu %8llu %10.2f %12.0f %7llu %14.2f %14.0f %11llu %6s\n",
              static_cast<unsigned long long>(accounts),
              static_cast<unsigned long long>(incremental.count),
              mean(incremental.mine_ms, incremental.count),
              mean(incremental.audit_us, incremental.count),
              static_cast<unsigned long long>(sweep.count),
              mean(sweep.mine_ms, sweep.count),
              mean(sweep.audit_us, sweep.count),
              static_cast<unsigned long long>(violations),
              roots_match ? "ok" : "DIFF");
  results->Push(obs::Json::Object()
      .Set("scenario", obs::Json::Str("audited_mining"))
      .Set("accounts", obs::Json::Num(static_cast<double>(accounts)))
      .Set("txs_per_block", obs::Json::Num(kSenders))
      .Set("genesis_mine_ms", obs::Json::Num(genesis_ms))
      .Set("blocks", obs::Json::Num(static_cast<double>(incremental.count)))
      .Set("mine_ms", obs::Json::Num(mean(incremental.mine_ms,
                                          incremental.count)))
      .Set("audit_us", obs::Json::Num(mean(incremental.audit_us,
                                           incremental.count)))
      .Set("sweep_blocks", obs::Json::Num(static_cast<double>(sweep.count)))
      .Set("sweep_mine_ms", obs::Json::Num(mean(sweep.mine_ms, sweep.count)))
      .Set("sweep_audit_us",
           obs::Json::Num(mean(sweep.audit_us, sweep.count)))
      .Set("audit_violations",
           obs::Json::Num(static_cast<double>(violations)))
      .Set("roots_match", obs::Json::Bool(roots_match))
      .Set("hardware_threads", HardwareThreads()));
  if (!roots_match || violations != 0) {
    std::fprintf(stderr, "audited_mining: root mismatch or violations\n");
    return false;
  }
  return true;
}

// Median, min and max of `v` (sorted in place).
struct Spread {
  double median = 0;
  double min = 0;
  double max = 0;
};

Spread SpreadOf(std::vector<double>* v) {
  if (v->empty()) return {};
  std::sort(v->begin(), v->end());
  return {(*v)[v->size() / 2], v->front(), v->back()};
}

std::string SpreadText(const Spread& s) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f [%.3f, %.3f]", s.median, s.min,
                s.max);
  return buf;
}

obs::Json SpreadJson(const Spread& s) {
  return obs::Json::Object()
      .Set("median", obs::Json::Num(s.median))
      .Set("min", obs::Json::Num(s.min))
      .Set("max", obs::Json::Num(s.max));
}

// Persist window: the per-block persist and prune a node with persist_state
// pays in steady state. After one persist of the whole state at height 0,
// each of kBlocks blocks writes a mixed_serial-sized write set (balances,
// plus a storage slot for every 8th account), commits, persists into an
// in-memory node store, and prunes below the 64-block window (as
// Blockchain::SealBlock does). Timed per block; the node totals depend only
// on the states, not on the store's implementation. Pushes the row; false
// on a failed persist or prune, or when the last state's root or a touched
// account cannot be read back.
bool PersistWindow(state::WorldState* ws, uint64_t accounts,
                   obs::Json* results) {
  constexpr uint64_t kBlocks = 200;
  constexpr uint64_t kWindow = 64;
  constexpr uint64_t kTouched = 334;
  storage::NodeStore store;
  if (!store.Open().ok()) return false;
  ws->StateRoot();
  auto t0 = std::chrono::steady_clock::now();
  if (!ws->PersistCommitted(store, 0).ok()) return false;
  const double genesis_ms = MsSince(t0);

  std::vector<double> persist_ms;
  std::vector<double> prune_ms;
  uint64_t persisted = 0;
  uint64_t next = 0x9E3779B97F4A7C15ull;  // xorshift64 state
  std::vector<Address> touched;
  Hash32 root{};
  for (uint64_t height = 1; height <= kBlocks; ++height) {
    touched.clear();
    for (uint64_t i = 0; i < kTouched; ++i) {
      next ^= next << 13;
      next ^= next >> 7;
      next ^= next << 17;
      Address a = AddrOf(next % accounts);
      ws->SetBalance(a, U256(height * 1'000 + i));
      if (i % 8 == 0) ws->SetStorage(a, U256(3), U256(height));
      touched.push_back(a);
    }
    ws->ClearJournal();
    root = ws->StateRoot();
    const size_t live_before = store.live_nodes();
    t0 = std::chrono::steady_clock::now();
    if (!ws->PersistCommitted(store, height).ok()) return false;
    persist_ms.push_back(MsSince(t0));
    persisted += store.live_nodes() - live_before;
    if (height >= kWindow) {
      t0 = std::chrono::steady_clock::now();
      if (!store.PruneBelow(height - kWindow + 1).ok()) return false;
      prune_ms.push_back(MsSince(t0));
    }
  }
  bool roots_match = root == ws->RebuildStateRoot();
  for (const Address& a : touched) {
    Result<std::optional<Bytes>> stored = store.LookupSecure(root, a.view());
    roots_match = roots_match && stored.ok() && stored->has_value();
  }
  const Spread persist = SpreadOf(&persist_ms);
  const Spread prune = SpreadOf(&prune_ms);
  std::printf("%10llu %8llu %7llu %22s %22s %11llu %10llu %6s\n",
              static_cast<unsigned long long>(accounts),
              static_cast<unsigned long long>(kBlocks),
              static_cast<unsigned long long>(kWindow),
              SpreadText(persist).c_str(), SpreadText(prune).c_str(),
              static_cast<unsigned long long>(persisted),
              static_cast<unsigned long long>(store.pruned_total()),
              roots_match ? "ok" : "DIFF");
  results->Push(
      obs::Json::Object()
          .Set("scenario", obs::Json::Str("persist_window"))
          .Set("accounts", obs::Json::Num(static_cast<double>(accounts)))
          .Set("touched_accounts", obs::Json::Num(kTouched))
          .Set("blocks", obs::Json::Num(kBlocks))
          .Set("window", obs::Json::Num(kWindow))
          .Set("genesis_persist_ms", obs::Json::Num(genesis_ms))
          .Set("persist_ms", SpreadJson(persist))
          .Set("prune_ms", SpreadJson(prune))
          .Set("nodes_persisted",
               obs::Json::Num(static_cast<double>(persisted)))
          .Set("nodes_pruned",
               obs::Json::Num(static_cast<double>(store.pruned_total())))
          .Set("live_nodes",
               obs::Json::Num(static_cast<double>(store.live_nodes())))
          .Set("roots_match", obs::Json::Bool(roots_match))
          .Set("hardware_threads", HardwareThreads()));
  if (!roots_match) {
    std::fprintf(stderr, "persist_window: root mismatch or unreadable state\n");
  }
  return roots_match;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path =
      obs::JsonPathFromArgsOrExit(&argc, argv, "BENCH_state_store.json");
  std::vector<uint64_t> account_counts = {1'000, 10'000, 100'000};
  // One explicit size instead of the default sweep (e.g. 1000000 for the
  // EXPERIMENTS.md scaling row).
  if (uint64_t accounts = flags::U64FlagFromArgs(&argc, argv, "accounts", 0)) {
    account_counts = {accounts};
  }
  flags::ExitOnLeftoverArgs(argc, argv, "[--accounts N] [--json <path>|-]");

  obs::Json results = obs::Json::Array();

  std::printf("=== State-root scaling: incremental store vs rebuild ===\n\n");
  std::printf("%10s %12s %14s %12s %10s %10s %6s\n", "accounts",
              "rebuild (ms)", "1-acct incr", "speedup", "clone (ms)",
              "snap (ms)", "roots");

  for (uint64_t accounts : account_counts) {
    state::WorldState ws = BuildState(accounts);

    // Baseline: the seed's from-scratch trie build, timed on the settled
    // state (this is what every block used to pay).
    auto t0 = std::chrono::steady_clock::now();
    Hash32 rebuilt = ws.RebuildStateRoot();
    double rebuild_ms = MsSince(t0);

    // First incremental commit folds every account once (block 0).
    t0 = std::chrono::steady_clock::now();
    Hash32 initial = ws.StateRoot();
    double initial_commit_ms = MsSince(t0);
    if (initial != rebuilt) {
      std::fprintf(stderr, "initial root mismatch at %llu accounts\n",
                   static_cast<unsigned long long>(accounts));
      return 1;
    }

    // The headline number: one touched account in a sea of N.
    ws.SetBalance(AddrOf(accounts / 2), U256(42));
    t0 = std::chrono::steady_clock::now();
    Hash32 incremental = ws.StateRoot();
    double incremental_ms = MsSince(t0);
    bool roots_match = incremental == ws.RebuildStateRoot();
    double speedup = incremental_ms > 0 ? rebuild_ms / incremental_ms : 0;

    // Copy-on-write costs.
    t0 = std::chrono::steady_clock::now();
    state::WorldState clone = ws.Clone();
    double clone_ms = MsSince(t0);
    bool clone_root_ok = clone.StateRoot() == incremental;

    t0 = std::chrono::steady_clock::now();
    storage::StateSnapshot snap = ws.TakeStateSnapshot();
    double snapshot_ms = MsSince(t0);
    bool snap_root_ok = snap.root == incremental;
    roots_match = roots_match && clone_root_ok && snap_root_ok;

    std::printf("%10llu %12.1f %11.3fms %11.1fx %10.2f %10.3f %6s\n",
                static_cast<unsigned long long>(accounts), rebuild_ms,
                incremental_ms, speedup, clone_ms, snapshot_ms,
                roots_match ? "ok" : "DIFF");

    results.Push(
        obs::Json::Object()
            .Set("scenario", obs::Json::Str("scaling"))
            .Set("accounts", obs::Json::Num(static_cast<double>(accounts)))
            .Set("touched_accounts", obs::Json::Num(1))
            .Set("rebuild_ms", obs::Json::Num(rebuild_ms))
            .Set("initial_commit_ms", obs::Json::Num(initial_commit_ms))
            .Set("incremental_ms", obs::Json::Num(incremental_ms))
            .Set("speedup_vs_rebuild", obs::Json::Num(speedup))
            .Set("clone_ms", obs::Json::Num(clone_ms))
            .Set("snapshot_ms", obs::Json::Num(snapshot_ms))
            .Set("roots_match", obs::Json::Bool(roots_match))
            .Set("hardware_threads", HardwareThreads()));
    if (!roots_match) {
      std::fprintf(stderr, "root mismatch at %llu accounts\n",
                   static_cast<unsigned long long>(accounts));
      return 1;
    }
  }

  // Write-set scaling: commit time vs number of touched accounts at a
  // fixed state size (block cost should track the write set, not N). The
  // sweep starts at the split-commit threshold, from which a commit fans out
  // over the account trie's 16 root subtries, after one serial row, and
  // includes 334, the write set of a perfbench mixed_serial block. Each size
  // commits kWriteSetRounds times, writing fresh values to the same
  // accounts, so a row reports the median, min and max of its commits and
  // the nodes one commit hashes.
  constexpr int kWriteSetRounds = 7;
  uint64_t base = account_counts.back();
  state::WorldState ws = BuildState(base);
  ws.StateRoot();
  std::printf("\n=== Write-set scaling at %llu accounts (%d commits each) "
              "===\n\n",
              static_cast<unsigned long long>(base), kWriteSetRounds);
  std::printf("%10s %28s %8s %6s\n", "touched", "commit ms med [min,max]",
              "hashed", "roots");
  obs::Registry* registry = obs::Registry::Global();
  auto nodes_hashed = [registry] {
    return registry == nullptr
               ? uint64_t{0}
               : registry->CounterValue("storage.trie_nodes_hashed");
  };
  const uint64_t split = storage::StateStore::kSplitCommitThreshold;
  uint64_t round_value = 7;
  for (uint64_t touched : {uint64_t{1}, split, uint64_t{64}, uint64_t{256},
                            uint64_t{334}, uint64_t{4096}}) {
    if (touched > base) break;
    std::vector<double> commit_ms;
    uint64_t hashed = 0;
    for (int round = 0; round < kWriteSetRounds; ++round) {
      for (uint64_t i = 0; i < touched; ++i) {
        Address a = AddrOf((i * 977) % base);
        ws.SetBalance(a, U256(i + round_value));
        ws.SetStorage(a, U256(1), U256(i + round_value + 2));
      }
      ++round_value;
      ws.ClearJournal();
      const uint64_t hashed_before = nodes_hashed();
      auto t0 = std::chrono::steady_clock::now();
      ws.StateRoot();
      commit_ms.push_back(MsSince(t0));
      hashed = nodes_hashed() - hashed_before;
    }
    const Spread ms = SpreadOf(&commit_ms);
    bool roots_match = ws.StateRoot() == ws.RebuildStateRoot();
    std::printf("%10llu %28s %8llu %6s\n",
                static_cast<unsigned long long>(touched),
                SpreadText(ms).c_str(), static_cast<unsigned long long>(hashed),
                roots_match ? "ok" : "DIFF");
    results.Push(
        obs::Json::Object()
            .Set("scenario", obs::Json::Str("write_set"))
            .Set("accounts", obs::Json::Num(static_cast<double>(base)))
            .Set("touched_accounts",
                 obs::Json::Num(static_cast<double>(touched)))
            .Set("rounds", obs::Json::Num(kWriteSetRounds))
            .Set("incremental_ms", SpreadJson(ms))
            .Set("nodes_hashed", obs::Json::Num(static_cast<double>(hashed)))
            .Set("roots_match", obs::Json::Bool(roots_match))
            .Set("hardware_threads", HardwareThreads()));
    if (!roots_match) return 1;
  }

  // Persistence: append one block's nodes to an in-memory node store after
  // touching a small write set (the per-block persist cost).
  {
    storage::NodeStore store;
    if (!store.Open().ok()) return 1;
    ws.StateRoot();
    if (!ws.PersistCommitted(store, 1).ok()) return 1;
    size_t base_nodes = store.live_nodes();
    for (uint64_t i = 0; i < 64; ++i) {
      ws.SetBalance(AddrOf(i * 31 % base), U256(i));
    }
    ws.ClearJournal();
    ws.StateRoot();
    auto t0 = std::chrono::steady_clock::now();
    if (!ws.PersistCommitted(store, 2).ok()) return 1;
    double persist_ms = MsSince(t0);
    size_t delta_nodes = store.live_nodes() - base_nodes;
    std::printf("\npersist delta: %zu nodes in %.3f ms (%zu total)\n",
                delta_nodes, persist_ms, store.live_nodes());
    results.Push(obs::Json::Object()
                     .Set("scenario", obs::Json::Str("persist_block"))
                     .Set("accounts",
                          obs::Json::Num(static_cast<double>(base)))
                     .Set("touched_accounts", obs::Json::Num(64))
                     .Set("incremental_ms", obs::Json::Num(persist_ms))
                     .Set("delta_nodes",
                          obs::Json::Num(static_cast<double>(delta_nodes)))
                     .Set("roots_match", obs::Json::Bool(true))
                     .Set("hardware_threads", HardwareThreads()));
  }

  std::printf(
      "\n=== Persist window: 334-account blocks into an in-memory node "
      "store, pruned to the last 64 states ===\n\n");
  std::printf("%10s %8s %7s %22s %22s %11s %10s %6s\n", "accounts", "blocks",
              "window", "persist ms med [min,max]", "prune ms med [min,max]",
              "persisted", "pruned", "roots");
  if (!PersistWindow(&ws, base, &results)) return 1;

  // Audited mining at the largest size, after the states above are gone.
  ws = state::WorldState();
  std::printf(
      "\n=== Audited mining: 150 signed transfers a block, conservation + "
      "nonce audit ===\n\n");
  std::printf("%10s %8s %10s %12s %7s %14s %14s %11s %6s\n", "accounts",
              "blocks", "mine (ms)", "audit (us)", "sweeps",
              "sweep mine ms", "sweep audit us", "violations", "roots");
  if (!AuditedMining(base, &results)) return 1;

  if (!json_path.empty()) {
    Status st =
        obs::WriteBenchJson(json_path, "state_store", std::move(results));
    if (!st.ok()) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
