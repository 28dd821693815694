// The simulated blockchain node: transaction pool, PoA-style block
// production with a controllable clock, transaction application with full
// gas accounting, receipts and queries. This plays the role Kovan plays in
// the paper — a deterministic single-process "testnet".
//
// Admission recovers each transaction's sender and computes its hash once,
// into the pool record (chain::PendingTx) that also keeps the submitter's
// trace context. Packing, execution, an import's pool cleanup and the
// audit's trace link read the record; only the nonce invariant recovers
// senders again, as an independent check of the block body.

#ifndef ONOFFCHAIN_CHAIN_BLOCKCHAIN_H_
#define ONOFFCHAIN_CHAIN_BLOCKCHAIN_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/chain_audit.h"
#include "chain/parallel_executor.h"
#include "chain/transaction.h"
#include "chain/tx_pool.h"
#include "evm/evm.h"
#include "obs/flight_recorder.h"
#include "obs/timeseries.h"
#include "state/world_state.h"
#include "support/status.h"
#include "support/thread_pool.h"

namespace onoff::chain {

// How a block's transactions are executed during mining.
enum class ExecMode {
  kSerial,    // one by one on the world state (the reference semantics)
  kParallel,  // optimistic speculation wave + ordered commit; results are
              // byte-identical to kSerial (chain/parallel_executor.h)
};

struct ChainConfig {
  uint64_t block_gas_limit = 8'000'000;
  // Kovan produced blocks every ~4 seconds.
  uint64_t block_interval_seconds = 4;
  Address coinbase;
  size_t max_txs_per_block = 200;
  ExecMode exec_mode = ExecMode::kSerial;
  // Worker threads for parallel execution; 0 = the shared pool sized to the
  // hardware.
  size_t exec_workers = 0;
  // Debug/CI cross-check: after every parallel block, replay its
  // transactions serially from a clone of the pre-block state and abort on
  // any state-root or receipt divergence.
  bool assert_parallel_equivalence = false;
  // Persistent authenticated state (storage/node_store.h): after every
  // mined block, append the block's new trie nodes to the node log and
  // retain its state root. Off by default (in-memory chains, tests).
  bool persist_state = false;
  // Node-log path; empty = in-memory node store (useful for testing the
  // persistence path without touching disk).
  std::string state_db_path;
  // How many recent block states stay provable; older roots are released
  // and their unreachable nodes pruned. This is the dispute/challenge
  // window from the paper: off-chain results can be contested as long as
  // the state they commit to is still retained. 0 = keep everything.
  uint64_t state_history_blocks = 64;
  // Parallel mining only, a fuzz/CI oracle: build a static access hint for
  // every transaction from the analyzer's per-selector summaries and audit
  // each execution's recorded accesses against it (static ⊇ dynamic).
  // Escapes are counted in chain.parallel.hint_violations; hints never
  // decide a commit (chain/parallel_executor.h).
  bool check_static_containment = false;
  // Runtime invariant auditing (chain/chain_audit.h): "" = off, "all" or a
  // comma-separated subset of {conservation, nonce, settlement,
  // receipt_root, timer}. An explicit spec reports violations. When empty,
  // the ONOFF_AUDIT environment variable supplies the spec and makes the
  // first violation abort — how CI runs the whole suite audited without
  // touching every test.
  std::string audit_invariants;
  // > 0: own a flight recorder of this many ring slots and install it as
  // the process global for this chain's lifetime (obs/flight_recorder.h).
  // The auditor dumps its triage bundle through it on any violation.
  size_t flight_recorder_events = 0;
  // > 0: sample the global metrics registry into ring-buffered time series
  // at block commits, at most once per this many obs::Clock ms
  // (obs/timeseries.h). The series export is read via timeseries().
  uint64_t timeseries_interval_ms = 0;
};

class Blockchain {
 public:
  explicit Blockchain(ChainConfig config = ChainConfig());
  // Restores the previously installed global flight recorder when this
  // chain owns one.
  ~Blockchain();
  Blockchain(const Blockchain&) = delete;
  Blockchain& operator=(const Blockchain&) = delete;

  // ---- Genesis / test setup ----
  // Credits an account (genesis allocation / faucet).
  void FundAccount(const Address& addr, const U256& amount);

  // ---- Transactions ----
  // Validates and enqueues; returns the transaction hash.
  Result<Hash32> SubmitTransaction(const Transaction& tx);
  // SubmitTransaction over `txs` in order, one result each, after recovering
  // every sender on ThreadPool::Shared() (for two or more). ParallelFor does
  // not nest: never call this on a Shared() worker or inside the parallel
  // executor's wave.
  std::vector<Result<Hash32>> SubmitTransactions(
      std::span<const Transaction> txs);
  // Builds, signs, and submits a transaction from `key`.
  Result<Hash32> SendTransaction(const secp256k1::PrivateKey& key,
                                 std::optional<Address> to, const U256& value,
                                 Bytes data, uint64_t gas_limit,
                                 const U256& gas_price = U256(1));
  // SendTransaction + MineBlock + receipt lookup, the common test loop.
  Result<Receipt> Execute(const secp256k1::PrivateKey& key,
                          std::optional<Address> to, const U256& value,
                          Bytes data, uint64_t gas_limit,
                          const U256& gas_price = U256(1));

  // ---- Mining ----
  // Produces one block from pending transactions (possibly empty) and
  // advances the chain clock by the block interval.
  const Block& MineBlock();
  // Mines until the pool drains.
  void MineAllPending();
  // Appends `block` iff this node seals the same block on its own head,
  // executing its transactions once from a scratch pool (SubmitTransactions'
  // admission) at max(Now(), its timestamp). A rejected block
  // (kVerificationFailed, "block N: ...") leaves the node unchanged, its
  // own pool included; an appended one drops what it mined from that pool,
  // by the scratch pool's records.
  // Like SubmitTransactions, never call it on a Shared() worker or inside
  // the parallel executor's wave.
  Status ImportBlock(const Block& block);

  // ---- Clock ----
  uint64_t Now() const { return now_; }
  void AdvanceTime(uint64_t seconds) { now_ += seconds; }
  // Advances the clock to at least `timestamp`.
  void AdvanceTimeTo(uint64_t timestamp) {
    if (timestamp > now_) now_ = timestamp;
  }

  // ---- Queries ----
  U256 GetBalance(const Address& addr) const {
    return state_.GetBalance(addr);
  }
  uint64_t GetNonce(const Address& addr) const {
    return state_.GetNonce(addr);
  }
  const Bytes& GetCode(const Address& addr) const {
    return state_.GetCode(addr);
  }
  U256 GetStorage(const Address& addr, const U256& key) const {
    return state_.GetStorage(addr, key);
  }
  Result<Receipt> GetReceipt(const Hash32& tx_hash) const;

  // Event query (eth_getLogs): all logs matching the optional address and
  // first-topic filters, in block/transaction order.
  struct LogQuery {
    std::optional<Address> address;
    std::optional<U256> topic0;
    uint64_t from_block = 0;
    uint64_t to_block = UINT64_MAX;
  };
  std::vector<evm::LogEntry> GetLogs(const LogQuery& query) const;
  const std::vector<Block>& blocks() const { return blocks_; }
  uint64_t Height() const { return blocks_.back().header.number; }
  size_t PendingCount() const { return pool_.size(); }
  const state::WorldState& state() const { return state_; }
  const ChainConfig& config() const { return config_; }
  // The persistent node store, or nullptr when persist_state is off.
  const storage::NodeStore* node_store() const { return node_store_.get(); }
  // The invariant auditor, or nullptr when auditing is off. The protocol
  // driver reports settlement boundaries here; tests read violations.
  ChainAuditor* auditor() { return auditor_.get(); }
  const ChainAuditor* auditor() const { return auditor_.get(); }
  // The block-driven metrics sampler, or nullptr when off.
  const obs::TimeseriesSampler* timeseries() const {
    return timeseries_.get();
  }
  // Test-only fault injection: direct, transaction-free state mutation —
  // exactly what the auditor exists to catch.
  state::WorldState& mutable_state_for_test() { return state_; }

  // Read-only execution against current state (eth_call): no state change,
  // no transaction.
  evm::ExecResult CallReadOnly(const Address& from, const Address& to,
                               Bytes data, uint64_t gas = 10'000'000);

  // Cumulative gas actually paid for by senders across all blocks — the
  // "miner work" metric used in the evaluation benches.
  uint64_t TotalGasUsed() const { return total_gas_used_; }

  // Cumulative parallel-execution statistics (zeros under ExecMode::kSerial).
  const ParallelExecStats& parallel_stats() const { return parallel_stats_; }

  // Per-step EVM hook (e.g. trace::StructLogTracer, or the analyzer's
  // gas-bounds check): invoked for every frame and opcode of every applied
  // transaction, either directly or as the inner hook of the span mirror
  // when the transaction is traced. Blocks mine serially while set. Not
  // owned.
  void set_step_tracer(evm::TraceHook* hook) { step_tracer_ = hook; }

 private:
  // SubmitTransaction into `pool`, given the result of recovering `tx`'s
  // sender: builds the transaction's pool record (sender, hash, the
  // submitter's trace context), the one derivation of each.
  Result<Hash32> SubmitTo(TxPool& pool, const Transaction& tx,
                          Result<Address> recovered);
  // SubmitTransactions into `pool`, the body ImportBlock shares. Each
  // recovery result, failures included, goes to SubmitTo, so every
  // transaction is recovered once.
  std::vector<Result<Hash32>> Admit(TxPool& pool,
                                    std::span<const Transaction> txs);
  // The body MineBlock and ImportBlock share: packs `pool`, then executes,
  // seals and commits the next block at `timestamp` from the taken records.
  // A `check` that fails on the sealed block rolls state_ back, commits
  // nothing and returns.
  using SealCheck = std::function<Status(const Block&)>;
  Status SealBlock(TxPool& pool, uint64_t timestamp, const SealCheck& check);
  // Applies one record's transaction against `state` (the world state, a
  // serial replay clone, or a speculative overlay), with the sender, hash
  // and trace context admission put in the record. `quiet` suppresses
  // per-tx telemetry — spans, histograms, failure counters, the step hook —
  // for speculative executions that may be discarded; the block-level wave
  // telemetry covers the parallel path instead.
  Receipt ExecuteTransaction(state::StateView& state, const PendingTx& record,
                             const BlockHeader& header, bool quiet);
  // Parallel-path body of SealBlock; returns one receipt per transaction
  // and leaves state_ identical to what serial application would produce
  // (checked when config_.assert_parallel_equivalence is set).
  std::vector<Receipt> ExecuteBlockParallel(
      const std::vector<PendingTx>& records, const BlockHeader& header);
  // Static access footprint of a record's transaction in the dynamic
  // recorder's key encoding, audited by the executor under
  // check_static_containment: intrinsic sender/callee/coinbase bookkeeping
  // plus the callee's analyzer summary for the selected function. ⊤ (known == false) for contract creations
  // and callees whose summary is not statically schedulable.
  TxAccessHint BuildAccessHint(const PendingTx& record) const;
  evm::BlockContext MakeBlockContext(uint64_t number, uint64_t timestamp) const;
  // A parallel result that differs from the serial replay: files `report`
  // as a `receipt_root` violation (through the auditor's sink when auditing,
  // else as an `equivalence-abort` bundle), then aborts.
  [[noreturn]] void AbortOnDivergence(obs::ViolationReport report);

  ChainConfig config_;
  state::WorldState state_;
  std::vector<Block> blocks_;
  TxPool pool_;
  std::map<Hash32, Receipt> receipts_;  // keyed by transaction hash
  uint64_t now_;
  uint64_t total_gas_used_ = 0;
  ParallelExecStats parallel_stats_;
  evm::TraceHook* step_tracer_ = nullptr;
  // Dedicated workers when config_.exec_workers > 0 (else the shared pool).
  std::unique_ptr<ThreadPool> exec_pool_;
  // Set when config_.persist_state: block states are appended here and
  // pruned past the history window.
  std::unique_ptr<storage::NodeStore> node_store_;
  // Serial-replay root from the parallel equivalence check, compared
  // against the block's header root once SealBlock has computed it — so
  // the live state's root is computed exactly once per block.
  std::optional<Hash32> pending_replay_root_;
  // Set when auditing is configured (audit_invariants or $ONOFF_AUDIT).
  std::unique_ptr<ChainAuditor> auditor_;
  // Owned recorder installed as the process global for this chain's
  // lifetime (flight_recorder_events > 0, or auditing on with no recorder
  // installed yet — a violation should always capture evidence).
  std::unique_ptr<obs::FlightRecorder> flight_recorder_;
  obs::FlightRecorder* previous_recorder_ = nullptr;
  std::unique_ptr<obs::TimeseriesSampler> timeseries_;
};

}  // namespace onoff::chain

#endif  // ONOFFCHAIN_CHAIN_BLOCKCHAIN_H_
