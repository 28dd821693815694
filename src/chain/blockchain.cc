#include "chain/blockchain.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "abi/abi.h"
#include "analysis/access_summary.h"
#include "chain/parallel_executor.h"
#include "evm/gas.h"
#include "obs/metrics.h"
#include "storage/shared_trie.h"
#include "support/log.h"
#include "trace/span_hook.h"
#include "trace/trace.h"

namespace onoff::chain {

namespace {

// ~Feb 2019, the paper's era.
constexpr uint64_t kGenesisTimestamp = 1'550'000'000;

// The phases of sealing a block (MineBlock and ImportBlock), in order.
enum Phase : size_t {
  kPack,
  kExec,
  kFinalize,
  kStateRoot,
  kRoots,
  kAudit,
  kPersist,
  kPrune,
  kPhaseCount
};

// Wall time per block phase. Each Charge() bills the time since the
// previous one to a phase; Observe() puts each phase's total for the block
// into chain.phase.<phase>_us, 0 for a phase that did not run, so every
// phase histogram holds one sample per block.
class PhaseClock {
 public:
  void Charge(Phase phase) {
    const uint64_t now = obs::Clock::NowUs();
    us_[phase] += now - last_;
    last_ = now;
  }

  void Observe() const {
    static const std::array<obs::Histogram*, kPhaseCount> histograms = [] {
      const char* const kNames[kPhaseCount] = {
          "pack", "exec",  "finalize", "state_root",
          "roots", "audit", "persist", "prune"};
      std::array<obs::Histogram*, kPhaseCount> out{};
      for (size_t i = 0; i < kPhaseCount; ++i) {
        out[i] = obs::GetHistogramOrNull(
            std::string("chain.phase.") + kNames[i] + "_us",
            obs::DefaultTimeBucketsUs());
      }
      return out;
    }();
    for (size_t i = 0; i < kPhaseCount; ++i) {
      if (histograms[i] != nullptr) {
        histograms[i]->Observe(static_cast<double>(us_[i]));
      }
    }
  }

 private:
  uint64_t last_ = obs::Clock::NowUs();
  std::array<uint64_t, kPhaseCount> us_{};
};

}  // namespace

Blockchain::Blockchain(ChainConfig config)
    : config_(std::move(config)),
      // The pool packs each sender's transactions as a contiguous nonce run
      // from the account nonce; anything below it is unminable and dropped.
      pool_([this](const Address& addr) { return state_.GetNonce(addr); }),
      now_(kGenesisTimestamp) {
  if (config_.exec_workers > 0) {
    exec_pool_ = std::make_unique<ThreadPool>(config_.exec_workers);
  }
  if (config_.persist_state) {
    node_store_ = std::make_unique<storage::NodeStore>(config_.state_db_path);
    Status st = node_store_->Open();
    if (!st.ok()) {
      ONOFF_LOG(log::Level::kError, "chain",
                "cannot open state node store at '%s': %s — persistence off",
                config_.state_db_path.c_str(), st.message().c_str());
      node_store_.reset();
    }
  }
  // Invariant auditing: an explicit config wins and reports; otherwise
  // $ONOFF_AUDIT supplies the spec and makes violations fatal (the CI
  // posture).
  std::string audit_spec = config_.audit_invariants;
  bool fail_fast = false;
  if (audit_spec.empty()) {
    const char* env = std::getenv("ONOFF_AUDIT");
    if (env != nullptr && env[0] != '\0' && std::strcmp(env, "0") != 0) {
      audit_spec = env;
      fail_fast = true;
    }
  }
  if (!audit_spec.empty()) {
    obs::AuditorConfig sink_config;
    sink_config.fail_fast = fail_fast;
    // Full audit sweeps run once per history window, so a state write that
    // skipped the touched set is still caught while the state it corrupted
    // can be disputed.
    auditor_ = std::make_unique<ChainAuditor>(audit_spec, sink_config,
                                              config_.state_history_blocks);
  }
  // An audited chain without a recorder would detect violations but capture
  // no evidence, so auditing implies a default-sized recorder unless one is
  // already installed process-wide.
  size_t recorder_slots = config_.flight_recorder_events;
  if (recorder_slots == 0 && auditor_ != nullptr &&
      obs::FlightRecorder::Global() == nullptr) {
    recorder_slots = 1024;
  }
  if (recorder_slots > 0) {
    obs::FlightRecorderConfig recorder_config;
    recorder_config.capacity = recorder_slots;
    flight_recorder_ = std::make_unique<obs::FlightRecorder>(recorder_config);
    previous_recorder_ =
        obs::FlightRecorder::InstallGlobal(flight_recorder_.get());
  }
  if (config_.timeseries_interval_ms > 0) {
    obs::TimeseriesConfig sampler_config;
    sampler_config.interval_ms = config_.timeseries_interval_ms;
    timeseries_ = std::make_unique<obs::TimeseriesSampler>(
        obs::Registry::Global(), sampler_config);
  }
  Block genesis;
  genesis.header.number = 0;
  genesis.header.timestamp = now_;
  genesis.header.coinbase = config_.coinbase;
  genesis.header.gas_limit = config_.block_gas_limit;
  genesis.header.state_root = state_.StateRoot();
  genesis.header.tx_root = storage::SharedTrie::EmptyRoot();
  genesis.header.receipt_root = storage::SharedTrie::EmptyRoot();
  if (node_store_ != nullptr) {
    Status st = state_.PersistCommitted(*node_store_, 0);
    if (st.ok()) st = node_store_->Flush();
    if (!st.ok()) {
      ONOFF_LOG(log::Level::kWarn, "chain", "genesis state persist failed: %s",
                st.message().c_str());
    }
  }
  blocks_.push_back(std::move(genesis));
}

Blockchain::~Blockchain() {
  if (flight_recorder_ != nullptr) {
    obs::FlightRecorder::InstallGlobal(previous_recorder_);
  }
}

void Blockchain::FundAccount(const Address& addr, const U256& amount) {
  state_.AddBalance(addr, amount);
  state_.ClearJournal();
  if (auditor_ != nullptr) auditor_->OnMint(addr, amount);
}

Result<Hash32> Blockchain::SubmitTransaction(const Transaction& tx) {
  return SubmitTo(pool_, tx, tx.Sender());
}

std::vector<Result<Hash32>> Blockchain::SubmitTransactions(
    std::span<const Transaction> txs) {
  return Admit(pool_, txs);
}

std::vector<Result<Hash32>> Blockchain::Admit(
    TxPool& pool, std::span<const Transaction> txs) {
  // Each worker recovers only its own transaction's sender, and recovery is
  // a pure function of the transaction's bytes, so the in-order admission
  // below gets what a serial loop would compute, failures included.
  std::vector<Result<Address>> senders(
      txs.size(), Status::Internal("sender not recovered"));
  auto recover = [&](size_t i) { senders[i] = txs[i].Sender(); };
  if (txs.size() >= 2) {
    ThreadPool::Shared().ParallelFor(txs.size(), recover);
  } else {
    for (size_t i = 0; i < txs.size(); ++i) recover(i);
  }
  std::vector<Result<Hash32>> results;
  results.reserve(txs.size());
  for (size_t i = 0; i < txs.size(); ++i) {
    results.push_back(SubmitTo(pool, txs[i], std::move(senders[i])));
  }
  return results;
}

Result<Hash32> Blockchain::SubmitTo(TxPool& pool, const Transaction& tx,
                                    Result<Address> recovered) {
  // The transaction's one recovery and one hash: the pool record carries
  // both to execution, an import's pool cleanup and the audit.
  ONOFF_ASSIGN_OR_RETURN(const Address sender, std::move(recovered));
  if (tx.gas_limit > config_.block_gas_limit) {
    return Status::InvalidArgument("gas limit exceeds block gas limit");
  }
  if (tx.gas_limit < tx.IntrinsicGas()) {
    return Status::InvalidArgument("gas limit below intrinsic gas");
  }
  PendingTx record{tx, sender, tx.Hash(), {}};
  // The Transaction wire format carries no trace ids, so the record keeps
  // the submitter's context (invalid when it has none or tracing is off).
  if (trace::Tracer::Global() != nullptr) {
    record.trace = trace::CurrentContext();
  }
  const Hash32 hash = record.hash;
  ONOFF_RETURN_NOT_OK(pool.Add(std::move(record)));
  return hash;
}

Result<Hash32> Blockchain::SendTransaction(const secp256k1::PrivateKey& key,
                                           std::optional<Address> to,
                                           const U256& value, Bytes data,
                                           uint64_t gas_limit,
                                           const U256& gas_price) {
  Transaction tx;
  tx.nonce = state_.GetNonce(key.EthAddress());
  // Account for transactions already pending from this sender.
  // (Simple approach: scan is unnecessary since tests mine eagerly.)
  tx.gas_price = gas_price;
  tx.gas_limit = gas_limit;
  tx.to = to;
  tx.value = value;
  tx.data = std::move(data);
  tx.Sign(key);
  return SubmitTransaction(tx);
}

Result<Receipt> Blockchain::Execute(const secp256k1::PrivateKey& key,
                                    std::optional<Address> to,
                                    const U256& value, Bytes data,
                                    uint64_t gas_limit, const U256& gas_price) {
  ONOFF_ASSIGN_OR_RETURN(
      Hash32 hash,
      SendTransaction(key, to, value, std::move(data), gas_limit, gas_price));
  MineBlock();
  return GetReceipt(hash);
}

evm::BlockContext Blockchain::MakeBlockContext(uint64_t number,
                                               uint64_t timestamp) const {
  evm::BlockContext ctx;
  ctx.number = number;
  ctx.timestamp = timestamp;
  ctx.coinbase = config_.coinbase;
  ctx.gas_limit = config_.block_gas_limit;
  ctx.block_hash = [this](uint64_t n) -> Hash32 {
    if (n < blocks_.size()) return blocks_[n].Hash();
    return Hash32{};
  };
  return ctx;
}

Receipt Blockchain::ExecuteTransaction(state::StateView& state,
                                       const PendingTx& record,
                                       const BlockHeader& header, bool quiet) {
  static obs::Histogram* apply_us = obs::GetHistogramOrNull(
      "chain.apply_tx_us", obs::DefaultTimeBucketsUs());
  obs::ScopedTimer apply_span(quiet ? nullptr : apply_us);
  const Transaction& tx = record.tx;
  const Address& sender = record.sender;
  Receipt receipt;
  receipt.tx_hash = record.hash;
  receipt.block_number = header.number;

  trace::Tracer* tracer = quiet ? nullptr : trace::Tracer::Global();
  trace::ScopedSpan tx_span(
      tracer, record.trace, "tx.apply", "chain",
      {{"block", std::to_string(header.number)},
       {"tx", ToHex0x(BytesView(receipt.tx_hash.data(), 32))}});

  auto fail = [&](const std::string& reason) {
    receipt.success = false;
    receipt.output = BytesOf(reason);
    return receipt;
  };

  if (tx.nonce != state.GetNonce(sender)) return fail("nonce mismatch");

  uint64_t intrinsic = tx.IntrinsicGas();
  if (tx.gas_limit < intrinsic) return fail("intrinsic gas exceeds limit");

  U256 upfront = tx.gas_price * U256(tx.gas_limit) + tx.value;
  if (state.GetBalance(sender) < upfront) {
    return fail("insufficient balance for gas * price + value");
  }

  // Charge the full gas allowance upfront; unused gas is refunded below.
  Status st = state.SubBalance(sender, tx.gas_price * U256(tx.gas_limit));
  assert(st.ok());
  (void)st;

  evm::Evm evm(&state, MakeBlockContext(header.number, header.timestamp),
               evm::TxContext{sender, tx.gas_price});

  // Mirror the EVM call-frame tree into the trace when this tx is traced;
  // a configured step tracer rides along as the inner hook (or alone, when
  // the transaction itself is not sampled into a trace).
  trace::FrameSpanHook frame_hook(tracer, tx_span.context(), step_tracer_);
  if (tx_span.context().valid()) {
    evm.set_trace_hook(&frame_hook);
  } else if (!quiet && step_tracer_ != nullptr) {
    evm.set_trace_hook(step_tracer_);
  }

  uint64_t exec_gas = tx.gas_limit - intrinsic;
  evm::ExecResult result;
  if (tx.IsContractCreation()) {
    result = evm.Create(sender, tx.value, tx.data, exec_gas);
    receipt.contract_address = result.created;
  } else {
    state.IncrementNonce(sender);
    evm::CallMessage msg;
    msg.caller = sender;
    msg.to = *tx.to;
    msg.value = tx.value;
    msg.data = tx.data;
    msg.gas = exec_gas;
    result = evm.Call(msg);
  }

  uint64_t gas_used = tx.gas_limit - result.gas_left;
  if (result.ok()) {
    // Refunds are capped at half the gas used (Yellow Paper).
    uint64_t refund = std::min(result.refund, gas_used / 2);
    gas_used -= refund;
  }

  // Return unused gas; pay the miner. The fee goes through CreditFee so a
  // speculative view records it as a commutative delta instead of a
  // read-modify-write of the coinbase balance (which would serialize every
  // block — all transactions pay the same miner).
  state.AddBalance(sender, tx.gas_price * U256(tx.gas_limit - gas_used));
  state.CreditFee(config_.coinbase, tx.gas_price * U256(gas_used));

  receipt.success = result.ok();
  receipt.gas_used = gas_used;
  receipt.logs = std::move(result.logs);
  receipt.output = std::move(result.output);
  tx_span.AddArg("gas_used", std::to_string(gas_used));
  tx_span.AddArg("success", receipt.success ? "true" : "false");
  if (!quiet && !receipt.success) {
    static obs::Counter* failed = obs::GetCounterOrNull("chain.txs_failed");
    if (failed != nullptr) failed->Inc();
    ONOFF_LOG(log::Level::kDebug, "chain", "tx %s failed: %s",
              ToHex0x(BytesView(receipt.tx_hash.data(), 8)).c_str(),
              std::string(receipt.output.begin(), receipt.output.end())
                  .c_str());
  }
  return receipt;
}

const Block& Blockchain::MineBlock() {
  // With nothing to check the sealed block against, sealing always commits.
  (void)SealBlock(pool_, now_, /*check=*/nullptr);
  return blocks_.back();
}

Status Blockchain::ImportBlock(const Block& block) {
  const Block& head = blocks_.back();
  const std::string where = "block " + std::to_string(head.header.number + 1);
  if (block.header.number != head.header.number + 1) {
    return Status::VerificationFailed(where + ": bad block number");
  }
  if (block.header.parent_hash != head.Hash()) {
    return Status::VerificationFailed(where + ": parent hash mismatch");
  }
  if (block.header.timestamp < head.header.timestamp) {
    return Status::VerificationFailed(where + ": timestamp went backwards");
  }
  TxPool scratch([this](const Address& addr) { return state_.GetNonce(addr); });
  for (const Result<Hash32>& admitted : Admit(scratch, block.transactions)) {
    if (!admitted.ok()) {
      return Status::VerificationFailed(
          where + ": transaction rejected on replay: " +
          admitted.status().message());
    }
  }
  // Never sealed before the local clock: a timestamp inside the last block
  // interval yields a different header.
  return SealBlock(
      scratch, std::max(now_, block.header.timestamp),
      [&block, &where](const Block& sealed) {
        // In order: the first mismatch is the one reported.
        const std::pair<bool, const char*> mismatches[] = {
            {sealed.transactions.size() != block.transactions.size(),
             "transaction count diverged"},
            {sealed.header.state_root != block.header.state_root,
             "state root mismatch"},
            {sealed.header.tx_root != block.header.tx_root, "tx root mismatch"},
            {sealed.header.receipt_root != block.header.receipt_root,
             "receipt root mismatch"},
            {sealed.header.gas_used != block.header.gas_used,
             "gas used mismatch"},
            {sealed.Hash() != block.Hash(), "header hash mismatch"}};
        for (const auto& [mismatch, what] : mismatches) {
          if (mismatch) return Status::VerificationFailed(where + ": " + what);
        }
        return Status::OK();
      });
}

Status Blockchain::SealBlock(TxPool& pool, uint64_t timestamp,
                             const SealCheck& check) {
  static obs::Histogram* mine_us = obs::GetHistogramOrNull(
      "chain.mine_block_us", obs::DefaultTimeBucketsUs());
  obs::ScopedTimer mine_span(mine_us);
  PhaseClock phases;

  uint64_t number = blocks_.back().header.number + 1;

  Block block;
  block.header.parent_hash = blocks_.back().Hash();
  block.header.number = number;
  block.header.timestamp = timestamp;
  block.header.coinbase = config_.coinbase;
  block.header.gas_limit = config_.block_gas_limit;

  std::vector<Bytes> tx_payloads;
  std::vector<Bytes> receipt_payloads;
  uint64_t cumulative_gas = 0;

  // Pack against the block gas limit by cumulative transaction gas limit
  // (the worst case miners must be able to execute); transactions that no
  // longer fit stay pending for the next block.
  std::vector<PendingTx> records =
      pool.Take(config_.max_txs_per_block, config_.block_gas_limit);
  // What Take left pending; the stale entries it dropped are not deferred.
  const size_t deferred = pool.size();
  trace::Tracer* tracer = trace::Tracer::Global();
  phases.Charge(kPack);
  // The journal spans the whole block, so a block that fails `check` rolls
  // back to here; it is cleared once the block commits.
  const state::WorldState::Snapshot block_start = state_.TakeSnapshot();
  // Pre-execution capture: invariants snapshot the pre-block facts (balance
  // sums, per-sender nonces) the post-commit checks compare against.
  if (auditor_ != nullptr) auditor_->OnBlockStart(state_);
  phases.Charge(kAudit);

  // The optimistic path needs at least two transactions to overlap and is
  // mutually exclusive with a step hook (it observes execution order, which
  // speculation scrambles).
  bool parallel = config_.exec_mode == ExecMode::kParallel &&
                  records.size() >= 2 && step_tracer_ == nullptr;
  std::vector<Receipt> block_receipts;
  if (parallel) {
    block_receipts = ExecuteBlockParallel(records, block.header);
  } else {
    block_receipts.reserve(records.size());
    for (const PendingTx& record : records) {
      block_receipts.push_back(
          ExecuteTransaction(state_, record, block.header, /*quiet=*/false));
    }
  }
  phases.Charge(kExec);

  // The transactions move into the block; their records keep the sender,
  // hash and trace for the pool cleanup, the inclusion events and the audit.
  block.transactions.reserve(records.size());
  for (size_t i = 0; i < records.size(); ++i) {
    Receipt& receipt = block_receipts[i];
    cumulative_gas += receipt.gas_used;
    receipt.cumulative_gas_used = cumulative_gas;
    tx_payloads.push_back(records[i].tx.Encode());
    receipt_payloads.push_back(receipt.Encode());
    block.transactions.push_back(std::move(records[i].tx));
  }
  block.header.gas_used = cumulative_gas;
  phases.Charge(kFinalize);
  // The one per-block root computation: the incremental store folds in
  // exactly the accounts/slots this block touched. The equivalence check
  // and the persistence hook below both reuse this value.
  block.header.state_root = state_.StateRoot();
  phases.Charge(kStateRoot);
  block.header.tx_root = IndexedRoot(tx_payloads);
  block.header.receipt_root = IndexedRoot(receipt_payloads);
  phases.Charge(kRoots);

  if (pending_replay_root_.has_value()) {
    if (*pending_replay_root_ != block.header.state_root) {
      ONOFF_LOG(log::Level::kError, "chain",
                "parallel state root diverged from serial in block %llu",
                static_cast<unsigned long long>(number));
      obs::ViolationReport report;
      report.message = "parallel state root diverged from serial replay";
      report.block_height = number;
      report.values = {
          {"serial_root",
           ToHex0x(BytesView(pending_replay_root_->data(), 32))},
          {"parallel_root",
           ToHex0x(BytesView(block.header.state_root.data(), 32))}};
      AbortOnDivergence(std::move(report));
    }
    pending_replay_root_.reset();
  }

  if (check) {
    Status st = check(block);
    if (!st.ok()) {
      state_.RevertToSnapshot(block_start);
      return st;
    }
  }
  state_.ClearJournal();
  // An imported block was packed from a scratch pool; what it mined, and
  // any entry its senders' nonces have passed, is unminable in our own.
  if (&pool != &pool_) pool_.DropMined(records);

  for (size_t i = 0; i < records.size(); ++i) {
    const Receipt& receipt = block_receipts[i];
    total_gas_used_ += receipt.gas_used;
    receipts_[receipt.tx_hash] = receipt;
    if (tracer != nullptr) {
      tracer->Event(records[i].trace, "block.include", "chain",
                    {{"block", std::to_string(number)},
                     {"gas_used", std::to_string(receipt.gas_used)}});
    }
  }
  phases.Charge(kFinalize);

  if (auditor_ != nullptr) {
    auditor_->OnBlockCommit(block, records, block_receipts, state_);
  }
  // The next block's audit reads exactly the writes made after this one,
  // and the set stays the size of a block whether or not anyone audits.
  state_.ClearTouched();
  phases.Charge(kAudit);

  if (node_store_ != nullptr) {
    Status st = state_.PersistCommitted(*node_store_, number);
    phases.Charge(kPersist);
    if (!st.ok()) {
      ONOFF_LOG(log::Level::kWarn, "chain",
                "state persist failed at block %llu: %s",
                static_cast<unsigned long long>(number), st.message().c_str());
    } else if (config_.state_history_blocks > 0 &&
               number >= config_.state_history_blocks) {
      Result<size_t> pruned =
          node_store_->PruneBelow(number - config_.state_history_blocks + 1);
      if (!pruned.ok()) {
        ONOFF_LOG(log::Level::kWarn, "chain",
                  "state prune failed at block %llu: %s",
                  static_cast<unsigned long long>(number),
                  pruned.status().message().c_str());
      }
    }
    phases.Charge(kPrune);
    // Make the block durable now: a crash later (including the divergence
    // aborts above) must not tear this block out of the log.
    Status flushed = node_store_->Flush();
    if (!flushed.ok()) {
      ONOFF_LOG(log::Level::kWarn, "chain",
                "state log flush failed at block %llu: %s",
                static_cast<unsigned long long>(number),
                flushed.message().c_str());
    }
    phases.Charge(kPersist);
  }
  phases.Observe();

  const size_t tx_count = block.transactions.size();
  blocks_.push_back(std::move(block));
  now_ = timestamp + config_.block_interval_seconds;

  if (obs::FlightRecorder::Global() != nullptr) {
    obs::FlightRecord(
        obs::FlightKind::kBlockCommit, trace::CurrentContext().trace_id,
        number, cumulative_gas,
        ToHex0x(BytesView(blocks_.back().header.state_root.data(), 8)));
  }
  if (timeseries_ != nullptr) timeseries_->Tick();

  static obs::Counter* blocks_mined = obs::GetCounterOrNull(
      "chain.blocks_mined");
  static obs::Counter* txs_mined = obs::GetCounterOrNull("chain.txs_mined");
  static obs::Counter* txs_deferred = obs::GetCounterOrNull(
      "chain.txs_deferred");
  static obs::Gauge* pool_depth = obs::GetGaugeOrNull("chain.pool_depth");
  static obs::Histogram* block_gas = obs::GetHistogramOrNull(
      "chain.block_gas", obs::DefaultGasBuckets());
  if (blocks_mined != nullptr) blocks_mined->Inc();
  if (txs_mined != nullptr) txs_mined->Inc(tx_count);
  if (txs_deferred != nullptr) txs_deferred->Inc(deferred);
  if (pool_depth != nullptr) {
    pool_depth->Set(static_cast<int64_t>(pool_.size()));
  }
  if (block_gas != nullptr) {
    block_gas->Observe(static_cast<double>(cumulative_gas));
  }
  ONOFF_LOG(log::Level::kDebug, "chain",
            "mined block %llu: %zu txs, %llu gas, %zu pending",
            static_cast<unsigned long long>(number), tx_count,
            static_cast<unsigned long long>(cumulative_gas), pool_.size());
  return Status::OK();
}

TxAccessHint Blockchain::BuildAccessHint(const PendingTx& record) const {
  TxAccessHint hint;
  const Transaction& tx = record.tx;
  // Creations execute init code against a fresh address; not worth hinting.
  if (tx.IsContractCreation()) return hint;

  const Address& sender = record.sender;
  const Address& to = *tx.to;
  auto& reads = hint.reads.keys;
  auto& writes = hint.writes.keys;
  // Intrinsic bookkeeping every call transaction may touch: sender nonce
  // and balance (validation, gas charge, refund), callee existence/balance
  // (value transfer, which creates absent accounts) and code, miner fee.
  // Validation failures touch a subset of these, so the hint stays sound.
  reads.insert(state::access_key::Existence(sender));
  reads.insert(state::access_key::Balance(sender));
  reads.insert(state::access_key::Nonce(sender));
  writes.insert(state::access_key::Existence(sender));
  writes.insert(state::access_key::Balance(sender));
  writes.insert(state::access_key::Nonce(sender));
  reads.insert(state::access_key::Existence(to));
  reads.insert(state::access_key::Code(to));
  // The callee's balance (and existence, via account creation) is touched
  // only by an actual value transfer: zero-value calls skip Transfer, and a
  // contract reading its own balance uses BALANCE, which marks the summary
  // external-reading and thus unschedulable. Gating these keys on the value
  // keeps the hints of zero-value calls to disjoint selectors of one shared
  // contract disjoint.
  if (!tx.value.IsZero()) {
    reads.insert(state::access_key::Balance(to));
    writes.insert(state::access_key::Existence(to));
    writes.insert(state::access_key::Balance(to));
  }
  writes.insert(state::access_key::Balance(config_.coinbase));

  const Bytes& code = state_.GetCode(to);
  if (code.empty()) {
    // Plain transfer or precompile call: intrinsic fields only.
    hint.known = true;
    return hint;
  }

  std::shared_ptr<const analysis::ProgramAccess> access =
      analysis::AccessSummaryCache::Global().Get(state_.GetCodeHash(to), code);
  const analysis::AccessSummary* summary = &access->program;
  if (std::optional<uint32_t> selector = abi::SelectorWord(tx.data)) {
    if (const analysis::AccessSummary* sel = access->ForSelector(*selector)) {
      summary = sel;
    }
  }
  if (!summary->StaticallySchedulable()) return hint;  // ⊤: nothing to audit

  // SSTORE loads the slot before writing (and reverts re-read it), so every
  // hinted write slot is a hinted read slot too.
  for (const U256& slot : summary->reads.slots) {
    reads.insert(state::access_key::Slot(to, slot));
  }
  for (const U256& slot : summary->writes.slots) {
    reads.insert(state::access_key::Slot(to, slot));
    writes.insert(state::access_key::Slot(to, slot));
  }
  hint.known = true;
  return hint;
}

std::vector<Receipt> Blockchain::ExecuteBlockParallel(
    const std::vector<PendingTx>& records, const BlockHeader& header) {
  // The equivalence cross-check replays from the pre-block state.
  std::optional<state::WorldState> pre_state;
  if (config_.assert_parallel_equivalence) pre_state = state_.Clone();

  // Containment audit: hints must be built against the pre-block state
  // (code is looked up before the block's own transactions run), which is
  // exactly what `state_` is at this point.
  std::vector<TxAccessHint> hints;
  if (config_.check_static_containment) {
    hints.reserve(records.size());
    for (const PendingTx& record : records) {
      hints.push_back(BuildAccessHint(record));
    }
  }

  ParallelExecutor executor(exec_pool_.get());
  std::vector<Receipt> receipts = executor.ExecuteBlock(
      state_, records.size(),
      [this, &records, &header](state::StateView& view, size_t i) {
        return ExecuteTransaction(view, records[i], header, /*quiet=*/true);
      },
      &parallel_stats_,
      config_.check_static_containment ? &hints : nullptr);

  // Quiet executions skip the per-tx failure telemetry; settle it here for
  // the receipts that actually made the block.
  static obs::Counter* failed = obs::GetCounterOrNull("chain.txs_failed");
  for (const Receipt& receipt : receipts) {
    if (failed != nullptr && !receipt.success) failed->Inc();
  }

  if (pre_state.has_value()) {
    state::WorldState replay = std::move(*pre_state);
    for (size_t i = 0; i < records.size(); ++i) {
      Receipt serial =
          ExecuteTransaction(replay, records[i], header, /*quiet=*/true);
      replay.ClearJournal();
      if (serial.Encode() != receipts[i].Encode()) {
        ONOFF_LOG(log::Level::kError, "chain",
                  "parallel execution diverged from serial at tx %zu of "
                  "block %llu",
                  i, static_cast<unsigned long long>(header.number));
        obs::ViolationReport report;
        report.message = "parallel receipt diverged from serial replay";
        report.block_height = header.number;
        report.tx_hash = ToHex0x(BytesView(receipts[i].tx_hash.data(), 32));
        report.values = {{"tx_index", std::to_string(i)}};
        AbortOnDivergence(std::move(report));
      }
    }
    // Defer the root comparison: SealBlock computes the live state's root
    // once into the block header and checks this against it, instead of
    // computing state_.StateRoot() a second time here.
    pending_replay_root_ = replay.StateRoot();
  }
  return receipts;
}

void Blockchain::AbortOnDivergence(obs::ViolationReport report) {
  report.invariant = "receipt_root";
  report.trace_id = trace::CurrentContext().trace_id;
  // Capture evidence before dying: through the auditor sink when one is
  // configured (it logs, counts and dumps), else straight to the recorder.
  if (auditor_ != nullptr) {
    auditor_->sink().Report(std::move(report));
  } else if (obs::FlightRecorder* rec = obs::FlightRecorder::Global()) {
    obs::Json violation = report.ToJson();
    rec->DumpOnIncident("equivalence-abort", &violation);
  }
  std::abort();
}

void Blockchain::MineAllPending() {
  while (!pool_.empty()) {
    size_t before = pool_.size();
    MineBlock();
    // An unpackable pool (only possible when transactions bypass
    // SubmitTransaction's gas-limit validation) must not spin forever.
    if (pool_.size() == before) break;
  }
}

std::vector<evm::LogEntry> Blockchain::GetLogs(const LogQuery& query) const {
  std::vector<evm::LogEntry> out;
  for (const Block& block : blocks_) {
    if (block.header.number < query.from_block ||
        block.header.number > query.to_block) {
      continue;
    }
    for (const Transaction& tx : block.transactions) {
      auto it = receipts_.find(tx.Hash());
      if (it == receipts_.end()) continue;
      for (const evm::LogEntry& log : it->second.logs) {
        if (query.address.has_value() && log.address != *query.address) {
          continue;
        }
        if (query.topic0.has_value() &&
            (log.topics.empty() || log.topics[0] != *query.topic0)) {
          continue;
        }
        out.push_back(log);
      }
    }
  }
  return out;
}

Result<Receipt> Blockchain::GetReceipt(const Hash32& tx_hash) const {
  auto it = receipts_.find(tx_hash);
  if (it == receipts_.end()) {
    return Status::NotFound("no receipt for transaction");
  }
  return it->second;
}

evm::ExecResult Blockchain::CallReadOnly(const Address& from,
                                         const Address& to, Bytes data,
                                         uint64_t gas) {
  auto snapshot = state_.TakeSnapshot();
  evm::Evm evm(&state_, MakeBlockContext(blocks_.back().header.number + 1, now_),
               evm::TxContext{from, U256(0)});
  evm::CallMessage msg;
  msg.caller = from;
  msg.to = to;
  msg.data = std::move(data);
  msg.gas = gas;
  evm::ExecResult res = evm.Call(msg);
  state_.RevertToSnapshot(snapshot);
  return res;
}

}  // namespace onoff::chain
