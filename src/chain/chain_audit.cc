#include "chain/chain_audit.h"

#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"
#include "support/log.h"
#include "trace/trace.h"

namespace onoff::chain {

namespace {

std::string HashHex(const Hash32& h) {
  return ToHex0x(BytesView(h.data(), h.size()));
}

uint64_t AmbientTraceId() { return trace::CurrentContext().trace_id; }

// ---- full sweeps ---------------------------------------------------------
// When a per-account invariant evaluates a block from the state's touched
// set rather than a sweep of the whole account map. The touched set is a
// valid window when the invariant audited an earlier block and the window
// opened exactly once since (so it holds exactly the writes made after that
// audit); the invariant sweeps when there is no valid window and on every
// block whose height is a multiple of the sweep interval (0 or 1: every
// block), which bounds how long a write that skipped the set goes unseen.
class SweepSchedule {
 public:
  explicit SweepSchedule(uint64_t interval) : interval_(interval) {}

  // Call once per audited block, before evaluating it.
  void Begin(const Block& block, const state::WorldState& state) {
    const uint64_t epoch = state.touched_epoch();
    window_ = audited_epoch_.has_value() && epoch == *audited_epoch_ + 1;
    audited_epoch_ = epoch;
    sweep_ = !window_ || interval_ <= 1 ||
             block.header.number % interval_ == 0;
    if (sweep_) {
      static obs::Counter* sweeps = obs::GetCounterOrNull("audit.full_sweeps");
      if (sweeps != nullptr) sweeps->Inc();
    }
  }
  // state.touched_accounts() holds exactly the writes since the last audit.
  bool window() const { return window_; }
  // Evaluate from a sweep of every account.
  bool sweep() const { return sweep_; }

 private:
  uint64_t interval_;
  std::optional<uint64_t> audited_epoch_;
  bool window_ = false;
  bool sweep_ = true;
};

// ---- conservation --------------------------------------------------------
// Sum of balances == initial sum + recorded mints: transactions move value
// (sender → recipient, sender → coinbase fee) but never create it. Between
// sweeps the sum is carried forward by the touched accounts' balance deltas
// (U256 arithmetic wraps the same way the sweep's sum does, so both are
// exact).
class ConservationInvariant : public BlockInvariant {
 public:
  explicit ConservationInvariant(uint64_t sweep_interval)
      : schedule_(sweep_interval) {}

  const char* name() const override { return "conservation"; }

  void OnBlockStart(const state::WorldState& state) override {
    if (initialized_) return;
    // Lazy baseline: whatever the chain holds when auditing starts (genesis
    // allocations made before the auditor attached).
    expected_ = TotalBalance(state);
    initialized_ = true;
  }

  void OnMint(const Address& /*addr*/, const U256& amount) override {
    if (initialized_) expected_ = expected_ + amount;
    // Pre-baseline mints are folded into the lazy initial sum.
  }

  void OnBlockCommit(const Block& block,
                     std::span<const PendingTx> /*records*/,
                     const std::vector<Receipt>& /*receipts*/,
                     const state::WorldState& state,
                     obs::Auditor& sink) override {
    schedule_.Begin(block, state);
    if (schedule_.sweep()) {
      total_ = TotalBalance(state);
    } else {
      for (const auto& [addr, pre] : state.touched_accounts()) {
        total_ += state.GetBalance(addr);
        total_ -= pre.balance;
      }
    }
    if (total_ == expected_) return;
    obs::ViolationReport report;
    report.invariant = name();
    report.message = "sum of account balances diverged from minted supply";
    report.trace_id = AmbientTraceId();
    report.block_height = block.header.number;
    report.values = {{"expected_total", expected_.ToHex()},
                     {"actual_total", total_.ToHex()}};
    sink.Report(std::move(report));
    // Re-anchor so one corrupted block does not re-report forever.
    expected_ = total_;
  }

 private:
  static U256 TotalBalance(const state::WorldState& state) {
    U256 total;
    state.ForEachAccount([&total](const Address&, const state::Account& acc) {
      total += acc.balance;
    });
    return total;
  }

  SweepSchedule schedule_;
  bool initialized_ = false;
  U256 expected_;
  U256 total_;  // the sum of balances at the last audited block
};

// ---- nonce ---------------------------------------------------------------
// Per-sender monotonicity: a block moves a sender's nonce forward by at most
// its transaction count and at least its successful-transaction count, and
// an account with no transactions in the block keeps its nonce. (Reverted
// calls consume a nonce but report success=false, so the bounds are a range,
// not an equality.) Between sweeps only the touched accounts and the
// block's senders are checked: any other account kept its nonce. A deleted
// account loses its baseline, so a recreated one is first-sight. Violations
// are reported in ascending address order.
class NonceInvariant : public BlockInvariant {
 public:
  explicit NonceInvariant(uint64_t sweep_interval)
      : schedule_(sweep_interval) {}

  const char* name() const override { return "nonce"; }

  void OnBlockCommit(const Block& block, std::span<const PendingTx> records,
                     const std::vector<Receipt>& receipts,
                     const state::WorldState& state,
                     obs::Auditor& sink) override {
    schedule_.Begin(block, state);
    struct SenderTxs {
      uint64_t count = 0;
      uint64_t successful = 0;
      size_t first_tx = 0;  // index into block.transactions
    };
    std::unordered_map<Address, SenderTxs> by_sender;
    for (size_t i = 0; i < block.transactions.size(); ++i) {
      auto sender = block.transactions[i].Sender();
      if (!sender.ok()) continue;  // unsigned txs never reach a block
      SenderTxs& entry = by_sender[*sender];
      if (entry.count == 0) entry.first_tx = i;
      ++entry.count;
      if (i < receipts.size() && receipts[i].success) ++entry.successful;
    }
    const SenderTxs no_txs;
    struct Violation {
      Address addr;
      const char* problem;
      uint64_t previous;
      uint64_t nonce;
      const SenderTxs* txs;  // &no_txs when the account sent nothing
    };
    std::vector<Violation> violations;
    auto check = [&](const Address& addr, const state::Account& acc) {
      const uint64_t nonce = acc.nonce;
      auto [tracked, first_sight] = last_nonce_.try_emplace(addr, nonce);
      // First sight (new sender, contract created this block at nonce 1):
      // the baseline starts here.
      if (first_sight) return;
      const uint64_t previous = tracked->second;
      tracked->second = nonce;
      auto sent = by_sender.find(addr);
      const SenderTxs& txs = sent != by_sender.end() ? sent->second : no_txs;
      // A contract's nonce advances when it CREATEs internally (the betting
      // contract deploying the verified instance), driven by someone else's
      // transaction — only decreases are checkable for code-bearing
      // accounts. EOAs move their nonce exclusively via their own
      // transactions, so the full bounds apply.
      const char* problem = nullptr;
      if (nonce < previous) {
        problem = "account nonce decreased";
      } else if (!acc.IsContract() && nonce - previous > txs.count) {
        problem = txs.count == 0
                      ? "account nonce changed with no transaction from it"
                      : "account nonce skipped past its transaction count";
      } else if (!acc.IsContract() && nonce - previous < txs.successful) {
        problem = "successful transactions did not all consume a nonce";
      }
      if (problem != nullptr) {
        violations.push_back({addr, problem, previous, nonce, &txs});
      }
    };
    auto check_live = [&](const Address& addr) {
      if (const state::Account* acc = state.Find(addr)) check(addr, *acc);
    };
    const auto& touched = state.touched_accounts();
    if (schedule_.window()) {
      for (const auto& [addr, pre] : touched) {
        if (pre.NewIncarnation()) last_nonce_.erase(addr);
      }
    }
    if (schedule_.sweep()) {
      state.ForEachAccount(check);
    } else {
      for (const auto& [addr, pre] : touched) check_live(addr);
      for (const auto& [addr, txs] : by_sender) {
        if (touched.find(addr) == touched.end()) check_live(addr);
      }
    }
    std::sort(violations.begin(), violations.end(),
              [](const Violation& a, const Violation& b) {
                return a.addr < b.addr;
              });
    for (const Violation& v : violations) {
      obs::ViolationReport report;
      report.invariant = name();
      report.message = v.problem;
      report.block_height = block.header.number;
      report.trace_id = AmbientTraceId();
      if (v.txs->count > 0) {
        // The transaction hash is computed only for a report that names
        // it, never on a clean block; the trace is its submitter's.
        const size_t first_tx = v.txs->first_tx;
        report.tx_hash = HashHex(block.transactions[first_tx].Hash());
        if (first_tx < records.size() && records[first_tx].trace.valid()) {
          report.trace_id = records[first_tx].trace.trace_id;
        }
      }
      report.values = {{"account", v.addr.ToHex()},
                       {"nonce_before", std::to_string(v.previous)},
                       {"nonce_after", std::to_string(v.nonce)},
                       {"txs_in_block", std::to_string(v.txs->count)},
                       {"successful_txs", std::to_string(v.txs->successful)}};
      sink.Report(std::move(report));
    }
  }

 private:
  SweepSchedule schedule_;
  std::unordered_map<Address, uint64_t> last_nonce_;
};

// ---- settlement ----------------------------------------------------------
// A game id settles at most once, and a settlement that moved the pot paid
// the rightful winner.
class SettlementInvariant : public BlockInvariant {
 public:
  const char* name() const override { return "settlement"; }

  void OnSettlement(const SettlementAudit& settlement,
                    obs::Auditor& sink) override {
    if (!settlement.resolved) return;  // aborts/refunds/locked pots
    if (!settled_games_.insert(settlement.game).second) {
      obs::ViolationReport report;
      report.invariant = name();
      report.message = "game settled twice";
      report.trace_id = settlement.trace_id;
      report.values = {{"game", settlement.game.ToHex()},
                       {"settlement", settlement.settlement}};
      sink.Report(std::move(report));
      return;
    }
    if (!settlement.correct_payout) {
      obs::ViolationReport report;
      report.invariant = name();
      report.message = "settlement completed but the pot missed the winner";
      report.trace_id = settlement.trace_id;
      report.values = {{"game", settlement.game.ToHex()},
                       {"settlement", settlement.settlement}};
      sink.Report(std::move(report));
    }
  }

 private:
  std::set<Address> settled_games_;
};

// ---- receipt_root --------------------------------------------------------
// The committed header's tx/receipt roots must match the roots recomputed
// from the block body — the speculation/commit consistency check.
class ReceiptRootInvariant : public BlockInvariant {
 public:
  const char* name() const override { return "receipt_root"; }

  void OnBlockCommit(const Block& block,
                     std::span<const PendingTx> /*records*/,
                     const std::vector<Receipt>& receipts,
                     const state::WorldState& /*state*/,
                     obs::Auditor& sink) override {
    std::vector<Bytes> tx_payloads;
    tx_payloads.reserve(block.transactions.size());
    for (const Transaction& tx : block.transactions) {
      tx_payloads.push_back(tx.Encode());
    }
    std::vector<Bytes> receipt_payloads;
    receipt_payloads.reserve(receipts.size());
    for (const Receipt& receipt : receipts) {
      receipt_payloads.push_back(receipt.Encode());
    }
    Check(block, "tx_root", block.header.tx_root, IndexedRoot(tx_payloads),
          sink);
    Check(block, "receipt_root", block.header.receipt_root,
          IndexedRoot(receipt_payloads), sink);
  }

 private:
  void Check(const Block& block, const char* which, const Hash32& header_root,
             const Hash32& body_root, obs::Auditor& sink) {
    if (header_root == body_root) return;
    obs::ViolationReport report;
    report.invariant = name();
    report.message = std::string(which) +
                     " in the committed header does not match the block body";
    report.trace_id = AmbientTraceId();
    report.block_height = block.header.number;
    report.values = {{"field", which},
                     {"header_root", HashHex(header_root)},
                     {"recomputed_root", HashHex(body_root)}};
    sink.Report(std::move(report));
  }
};

// ---- timer ---------------------------------------------------------------
// Block timestamps never go backwards, and sim-bound disputes respect the
// challenge window on the virtual clock: a resolution after the window (or
// a timeout declared before it closed) means the dispute timer is broken.
class TimerInvariant : public BlockInvariant {
 public:
  const char* name() const override { return "timer"; }

  void OnBlockCommit(const Block& block,
                     std::span<const PendingTx> /*records*/,
                     const std::vector<Receipt>& /*receipts*/,
                     const state::WorldState& /*state*/,
                     obs::Auditor& sink) override {
    if (block.header.timestamp < last_timestamp_) {
      obs::ViolationReport report;
      report.invariant = name();
      report.message = "block timestamp went backwards";
      report.trace_id = AmbientTraceId();
      report.block_height = block.header.number;
      report.values = {
          {"previous_timestamp", std::to_string(last_timestamp_)},
          {"block_timestamp", std::to_string(block.header.timestamp)}};
      sink.Report(std::move(report));
    }
    last_timestamp_ = block.header.timestamp;
  }

  void OnSettlement(const SettlementAudit& settlement,
                    obs::Auditor& sink) override {
    if (settlement.t3_ms == 0) return;  // unbound run: no virtual deadlines
    uint64_t window_end =
        settlement.t3_ms + settlement.challenge_period_ms;
    std::string problem;
    if (settlement.settlement == "disputed" && settlement.resolved &&
        settlement.settled_ms > window_end) {
      problem = "dispute resolved after the challenge window closed";
    } else if (settlement.settlement == "dispute-timed-out" &&
               settlement.settled_ms < window_end) {
      problem = "dispute declared timed out before the window closed";
    } else if (settlement.settlement == "optimistic" &&
               settlement.settled_ms > settlement.t3_ms) {
      problem = "optimistic settlement landed after the T3 deadline";
    }
    if (problem.empty()) return;
    obs::ViolationReport report;
    report.invariant = name();
    report.message = problem;
    report.trace_id = settlement.trace_id;
    report.values = {
        {"game", settlement.game.ToHex()},
        {"settled_ms", std::to_string(settlement.settled_ms)},
        {"t3_ms", std::to_string(settlement.t3_ms)},
        {"challenge_period_ms",
         std::to_string(settlement.challenge_period_ms)}};
    sink.Report(std::move(report));
  }

 private:
  uint64_t last_timestamp_ = 0;
};

bool SpecEnables(const std::string& spec, const char* name) {
  if (spec == "all") return true;
  std::stringstream ss(spec);
  std::string token;
  while (std::getline(ss, token, ',')) {
    if (token == name) return true;
  }
  return false;
}

}  // namespace

std::vector<std::unique_ptr<BlockInvariant>> MakeBuiltinInvariants(
    const std::string& spec, uint64_t sweep_interval) {
  std::vector<std::unique_ptr<BlockInvariant>> invariants;
  if (SpecEnables(spec, "conservation")) {
    invariants.push_back(
        std::make_unique<ConservationInvariant>(sweep_interval));
  }
  if (SpecEnables(spec, "nonce")) {
    invariants.push_back(std::make_unique<NonceInvariant>(sweep_interval));
  }
  if (SpecEnables(spec, "settlement")) {
    invariants.push_back(std::make_unique<SettlementInvariant>());
  }
  if (SpecEnables(spec, "receipt_root")) {
    invariants.push_back(std::make_unique<ReceiptRootInvariant>());
  }
  if (SpecEnables(spec, "timer")) {
    invariants.push_back(std::make_unique<TimerInvariant>());
  }
  return invariants;
}

ChainAuditor::ChainAuditor(const std::string& spec,
                           obs::AuditorConfig sink_config,
                           uint64_t sweep_interval)
    : sink_(std::move(sink_config)) {
  for (auto& invariant : MakeBuiltinInvariants(spec, sweep_interval)) {
    AddInvariant(std::move(invariant));
  }
  if (invariants_.empty()) {
    ONOFF_LOG(log::Level::kWarn, "audit",
              "audit spec '%s' enables no invariants", spec.c_str());
  }
}

void ChainAuditor::OnBlockStart(const state::WorldState& state) {
  for (auto& invariant : invariants_) invariant->OnBlockStart(state);
}

void ChainAuditor::OnBlockCommit(const Block& block,
                                 std::span<const PendingTx> records,
                                 const std::vector<Receipt>& receipts,
                                 const state::WorldState& state) {
  for (size_t i = 0; i < invariants_.size(); ++i) {
    obs::ScopedTimer timer(commit_us_[i]);
    invariants_[i]->OnBlockCommit(block, records, receipts, state, sink_);
  }
}

void ChainAuditor::OnMint(const Address& addr, const U256& amount) {
  for (auto& invariant : invariants_) invariant->OnMint(addr, amount);
}

void ChainAuditor::OnSettlement(const SettlementAudit& settlement) {
  for (auto& invariant : invariants_) {
    invariant->OnSettlement(settlement, sink_);
  }
}

void ChainAuditor::AddInvariant(std::unique_ptr<BlockInvariant> invariant) {
  commit_us_.push_back(obs::GetHistogramOrNull(
      std::string("audit.") + invariant->name() + "_us",
      obs::DefaultTimeBucketsUs()));
  invariants_.push_back(std::move(invariant));
}

}  // namespace onoff::chain
