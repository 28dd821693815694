// The chain's runtime invariant auditor: the built-in protocol-level
// invariants a spec selects, evaluated at block-commit and settlement
// boundaries, reporting structured violations into an obs::Auditor sink
// (which counts, logs, dumps a flight-recorder triage bundle, and aborts
// under fail-fast). These are the properties the paper's security argument
// rests on, checked on every run instead of asserted in one test.
//
// Built-in invariants (spec names for ChainConfig::audit_invariants):
//   conservation  — sum of account balances equals genesis plus recorded
//                   mints: fees move value to the coinbase, they never
//                   create it
//   nonce         — per-sender nonce monotonicity: a block advances a
//                   sender's nonce by at most its transaction count, at
//                   least its successful count, and never changes the nonce
//                   of an account with no transactions in the block
//   settlement    — no double settlement of a game id, and a completed
//                   settlement pays the rightful winner
//   receipt_root  — the committed header's tx/receipt roots match the
//                   block body (speculation/commit consistency; the
//                   parallel-equivalence replay reports here before abort)
//   timer         — block timestamps are monotonic; sim-bound disputes
//                   resolve inside the challenge window on the virtual clock
//
// Conservation and nonce are checked after every block in O(accounts the
// block touched), from WorldState::touched_accounts(), with a full sweep of
// the account map at the first audited block and every `sweep_interval`
// blocks after it.
//
// The nonce invariant recovers each sender from the block body itself, an
// independent check of what was mined; the block's pool records
// (chain::PendingTx) give a report only its trace link.
//
// "all" (or the ONOFF_AUDIT environment variable, which CI sets) enables
// every invariant.

#ifndef ONOFFCHAIN_CHAIN_CHAIN_AUDIT_H_
#define ONOFFCHAIN_CHAIN_CHAIN_AUDIT_H_

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "chain/block.h"
#include "chain/tx_pool.h"
#include "obs/audit.h"
#include "obs/metrics.h"
#include "state/world_state.h"

namespace onoff::chain {

// Settlement-boundary facts, reported by the protocol driver when a game
// reaches a terminal state. The on-chain contract address is the game id.
struct SettlementAudit {
  Address game;
  std::string settlement;  // SettlementName() string
  // True when the settlement moved the pot (optimistic reassign or a
  // completed dispute resolution) — the paths where double settlement and
  // wrong payouts are meaningful.
  bool resolved = false;
  bool correct_payout = false;
  // Virtual-clock facts (0 when the run was not sim-bound): the T3
  // deadline, the settle instant, and the challenge window length.
  uint64_t t3_ms = 0;
  uint64_t settled_ms = 0;
  uint64_t challenge_period_ms = 0;
  uint64_t trace_id = 0;
};

// One pluggable invariant. Stateful across blocks (the auditor owns one
// instance per invariant per chain); not thread-safe — the chain calls these
// from its mining thread only.
class BlockInvariant {
 public:
  virtual ~BlockInvariant() = default;
  virtual const char* name() const = 0;
  // Pre-execution capture point: the pre-block world state.
  virtual void OnBlockStart(const state::WorldState& /*state*/) {}
  // Post-commit check point: the block is fully formed (roots computed) and
  // the state is post-block. `records` are the pool records the block was
  // sealed from, parallel to block.transactions (whose transactions moved
  // out of them), or empty when the caller has none.
  virtual void OnBlockCommit(const Block& /*block*/,
                             std::span<const PendingTx> /*records*/,
                             const std::vector<Receipt>& /*receipts*/,
                             const state::WorldState& /*state*/,
                             obs::Auditor& /*sink*/) {}
  virtual void OnMint(const Address& /*addr*/, const U256& /*amount*/) {}
  virtual void OnSettlement(const SettlementAudit& /*settlement*/,
                            obs::Auditor& /*sink*/) {}
};

// The registry: owns the enabled invariants and the report sink, fans the
// chain's hook calls out to them. `spec` is "all" or a comma-separated
// subset of the names above (unknown names are ignored with a warning).
// `sweep_interval` is how often, in blocks, conservation and nonce sweep
// every account (0 or 1: every block); Blockchain passes
// ChainConfig::state_history_blocks, so a write that skipped the touched
// set is still caught inside the dispute window.
class ChainAuditor {
 public:
  ChainAuditor(const std::string& spec, obs::AuditorConfig sink_config,
               uint64_t sweep_interval = 0);

  void OnBlockStart(const state::WorldState& state);
  void OnBlockCommit(const Block& block, std::span<const PendingTx> records,
                     const std::vector<Receipt>& receipts,
                     const state::WorldState& state);
  void OnMint(const Address& addr, const U256& amount);
  void OnSettlement(const SettlementAudit& settlement);

  obs::Auditor& sink() { return sink_; }
  uint64_t violations() const { return sink_.violations(); }
  size_t invariant_count() const { return invariants_.size(); }

 private:
  // Registers one of the spec's built-in invariants; its OnBlockCommit is
  // timed into the histogram audit.<name>_us.
  void AddInvariant(std::unique_ptr<BlockInvariant> invariant);

  obs::Auditor sink_;
  std::vector<std::unique_ptr<BlockInvariant>> invariants_;
  std::vector<obs::Histogram*> commit_us_;  // parallel to invariants_
};

// The built-in invariants for `spec` (factored out so tests can build a
// corpus against individual invariants).
std::vector<std::unique_ptr<BlockInvariant>> MakeBuiltinInvariants(
    const std::string& spec, uint64_t sweep_interval = 0);

}  // namespace onoff::chain

#endif  // ONOFFCHAIN_CHAIN_CHAIN_AUDIT_H_
