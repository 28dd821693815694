// Optimistic parallel block execution (single-wave Block-STM flavor).
//
// Every transaction of a block is speculated concurrently on the shared
// thread pool, each against its own copy-on-write overlay of the pre-block
// WorldState (state/speculative_state.h) with per-field read/write-set
// recording. Afterwards the overlays are committed serially in block order:
// a speculation whose read set is disjoint from everything committed before
// it is sound — executing it against the pre-block state and against the
// current state is indistinguishable — so its overlay and receipt are
// committed verbatim. A conflicting speculation is discarded and the
// transaction re-executed on a fresh overlay over the current committed
// state (capturing a write set, so later conflict checks see its effects
// too), which makes the result byte-identical to serial execution: same
// state root, same receipts, in the same block order.
//
// The executor knows a block's transactions only by index: the caller's
// ExecFn looks each one up (Blockchain reads its pool record, sender
// included), so the wave recovers nothing and writes no sender memo.

#ifndef ONOFFCHAIN_CHAIN_PARALLEL_EXECUTOR_H_
#define ONOFFCHAIN_CHAIN_PARALLEL_EXECUTOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "chain/block.h"
#include "state/speculative_state.h"
#include "state/world_state.h"
#include "support/thread_pool.h"

namespace onoff::state {
class StateView;
}  // namespace onoff::state

namespace onoff::chain {

// A static over-approximation of one transaction's access footprint,
// derived from the analyzer's per-selector access summaries (DESIGN §12)
// in the same key encoding the dynamic recorder uses. `known == false`
// (the ⊤ hint) means the analysis could not bound the footprint, so there
// is nothing to audit.
struct TxAccessHint {
  bool known = false;
  state::AccessSet reads;
  state::AccessSet writes;
};

struct ParallelExecStats {
  size_t speculated = 0;   // speculative executions run in the wave
  size_t committed = 0;    // speculations committed verbatim
  size_t conflicts = 0;    // speculations discarded on read/write conflict
  size_t reexecuted = 0;   // serial re-executions (== conflicts)
  size_t hint_violations = 0;  // executions escaping their known hint
};

class ParallelExecutor {
 public:
  // Executes the block's transaction number `index` (0-based, block order)
  // against the given view and returns its receipt. Must be thread-safe
  // apart from the view (it is called concurrently during the wave, each
  // call with a distinct view) and must route the miner-fee credit through
  // StateView::CreditFee.
  using ExecFn = std::function<Receipt(state::StateView&, size_t index)>;

  // `pool` is not owned; nullptr uses ThreadPool::Shared().
  explicit ParallelExecutor(ThreadPool* pool = nullptr) : pool_(pool) {}

  // Runs the wave + ordered commit described above over `tx_count`
  // transactions, which `execute` looks up by index. On return `state`
  // holds the post-block state, journaled so the caller can still revert
  // it, and the result one receipt per transaction, in block order. Not
  // reentrant; `state` must not be touched concurrently.
  //
  // `audit_hints` (optional, one entry per transaction) are static access
  // footprints claimed by the analyzer, and the executor only checks them:
  // every execution of a transaction with a known hint — its speculation
  // and, after a conflict, its re-execution — must record accesses the
  // hint covers (static ⊇ dynamic), and each one that does not bumps
  // `stats->hint_violations`. Hints never decide a commit.
  std::vector<Receipt> ExecuteBlock(
      state::WorldState& state, size_t tx_count, const ExecFn& execute,
      ParallelExecStats* stats = nullptr,
      const std::vector<TxAccessHint>* audit_hints = nullptr);

 private:
  ThreadPool* pool_;
};

}  // namespace onoff::chain

#endif  // ONOFFCHAIN_CHAIN_PARALLEL_EXECUTOR_H_
