// The transaction pool: pending transactions ordered per-sender by nonce,
// popped for block inclusion under a block gas budget.
//
// An entry is a PendingTx, the one record of what admission derived from a
// transaction: its sender, its hash and the submitter's trace context.
// Blockchain's admission fills it once; Take hands the records to
// execution, and the sealed block's records come back to DropMined, so no
// later stage recovers, hashes or looks up anything again.
//
// The pool is one queue in arrival order behind one mutex. Arrival order
// decides which *slots* a sender's transactions occupy in the take sequence
// (first come, first served across senders), but within one sender's slots
// the transactions are handed out in ascending nonce order. A sender who
// submits nonces {2,0,1} therefore still gets them mined as 0,1,2 instead
// of burning gas on nonce-gap failures.
//
// Packing semantics (see Take):
//  - A transaction whose gas limit no longer fits the remaining block
//    budget is *skipped* along with the rest of its sender's sequence
//    (deferring a lower nonce must defer the higher ones), and packing
//    continues with other senders — no head-of-line blocking.
//  - A sender's transactions are only packed while their nonces are
//    contiguous from the sender's base nonce (the account nonce, from the
//    provider the pool is built with); gapped entries are held in the pool
//    until the gap fills instead of being mined into certain nonce-mismatch
//    failures.
//  - Entries whose nonce is already below the base nonce can never be
//    mined and are dropped.
//  - Hashes of recently taken (in-flight/mined) transactions are remembered
//    for the last kRecentTakeBatches take batches (≈ mined blocks), and Add
//    rejects them, so a late gossip duplicate cannot be mined twice. A block
//    packed elsewhere and imported enters the window through DropMined.

#ifndef ONOFFCHAIN_CHAIN_TX_POOL_H_
#define ONOFFCHAIN_CHAIN_TX_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_set>
#include <utility>
#include <vector>

#include "chain/transaction.h"
#include "support/status.h"
#include "trace/trace.h"

namespace onoff::chain {

// What admission derived from one transaction, carried with it from the
// pool to execution, an import's pool cleanup and the audit.
struct PendingTx {
  Transaction tx;
  Address sender;             // *tx.Sender()
  Hash32 hash;                // tx.Hash()
  trace::TraceContext trace;  // the submitter's; invalid when untraced
};

class TxPool {
 public:
  // How many non-empty Take batches (≈ mined blocks) of taken hashes the
  // pool remembers for duplicate rejection before forgetting the oldest.
  static constexpr size_t kRecentTakeBatches = 128;

  // Maps a sender to its current account nonce — the base the pool packs
  // contiguous nonce runs from. Take and DropMined call it outside the
  // pool's lock.
  using BaseNonceFn = std::function<uint64_t(const Address&)>;
  explicit TxPool(BaseNonceFn base_nonce) : base_nonce_(std::move(base_nonce)) {}

  // Rejects duplicates of pending transactions and of recently taken ones.
  // Trusts its caller for the record: Blockchain's admission fills it, after
  // rejecting a transaction without a recoverable sender, and is the only
  // caller.
  Status Add(PendingTx entry);

  // Removes and returns up to `max_count` records ordered per-sender by
  // nonce under the gas budget, per the packing semantics above.
  // Single-consumer: concurrent Take calls are not supported (Adds may run
  // concurrently; transactions added while Take packs simply miss this
  // batch).
  std::vector<PendingTx> Take(size_t max_count,
                              uint64_t gas_budget = UINT64_MAX);

  // Forgets what a block packed from another pool made unminable here: its
  // transactions, which enter the recently-taken window as if Take had
  // returned them, and every pending entry of its senders whose nonce is
  // now below the base nonce. Reads only each record's sender and hash.
  void DropMined(std::span<const PendingTx> mined);

  size_t size() const;
  bool empty() const { return size() == 0; }
  // True while the transaction is pending (not yet taken).
  bool Contains(const Hash32& tx_hash) const;
  // True while the transaction's hash is inside the recently-taken window.
  bool RecentlyTaken(const Hash32& tx_hash) const;

 private:
  // Hashes all 32 bytes of a transaction hash.
  struct HashOfHash {
    size_t operator()(const Hash32& h) const {
      return std::hash<std::string_view>{}(std::string_view(
          reinterpret_cast<const char*>(h.data()), h.size()));
    }
  };
  using HashSet = std::unordered_set<Hash32, HashOfHash>;

  // Moves `hashes` from pending to the recently-taken window as one batch,
  // forgetting the oldest batches past the window. Requires mu_.
  void RememberTakenLocked(std::vector<Hash32> hashes);

  BaseNonceFn base_nonce_;
  mutable std::mutex mu_;
  std::vector<PendingTx> queue_;  // arrival order
  HashSet pending_hashes_;
  HashSet recent_taken_;
  std::deque<std::vector<Hash32>> recent_batches_;
};

}  // namespace onoff::chain

#endif  // ONOFFCHAIN_CHAIN_TX_POOL_H_
