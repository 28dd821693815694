// The transaction pool: pending transactions ordered per-sender by nonce,
// popped for block inclusion under a block gas budget.
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
//    contiguous from the sender's base nonce (the account nonce when a
//    provider is wired, else the sender's lowest pending nonce); gapped
//    entries are held in the pool until the gap fills instead of being
//    mined into certain nonce-mismatch failures.
//  - Entries whose nonce is already below the base nonce can never be
//    mined and are dropped.
//  - Hashes of recently taken (in-flight/mined) transactions are remembered
//    in a bounded window keyed off take batches (≈ mined blocks), and Add
//    rejects them, so a late gossip duplicate cannot be mined twice. A block
//    packed elsewhere and imported enters the window through DropMined.

#ifndef ONOFFCHAIN_CHAIN_TX_POOL_H_
#define ONOFFCHAIN_CHAIN_TX_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "chain/transaction.h"
#include "support/status.h"

namespace onoff::chain {

struct TxPoolConfig {
  // How many non-empty Take batches (≈ mined blocks) of taken hashes the
  // pool remembers for duplicate rejection before forgetting the oldest.
  size_t recent_take_batches = 128;
};

class TxPool {
 public:
  TxPool() : TxPool(TxPoolConfig{}) {}
  explicit TxPool(TxPoolConfig config) : config_(config) {}

  // Maps a sender to its current account nonce — the base the pool packs
  // contiguous nonce runs from. Wire-up time only (not thread-safe against
  // concurrent Add/Take); Take calls it outside the pool's lock.
  using BaseNonceFn = std::function<uint64_t(const Address&)>;
  void set_base_nonce_provider(BaseNonceFn fn) { base_nonce_ = std::move(fn); }

  // Rejects duplicates of pending transactions and of recently taken ones.
  // Trusts its caller for `sender` and `hash`: they must be tx.Sender() and
  // tx.Hash(). Blockchain's admission computes each once, rejects a
  // transaction without a recoverable sender before Add, and is the only
  // caller.
  Status Add(const Transaction& tx, const Address& sender, const Hash32& hash);

  // Removes and returns up to `max_count` transactions ordered per-sender
  // by nonce under the gas budget, per the packing semantics above.
  // Single-consumer: concurrent Take calls are not supported (Adds may run
  // concurrently; transactions added while Take packs simply miss this
  // batch).
  std::vector<Transaction> Take(size_t max_count,
                                uint64_t gas_budget = UINT64_MAX);

  // Forgets what a block packed from another pool made unminable here: its
  // transactions, which enter the recently-taken window as if Take had
  // returned them, and every pending entry of its senders whose nonce is
  // now below the base nonce.
  void DropMined(const std::vector<Transaction>& mined);

  size_t size() const;
  bool empty() const { return size() == 0; }
  // True while the transaction is pending (not yet taken).
  bool Contains(const Hash32& tx_hash) const;
  // True while the transaction's hash is inside the recently-taken window.
  bool RecentlyTaken(const Hash32& tx_hash) const;

 private:
  // Moves `keys` from pending to the recently-taken window as one batch,
  // forgetting the oldest batches past the window. Requires mu_.
  void RememberTakenLocked(std::vector<std::string> keys);

  struct Entry {
    Transaction tx;
    std::string key;  // tx hash bytes, as handed to Add
    Address sender;
  };

  TxPoolConfig config_;
  BaseNonceFn base_nonce_;
  mutable std::mutex mu_;
  std::vector<Entry> queue_;  // arrival order
  std::unordered_set<std::string> pending_hashes_;
  std::unordered_set<std::string> recent_taken_;
  std::deque<std::vector<std::string>> recent_batches_;
};

}  // namespace onoff::chain

#endif  // ONOFFCHAIN_CHAIN_TX_POOL_H_
