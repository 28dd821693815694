// The incremental authenticated state store: the commitment engine behind
// WorldState (DESIGN.md §10).
//
// Reads never touch this layer — the flat hash maps inside WorldState stay
// the source of truth. The store only turns the flat state into Merkle
// commitments, incrementally: mutators mark accounts/slots dirty, and one
// CommitRoot() per block re-encodes exactly the dirty accounts, replays
// exactly the dirty slots into the per-account storage tries (whose roots
// are memoized), and re-hashes only the changed trie paths. Untouched
// accounts cost nothing, so block-commit time scales with the number of
// *touched* accounts, not with total state size.
//
// Committed tries are copy-on-write (storage/shared_trie.h): copying the
// store — and therefore WorldState::Clone() — shares every trie node, and
// Snapshot() captures a historical root whose proofs stay valid while the
// live state moves on. An optional NodeStore persists each block's new
// nodes and prunes states older than the dispute window.
//
// One caller at a time: CommitRoot (and everything that triggers it)
// mutates the dirty sets and memoized roots. A commit of at least
// kSplitCommitThreshold accounts under a branch (or empty) root fans out
// itself: the dirty accounts are grouped by the first nibble of their
// keccak key, and the 16 root subtries are written and hashed on
// ThreadPool::Shared() before the caller rebuilds and hashes the root
// branch. So CommitRoot must not run on a Shared() pool worker, and its
// AccountLookup must allow concurrent calls for distinct addresses.

#ifndef ONOFFCHAIN_STORAGE_STATE_STORE_H_
#define ONOFFCHAIN_STORAGE_STATE_STORE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crypto/keccak.h"
#include "storage/node_store.h"
#include "storage/shared_trie.h"
#include "support/address.h"
#include "support/bytes.h"
#include "support/status.h"
#include "support/u256.h"

namespace onoff::storage {

// What CommitRoot needs to know about one account; `storage` points at the
// flat slot map (not copied).
struct AccountData {
  uint64_t nonce = 0;
  U256 balance;
  Hash32 code_hash{};
  const std::unordered_map<U256, U256>* storage = nullptr;
};

// RLP([nonce, balance, storageRoot, codeHash]) — Ethereum's account record.
Bytes EncodeAccountRlp(const AccountData& account, const Hash32& storage_root);

// An immutable view of one committed state: the root plus the shared tries
// that produced it. Cheap to take (structural sharing) and independent of
// later mutation — proofs verify against `root` forever.
struct StateSnapshot {
  Hash32 root{};
  SecureSharedTrie account_trie;
  std::unordered_map<Address, SecureSharedTrie> storage_tries;

  std::vector<Bytes> ProveAccount(const Address& addr) const {
    return account_trie.Prove(addr.view());
  }
  std::vector<Bytes> ProveStorage(const Address& addr, const U256& key) const {
    auto it = storage_tries.find(addr);
    if (it == storage_tries.end()) return {};
    Bytes key_bytes = key.ToBytes();
    return it->second.Prove(key_bytes);
  }
};

// A set of keys kept as a vector: Add appends, dropping a repeat of the
// last key, and Sorted() sorts and dedups. Clearing it frees one block
// instead of one small chunk per key, which a node-based set left for the
// next allocations to sort through after a bulk commit. Repeats are dropped
// early once they outnumber the distinct keys, so the list stays within
// twice the set it holds (plus a constant).
template <typename T>
class DirtyList {
 public:
  void Add(const T& key) {
    if (!keys_.empty() && keys_.back() == key) return;
    keys_.push_back(key);
    if (keys_.size() > 2 * deduped_ + kSlack) Dedup();
  }
  const std::vector<T>& Sorted() {
    Dedup();
    return keys_;
  }
  bool empty() const { return keys_.empty(); }
  void Clear() {
    keys_.clear();
    deduped_ = 0;
  }

 private:
  static constexpr size_t kSlack = 1024;
  void Dedup() {
    if (keys_.size() == deduped_) return;  // nothing added since
    std::sort(keys_.begin(), keys_.end());
    keys_.erase(std::unique(keys_.begin(), keys_.end()), keys_.end());
    deduped_ = keys_.size();
  }

  std::vector<T> keys_;
  size_t deduped_ = 0;  // size after the last dedup
};

class StateStore {
 public:
  // Dirty accounts from which a commit splits over the root's 16 subtries
  // (when the root is a branch or empty). Measured over 50 000 accounts on
  // four hardware threads, with the pool's workers asleep before each
  // commit: the split ties the serial path at 8 accounts, loses below, and
  // takes 0.72x its time at 16 (EXPERIMENTS.md, "Split commit").
  static constexpr size_t kSplitCommitThreshold = 16;

  // Resolves an address to its current flat-state record, or nullopt when
  // the account does not exist. A split commit calls it from several
  // threads at once, once per dirty address.
  using AccountLookup =
      std::function<std::optional<AccountData>(const Address&)>;

  // Copies share all trie nodes (the dirty bookkeeping is duplicated so
  // both sides commit correctly afterwards).
  StateStore() = default;
  StateStore(const StateStore&) = default;
  StateStore& operator=(const StateStore&) = default;
  StateStore(StateStore&&) noexcept = default;
  StateStore& operator=(StateStore&&) noexcept = default;

  // ---- Dirty tracking (over-marking is safe, under-marking is a bug) ----
  // The account record (nonce/balance/code, or existence) changed.
  void MarkAccountDirty(const Address& addr);
  // One storage slot changed; implies the account record is dirty too (the
  // storage root is part of it).
  void MarkSlotDirty(const Address& addr, const U256& key);
  // The whole account was deleted or wholesale-replaced: its storage trie
  // must be rebuilt from the flat map instead of patched slot-by-slot.
  void MarkAccountReset(const Address& addr);

  // ---- Commitment ----
  // Incrementally folds all dirty accounts/slots into the tries and returns
  // the state root. With nothing dirty, returns the memoized root.
  Hash32 CommitRoot(const AccountLookup& lookup);

  // ---- Proofs & snapshots (valid for the last committed state) ----
  std::vector<Bytes> ProveAccount(const Address& addr) const {
    return account_trie_.Prove(addr.view());
  }
  std::vector<Bytes> ProveStorage(const Address& addr, const U256& key) const;
  StateSnapshot Snapshot() const;

  // ---- Persistence ----
  // Writes every node new since the last persist to `sink` (a NodeStore)
  // and retains the current root at `height`. Call after CommitRoot.
  Status Persist(PersistSink& sink, uint64_t height);

  // The storage root an account record (EncodeAccountRlp) carries, read in
  // place: the cross-trie reference the node-store refcounts follow. False
  // for the empty root (no node to reference) or a value that does not end
  // as an account record does.
  static bool AccountStorageRef(BytesView account_rlp, Hash32* root);

 private:
  struct PerAccount {
    SecureSharedTrie storage_trie;
    Hash32 storage_root{};  // memoized; valid when root_valid
    bool root_valid = false;
    DirtyList<U256> dirty_slots;
    bool reset = false;
  };

  // Folds the account's dirty slots into its storage trie and returns its
  // account-trie leaf.
  static Bytes CommitStorage(PerAccount& pa, const AccountData& data);
  void CommitAccount(const Address& addr, const AccountLookup& lookup);
  // CommitRoot's fan-out over the account trie's 16 root subtries; false,
  // having done nothing, when the root is a leaf or an extension.
  bool CommitSplit(const std::vector<Address>& dirty,
                   const AccountLookup& lookup);

  SecureSharedTrie account_trie_;
  std::unordered_map<Address, PerAccount> per_account_;
  // The order of these lists reaches neither a root nor the node store's
  // contents, only the order of its log records.
  DirtyList<Address> dirty_accounts_;
  Hash32 committed_root_{};
  bool root_valid_ = false;
  // Accounts whose storage tries gained nodes since the last Persist.
  DirtyList<Address> pending_persist_;
};

}  // namespace onoff::storage

#endif  // ONOFFCHAIN_STORAGE_STATE_STORE_H_
