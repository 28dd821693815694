// The world state: accounts (EOAs and contract accounts), balances, nonces,
// code and storage, with journaled snapshot/revert — the mutable substrate
// the EVM executes against.

#ifndef ONOFFCHAIN_STATE_WORLD_STATE_H_
#define ONOFFCHAIN_STATE_WORLD_STATE_H_

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <variant>
#include <vector>

#include "crypto/keccak.h"
#include "state/state_view.h"
#include "storage/node_store.h"
#include "storage/state_store.h"
#include "support/address.h"
#include "support/bytes.h"
#include "support/status.h"
#include "support/u256.h"

namespace onoff::state {

// One account record. An EOA has empty code; a contract account (CA) carries
// code and storage.
struct Account {
  uint64_t nonce = 0;
  U256 balance;
  Bytes code;
  std::unordered_map<U256, U256> storage;
  // Lazily computed keccak of `code` (GetCodeHash keys the interpreter's
  // code-analysis cache on it, once per frame, and the state store's
  // account record reads it at commit). Cleared whenever `code` changes,
  // including journal reverts; safe to copy alongside the code.
  mutable std::optional<Hash32> code_hash_cache;

  bool IsContract() const { return !code.empty(); }
  // Empty per EIP-161: no code, zero nonce, zero balance.
  bool IsEmpty() const {
    return nonce == 0 && balance.IsZero() && code.empty();
  }
};

// An account's pre-image at its first write since the touched window
// opened (WorldState::ClearTouched): what the per-block audit
// (chain/chain_audit.cc) compares the post-block account against.
struct TouchedAccount {
  bool existed = false;
  U256 balance;  // zero when the account did not exist
  // Net SELFDESTRUCT deletions since then; reverting one takes it back.
  uint32_t deletions = 0;

  // The account present now, if any, is not the one that was there when
  // the window opened.
  bool NewIncarnation() const { return !existed || deletions > 0; }
};

// The account map behind WorldState. Find() reads; every write goes through
// Touch(), Erase() or Restore(), which record the account's pre-image in the
// touched set before changing it. No other code can reach a mutable
// Account, so no balance, nonce or existence change can skip the record.
class AccountMap {
 public:
  using Touched = std::unordered_map<Address, TouchedAccount>;

  const Account* Find(const Address& addr) const {
    auto it = accounts_.find(addr);
    return it == accounts_.end() ? nullptr : &it->second;
  }
  // The account for writing, created if absent (`*created` says whether).
  Account& Touch(const Address& addr, bool* created = nullptr);
  // Removes the account; nullopt when absent. `deletion` is a SELFDESTRUCT;
  // false undoes a creation.
  std::optional<Account> Erase(const Address& addr, bool deletion);
  // Puts back the account a reverted SELFDESTRUCT removed.
  void Restore(const Address& addr, Account acc);

  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& [addr, acc] : accounts_) fn(addr, acc);
  }
  size_t size() const { return accounts_.size(); }
  // The accounts alone, with an empty touched set.
  AccountMap CopyAccounts() const;

  const Touched& touched() const { return touched_; }
  void ClearTouched();
  uint64_t touched_epoch() const { return touched_epoch_; }

 private:
  friend class WorldStateTestPeer;  // tests: writes that skip the record

  // The account's touched entry; a new one takes `acc` (nullptr: absent)
  // as the pre-image.
  TouchedAccount& Record(const Address& addr, const Account* acc);

  std::unordered_map<Address, Account> accounts_;
  Touched touched_;
  uint64_t touched_epoch_ = 0;
};

class WorldState final : public StateView {
 public:
  using Snapshot = StateView::Snapshot;

  WorldState() = default;
  // Deliberately move-only: accidental copies of a whole chain state are
  // almost always bugs. Deliberate copies (pre-block snapshots for the
  // parallel-vs-serial equivalence check) go through Clone().
  WorldState(const WorldState&) = delete;
  WorldState& operator=(const WorldState&) = delete;
  WorldState(WorldState&&) = default;
  WorldState& operator=(WorldState&&) = default;

  // An explicit deep copy of the accounts (the journal and the touched set
  // do not carry over).
  WorldState Clone() const;

  // ---- Account lifecycle ----
  // The live account at `addr`, or nullptr.
  const Account* Find(const Address& addr) const {
    return accounts_.Find(addr);
  }
  bool Exists(const Address& addr) const override;
  // Creates the account if absent; returns it either way.
  void CreateAccount(const Address& addr) override;
  // Removes the account entirely (SELFDESTRUCT).
  void DeleteAccount(const Address& addr) override;

  // ---- Balances ----
  U256 GetBalance(const Address& addr) const override;
  void AddBalance(const Address& addr, const U256& amount) override;
  // Fails if the balance is insufficient.
  Status SubBalance(const Address& addr, const U256& amount) override;
  // Absolute write (journaled) — used when committing speculative overlays.
  void SetBalance(const Address& addr, const U256& amount);

  // ---- Nonces ----
  uint64_t GetNonce(const Address& addr) const override;
  void SetNonce(const Address& addr, uint64_t nonce) override;

  // ---- Code ----
  const Bytes& GetCode(const Address& addr) const override;
  void SetCode(const Address& addr, Bytes code) override;
  // Memoized per account (see Account::code_hash_cache).
  Hash32 GetCodeHash(const Address& addr) const override;

  // ---- Storage ----
  U256 GetStorage(const Address& addr, const U256& key) const override;
  void SetStorage(const Address& addr, const U256& key,
                  const U256& value) override;

  // ---- Journaling ----
  // Captures a revert point. Snapshots nest: reverting to an earlier snapshot
  // undoes everything after it.
  Snapshot TakeSnapshot() const override { return journal_.size(); }
  void RevertToSnapshot(Snapshot snap) override;
  // Drops journal entries (e.g. at the end of a transaction); snapshots taken
  // before this call become invalid.
  void ClearJournal() override { journal_.clear(); }

  // ---- Commitment ----
  // keccak state root over the secure Merkle Patricia trie of RLP-encoded
  // accounts ([nonce, balance, storageRoot, codeHash]), exactly as Ethereum.
  // Computed incrementally by the authenticated state store (storage/):
  // only accounts and slots touched since the last call are re-hashed, so
  // per-block cost scales with the write set, not with total state size.
  //
  // NOT concurrently callable on a shared instance: although const, this
  // (like ProveAccount/ProveStorage/TakeStateSnapshot/PersistCommitted)
  // fills the store's commit cache, so concurrent calls data-race. Parallel
  // workers must operate on their own Clone()/overlay, as the parallel
  // executor does. A large commit fans out on ThreadPool::Shared() itself
  // (storage/state_store.h), so do not call this from a Shared() worker.
  Hash32 StateRoot() const;

  // From-scratch rebuild of the same root into fresh tries, bypassing the
  // store's commit path — the differential oracle the incremental engine is
  // checked against. O(total accounts); use only in tests and benches.
  Hash32 RebuildStateRoot() const;

  // A copy-on-write snapshot of the committed state (commits pending
  // changes first): proofs taken from it stay valid against its root even
  // as this state keeps mutating.
  storage::StateSnapshot TakeStateSnapshot() const;

  // Persists all trie nodes new since the last persist into `store` and
  // retains the current root at `height` (commits first). Pruning old
  // heights is the caller's policy (see ChainConfig::state_history_blocks).
  Status PersistCommitted(storage::NodeStore& store, uint64_t height) const;

  // ---- Light-client proofs ----
  // The decoded on-trie account record.
  struct AccountInfo {
    uint64_t nonce = 0;
    U256 balance;
    Hash32 storage_root{};
    Hash32 code_hash{};
  };

  // A Merkle proof of one account and (optionally) one storage slot against
  // the state root. A client holding only a trusted block header can check
  // it without any other state.
  struct Proof {
    std::vector<Bytes> account_proof;  // secure state trie nodes
    std::vector<Bytes> storage_proof;  // secure storage trie nodes (optional)
  };

  // Builds an account (+ storage slot) proof against the CURRENT state.
  Proof ProveAccount(const Address& addr) const;
  Proof ProveStorage(const Address& addr, const U256& key) const;

  // Verifies an account proof. Returns the account record, or nullopt when
  // the proof demonstrates the account does not exist.
  static Result<std::optional<AccountInfo>> VerifyAccountProof(
      const Hash32& state_root, const Address& addr,
      const std::vector<Bytes>& account_proof);
  // Verifies a storage-slot proof against an account's storage root.
  // Returns the slot value (zero when proven absent).
  static Result<U256> VerifyStorageProof(const Hash32& storage_root,
                                         const U256& key,
                                         const std::vector<Bytes>& proof);

  // All addresses with a live account, sorted (for inspection/tests).
  std::vector<Address> Addresses() const;

  // Calls fn(address, account) for every live account, in unspecified
  // order: one pass over the account map, with no copy and no sort (the
  // audit's full sweeps).
  template <typename Fn>
  void ForEachAccount(Fn&& fn) const {
    accounts_.ForEach(std::forward<Fn>(fn));
  }

  // ---- Touched accounts (the per-block audit's input) ----
  // Every account written since the touched window opened, with its
  // pre-image. Reverts count as writes, so this is a superset of the
  // accounts whose record differs from the pre-image.
  const AccountMap::Touched& touched_accounts() const {
    return accounts_.touched();
  }
  // Opens a new window (Blockchain::MineBlock, after each block's audit).
  void ClearTouched() { accounts_.ClearTouched(); }
  // How many windows have opened: an auditor that saw epoch e at its last
  // block knows the set holds exactly the writes since then iff it now
  // reads e + 1.
  uint64_t touched_epoch() const { return accounts_.touched_epoch(); }

 private:
  friend class WorldStateTestPeer;
  struct BalanceChange {
    Address addr;
    U256 prev;
  };
  struct NonceChange {
    Address addr;
    uint64_t prev;
  };
  struct CodeChange {
    Address addr;
    Bytes prev;
  };
  struct StorageChange {
    Address addr;
    U256 key;
    U256 prev;
  };
  struct AccountCreated {
    Address addr;
  };
  struct AccountDeleted {
    Address addr;
    Account prev;
  };
  using JournalEntry =
      std::variant<BalanceChange, NonceChange, CodeChange, StorageChange,
                   AccountCreated, AccountDeleted>;

  Account& GetOrCreate(const Address& addr);
  // Fills and returns the account's code-hash memo.
  static const Hash32& CodeHashOf(const Account& acc);
  storage::StateStore::AccountLookup StoreLookup() const;

  AccountMap accounts_;
  mutable std::vector<JournalEntry> journal_;
  // The commitment engine. Reads never consult it; every mutation (and
  // every journal revert) marks the touched account/slot dirty, and
  // StateRoot() folds the dirty set in. Mutable: committing is a cache
  // fill, not a logical state change — which also means the const
  // commitment/proof methods above are NOT thread-safe on a shared
  // instance (see StateRoot()).
  mutable storage::StateStore store_;
};

}  // namespace onoff::state

#endif  // ONOFFCHAIN_STATE_WORLD_STATE_H_
