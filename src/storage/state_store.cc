#include "storage/state_store.h"

#include <algorithm>
#include <array>

#include "obs/metrics.h"
#include "rlp/rlp.h"
#include "support/thread_pool.h"

namespace onoff::storage {

Bytes EncodeAccountRlp(const AccountData& account, const Hash32& storage_root) {
  std::vector<rlp::Item> fields;
  fields.push_back(rlp::Item::Scalar(account.nonce));
  fields.push_back(rlp::Item::Scalar(account.balance));
  fields.push_back(rlp::Item::String(
      BytesView(storage_root.data(), storage_root.size())));
  fields.push_back(rlp::Item::String(
      BytesView(account.code_hash.data(), account.code_hash.size())));
  return rlp::Encode(rlp::Item::List(std::move(fields)));
}

void StateStore::MarkAccountDirty(const Address& addr) {
  dirty_accounts_.Add(addr);
  root_valid_ = false;
}

void StateStore::MarkSlotDirty(const Address& addr, const U256& key) {
  dirty_accounts_.Add(addr);
  root_valid_ = false;
  PerAccount& pa = per_account_[addr];
  pa.root_valid = false;
  // Under a pending reset the whole trie is rebuilt anyway.
  if (!pa.reset) pa.dirty_slots.Add(key);
}

void StateStore::MarkAccountReset(const Address& addr) {
  dirty_accounts_.Add(addr);
  root_valid_ = false;
  PerAccount& pa = per_account_[addr];
  pa.reset = true;
  pa.root_valid = false;
  pa.dirty_slots.Clear();
}

Bytes StateStore::CommitStorage(PerAccount& pa, const AccountData& data) {
  static obs::Counter* slots_committed =
      obs::GetCounterOrNull("storage.slots_committed");
  if (pa.reset) {
    // Deleted-and-recreated (or restored) account: rebuild its storage trie
    // from the flat map.
    pa.storage_trie = SecureSharedTrie();
    if (data.storage != nullptr) {
      for (const auto& [key, value] : *data.storage) {
        if (value.IsZero()) continue;
        Bytes key_bytes = key.ToBytes();
        pa.storage_trie.Put(key_bytes,
                            rlp::Encode(rlp::Item::Scalar(value)));
        if (slots_committed != nullptr) slots_committed->Inc();
      }
    }
    pa.reset = false;
    pa.root_valid = false;
  } else if (!pa.dirty_slots.empty()) {
    for (const U256& key : pa.dirty_slots.Sorted()) {
      Bytes key_bytes = key.ToBytes();
      const U256* value = nullptr;
      if (data.storage != nullptr) {
        auto it = data.storage->find(key);
        if (it != data.storage->end() && !it->second.IsZero()) {
          value = &it->second;
        }
      }
      if (value != nullptr) {
        pa.storage_trie.Put(key_bytes,
                            rlp::Encode(rlp::Item::Scalar(*value)));
      } else {
        pa.storage_trie.Delete(key_bytes);
      }
      if (slots_committed != nullptr) slots_committed->Inc();
    }
    pa.root_valid = false;
  }
  pa.dirty_slots.Clear();
  if (!pa.root_valid) {
    pa.storage_root = pa.storage_trie.RootHash();
    pa.root_valid = true;
  }
  return EncodeAccountRlp(data, pa.storage_root);
}

void StateStore::CommitAccount(const Address& addr,
                               const AccountLookup& lookup) {
  std::optional<AccountData> data = lookup(addr);
  if (!data.has_value()) {
    account_trie_.Delete(addr.view());
    per_account_.erase(addr);
    return;
  }
  account_trie_.Put(addr.view(), CommitStorage(per_account_[addr], *data));
}

bool StateStore::CommitSplit(const std::vector<Address>& dirty,
                             const AccountLookup& lookup) {
  std::array<SharedTrie, 16> children;
  if (!account_trie_.SplitRoot(&children)) return false;
  struct Dirty {
    const Address* addr;
    PerAccount* pa;
    Hash32 key;  // keccak(addr), the account-trie key
    bool deleted = false;
  };
  // Every entry exists before the fan-out (the map's element addresses are
  // stable), so no task inserts into per_account_.
  std::array<std::vector<Dirty>, 16> groups;
  for (const Address& addr : dirty) {
    Hash32 key = Keccak256(addr.view());
    groups[key[0] >> 4].push_back({&addr, &per_account_[addr], key});
  }
  ThreadPool::Shared().ParallelFor(16, [&](size_t i) {
    if (groups[i].empty()) return;
    SharedTrie& child = children[i];
    for (Dirty& d : groups[i]) {
      std::optional<AccountData> data = lookup(*d.addr);
      d.deleted = !data.has_value();
      // The key's nibbles after the first, which chose this subtrie.
      std::vector<uint8_t> path = BytesToNibbles(d.key);
      path.erase(path.begin());
      child.PutNibbles(path,
                       d.deleted ? Bytes{} : CommitStorage(*d.pa, *data));
    }
    child.RootHash();  // hash the subtrie on this lane
  });
  for (const std::vector<Dirty>& group : groups) {
    for (const Dirty& d : group) {
      if (d.deleted) per_account_.erase(*d.addr);
    }
  }
  account_trie_.JoinRoot(children);
  return true;
}

Hash32 StateStore::CommitRoot(const AccountLookup& lookup) {
  if (root_valid_) return committed_root_;  // nothing dirty: memoized

  static obs::Histogram* commit_us = obs::GetHistogramOrNull(
      "storage.commit_us", obs::DefaultTimeBucketsUs());
  obs::ScopedTimer span(commit_us);
  static obs::Counter* accounts_committed =
      obs::GetCounterOrNull("storage.accounts_committed");
  const std::vector<Address>& dirty = dirty_accounts_.Sorted();
  if (accounts_committed != nullptr) accounts_committed->Inc(dirty.size());
  // The order does not reach the root: the trie is canonical in its
  // content.
  if (dirty.size() < kSplitCommitThreshold || !CommitSplit(dirty, lookup)) {
    for (const Address& addr : dirty) CommitAccount(addr, lookup);
  }
  for (const Address& addr : dirty) pending_persist_.Add(addr);
  dirty_accounts_.Clear();
  committed_root_ = account_trie_.RootHash();
  root_valid_ = true;
  return committed_root_;
}

std::vector<Bytes> StateStore::ProveStorage(const Address& addr,
                                            const U256& key) const {
  auto it = per_account_.find(addr);
  if (it == per_account_.end()) return {};
  Bytes key_bytes = key.ToBytes();
  return it->second.storage_trie.Prove(key_bytes);
}

StateSnapshot StateStore::Snapshot() const {
  static obs::Counter* snapshots =
      obs::GetCounterOrNull("storage.snapshots_taken");
  if (snapshots != nullptr) snapshots->Inc();
  StateSnapshot snap;
  snap.root = committed_root_;
  snap.account_trie = account_trie_;  // O(1): shares all nodes
  snap.storage_tries.reserve(per_account_.size());
  for (const auto& [addr, pa] : per_account_) {
    snap.storage_tries.emplace(addr, pa.storage_trie);
  }
  return snap;
}

bool StateStore::AccountStorageRef(BytesView account_rlp, Hash32* root) {
  // EncodeAccountRlp ends in two 32-byte strings, the storage root and the
  // code hash, each encoded as 0xa0 and its bytes.
  constexpr size_t kTail = 2 * 33;
  const size_t n = account_rlp.size();
  if (n < kTail || account_rlp[n - kTail] != 0xa0 ||
      account_rlp[n - kTail / 2] != 0xa0) {
    return false;
  }
  std::copy_n(account_rlp.begin() + (n - kTail + 1), 32, root->begin());
  return *root != SharedTrie::EmptyRoot();  // no node to reference
}

Status StateStore::Persist(PersistSink& sink, uint64_t height) {
  if (!root_valid_) {
    return Status::FailedPrecondition("CommitRoot before Persist");
  }
  // Storage tries first so the account leaves' refs resolve in order.
  for (const Address& addr : pending_persist_.Sorted()) {
    auto it = per_account_.find(addr);
    if (it == per_account_.end()) continue;  // deleted since commit
    ONOFF_RETURN_NOT_OK(it->second.storage_trie.PersistNodes(sink, height));
  }
  // The root retained below reaches every node both walks stamp at
  // `height`: the account leaves reference the storage roots.
  ONOFF_RETURN_NOT_OK(
      account_trie_.PersistNodes(sink, height, AccountStorageRef));
  if (committed_root_ != SharedTrie::EmptyRoot()) {
    ONOFF_RETURN_NOT_OK(sink.RetainRoot(committed_root_, height));
  }
  pending_persist_.Clear();
  return Status::OK();
}

}  // namespace onoff::storage
