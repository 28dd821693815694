#include "storage/state_store.h"

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
  dirty_accounts_.insert(addr);
  root_valid_ = false;
}

void StateStore::MarkSlotDirty(const Address& addr, const U256& key) {
  dirty_accounts_.insert(addr);
  root_valid_ = false;
  PerAccount& pa = per_account_[addr];
  pa.root_valid = false;
  // Under a pending reset the whole trie is rebuilt anyway.
  if (!pa.reset) pa.dirty_slots.insert(key);
}

void StateStore::MarkAccountReset(const Address& addr) {
  dirty_accounts_.insert(addr);
  root_valid_ = false;
  PerAccount& pa = per_account_[addr];
  pa.reset = true;
  pa.root_valid = false;
  pa.dirty_slots.clear();
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
    for (const U256& key : pa.dirty_slots) {
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
  pa.dirty_slots.clear();
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

bool StateStore::CommitSplit(const AccountLookup& lookup) {
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
  for (const Address& addr : dirty_accounts_) {
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
  if (accounts_committed != nullptr) {
    accounts_committed->Inc(dirty_accounts_.size());
  }

  // Iteration order does not matter: the trie is canonical in its content.
  if (dirty_accounts_.size() < kSplitCommitThreshold || !CommitSplit(lookup)) {
    for (const Address& addr : dirty_accounts_) CommitAccount(addr, lookup);
  }
  pending_persist_.insert(dirty_accounts_.begin(), dirty_accounts_.end());
  dirty_accounts_.clear();
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

namespace {

// The storage root referenced inside an account leaf — the cross-trie edge
// the node-store refcounts follow.
std::vector<Hash32> AccountLeafRefs(BytesView leaf_value) {
  Result<rlp::Item> item = rlp::Decode(leaf_value);
  if (!item.ok() || !item->IsList() || item->list().size() != 4 ||
      !item->list()[2].IsString()) {
    return {};
  }
  const Bytes& sr = item->list()[2].string();
  if (sr.size() != 32) return {};
  Hash32 root;
  std::copy(sr.begin(), sr.end(), root.begin());
  if (root == SharedTrie::EmptyRoot()) return {};  // no node to reference
  return {root};
}

}  // namespace

Status StateStore::Persist(NodeStore& store, uint64_t height) {
  if (!root_valid_) {
    return Status::FailedPrecondition("CommitRoot before Persist");
  }
  Status status = Status::OK();
  auto known = [&store](const Hash32& h) { return store.Contains(h); };
  auto emit = [&store, &status](const Hash32& h, const Bytes& enc,
                                const std::vector<Hash32>& refs) {
    if (status.ok()) status = store.Put(h, enc, refs);
  };
  // Storage tries first so the account leaves' refs resolve in order.
  for (const Address& addr : pending_persist_) {
    auto it = per_account_.find(addr);
    if (it == per_account_.end()) continue;  // deleted since commit
    it->second.storage_trie.PersistNodes(known, emit);
    ONOFF_RETURN_NOT_OK(status);
  }
  account_trie_.PersistNodes(known, emit, AccountLeafRefs);
  ONOFF_RETURN_NOT_OK(status);
  if (committed_root_ != SharedTrie::EmptyRoot()) {
    ONOFF_RETURN_NOT_OK(store.RetainRoot(committed_root_, height));
  }
  pending_persist_.clear();
  return Status::OK();
}

}  // namespace onoff::storage
