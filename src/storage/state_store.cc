#include "storage/state_store.h"

#include <algorithm>
#include <array>

#include "obs/metrics.h"
#include "rlp/rlp.h"
#include "support/thread_pool.h"

namespace onoff::storage {

Bytes EncodeAccountRlp(const AccountData& account, const Hash32& storage_root) {
  Bytes out;
  out.reserve(2 + 9 + 33 + 2 * 33);  // the longest record
  rlp::Writer w(&out);
  const size_t list = w.BeginList();
  w.Scalar(account.nonce);
  w.Scalar(account.balance);
  w.String(storage_root);
  w.String(account.code_hash);
  w.EndList(list);
  return out;
}

namespace {

// One slot write of a storage commit: keccak(slot key) and RLP(value),
// empty to delete.
struct SlotWrite {
  Hash32 key;
  Bytes value;
};

// Folds `slots` into `trie` in key order.
void FoldSlots(std::vector<SlotWrite>& slots, SecureSharedTrie& trie) {
  std::sort(slots.begin(), slots.end(),
            [](const SlotWrite& a, const SlotWrite& b) {
              return a.key < b.key;
            });
  std::vector<TrieWrite> writes;
  writes.reserve(slots.size());
  for (const SlotWrite& slot : slots) writes.push_back({slot.key, slot.value});
  trie.PutSorted(writes);
}

SlotWrite MakeSlotWrite(const U256& key, const U256* value) {
  const std::array<uint8_t, 32> key_bytes = key.ToBigEndian();
  SlotWrite out{Keccak256(key_bytes), {}};
  if (value != nullptr) rlp::Writer(&out.value).Scalar(*value);
  return out;
}

}  // namespace

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
  std::vector<SlotWrite> slots;
  if (pa.reset) {
    // Deleted-and-recreated (or restored) account: rebuild its storage trie
    // from the flat map.
    pa.storage_trie = SecureSharedTrie();
    if (data.storage != nullptr) {
      for (const auto& [key, value] : *data.storage) {
        if (!value.IsZero()) slots.push_back(MakeSlotWrite(key, &value));
      }
    }
    pa.reset = false;
    pa.root_valid = false;
  } else if (!pa.dirty_slots.empty()) {
    for (const U256& key : pa.dirty_slots.Sorted()) {
      const U256* value = nullptr;
      if (data.storage != nullptr) {
        auto it = data.storage->find(key);
        if (it != data.storage->end() && !it->second.IsZero()) {
          value = &it->second;
        }
      }
      slots.push_back(MakeSlotWrite(key, value));
    }
    pa.root_valid = false;
  }
  if (!slots.empty()) {
    FoldSlots(slots, pa.storage_trie);
    if (slots_committed != nullptr) slots_committed->Inc(slots.size());
  }
  pa.dirty_slots.Clear();
  if (!pa.root_valid) {
    pa.storage_root = pa.storage_trie.RootHash();
    pa.root_valid = true;
  }
  return EncodeAccountRlp(data, pa.storage_root);
}

std::vector<TrieWrite> StateStore::CommitGroup(std::span<DirtyAccount> group,
                                               const AccountLookup& lookup) {
  std::vector<TrieWrite> writes;
  writes.reserve(group.size());
  for (DirtyAccount& d : group) {
    std::optional<AccountData> data = lookup(*d.addr);
    d.deleted = !data.has_value();
    if (!d.deleted) d.leaf = CommitStorage(*d.pa, *data);
    writes.push_back({d.key, d.leaf});  // an empty leaf deletes
  }
  return writes;
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
  // Every entry exists before a fan-out (the map's element addresses are
  // stable), so no lane inserts into per_account_.
  std::vector<DirtyAccount> accounts;
  accounts.reserve(dirty.size());
  for (const Address& addr : dirty) {
    accounts.push_back(
        {&addr, &per_account_[addr], Keccak256(addr.view()), {}, false});
  }
  // In key order, the order the fold takes; the address order the dirty
  // list had reaches no root.
  std::sort(accounts.begin(), accounts.end(),
            [](const DirtyAccount& a, const DirtyAccount& b) {
              return a.key < b.key;
            });
  std::array<SharedTrie, 16> children;
  if (dirty.size() >= kSplitCommitThreshold &&
      account_trie_.SplitRoot(&children)) {
    // The first nibble of the account key picks the subtrie; each lane
    // folds and hashes one.
    std::array<std::span<DirtyAccount>, 16> groups;
    for (size_t i = 0; i < accounts.size();) {
      const size_t nibble = accounts[i].key[0] >> 4;
      size_t j = i + 1;
      while (j < accounts.size() && accounts[j].key[0] >> 4 == nibble) ++j;
      groups[nibble] = std::span<DirtyAccount>(accounts).subspan(i, j - i);
      i = j;
    }
    ThreadPool::Shared().ParallelFor(16, [&](size_t i) {
      if (groups[i].empty()) return;
      children[i].PutSorted(CommitGroup(groups[i], lookup), /*skip=*/1);
      children[i].RootHash();  // hash the subtrie on this lane
    });
    account_trie_.JoinRoot(children);
  } else {
    account_trie_.PutSorted(CommitGroup(accounts, lookup));
  }
  for (const DirtyAccount& d : accounts) {
    if (d.deleted) per_account_.erase(*d.addr);
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
  // Storage tries first so the account leaves' refs resolve in order. A
  // sink this store last persisted into, with the same marks id, holds
  // every storage trie but those committed since; any other sink (another
  // store, one reset or renewed by a failed write, or one that takes no
  // marks) gets every storage trie walked, and Find skips what it holds.
  const uint32_t marks = sink.marks();
  if (marks != 0 && marks == persisted_marks_) {
    for (const Address& addr : pending_persist_.Sorted()) {
      auto it = per_account_.find(addr);
      if (it == per_account_.end()) continue;  // deleted since commit
      ONOFF_RETURN_NOT_OK(it->second.storage_trie.PersistNodes(sink, height));
    }
  } else {
    // In address order, as the pending list walks: the order reaches only
    // the order of the sink's log records.
    std::vector<const Address*> all;
    all.reserve(per_account_.size());
    for (const auto& entry : per_account_) all.push_back(&entry.first);
    std::sort(all.begin(), all.end(),
              [](const Address* a, const Address* b) { return *a < *b; });
    for (const Address* addr : all) {
      ONOFF_RETURN_NOT_OK(
          per_account_.at(*addr).storage_trie.PersistNodes(sink, height));
    }
  }
  // The root retained below reaches every node both walks stamp at
  // `height`: the account leaves reference the storage roots.
  ONOFF_RETURN_NOT_OK(
      account_trie_.PersistNodes(sink, height, AccountStorageRef));
  if (committed_root_ != SharedTrie::EmptyRoot()) {
    ONOFF_RETURN_NOT_OK(sink.RetainRoot(committed_root_, height));
  }
  pending_persist_.Clear();
  persisted_marks_ = sink.marks();
  return Status::OK();
}

}  // namespace onoff::storage
