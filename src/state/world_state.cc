#include "state/world_state.h"

#include <algorithm>

#include "rlp/rlp.h"
#include "storage/shared_trie.h"

namespace onoff::state {

Account& AccountMap::Touch(const Address& addr, bool* created) {
  auto it = accounts_.find(addr);
  const bool absent = it == accounts_.end();
  Record(addr, absent ? nullptr : &it->second);
  if (created != nullptr) *created = absent;
  return absent ? accounts_[addr] : it->second;
}

std::optional<Account> AccountMap::Erase(const Address& addr, bool deletion) {
  auto it = accounts_.find(addr);
  if (it == accounts_.end()) return std::nullopt;
  TouchedAccount& touched = Record(addr, &it->second);
  if (deletion) ++touched.deletions;
  std::optional<Account> removed(std::move(it->second));
  accounts_.erase(it);
  return removed;
}

void AccountMap::Restore(const Address& addr, Account acc) {
  auto it = accounts_.find(addr);
  TouchedAccount& touched =
      Record(addr, it == accounts_.end() ? nullptr : &it->second);
  // The window may have opened after the deletion this undoes.
  if (touched.deletions > 0) --touched.deletions;
  accounts_[addr] = std::move(acc);
}

TouchedAccount& AccountMap::Record(const Address& addr, const Account* acc) {
  auto [it, first] = touched_.try_emplace(addr);
  if (first && acc != nullptr) {
    it->second.existed = true;
    it->second.balance = acc->balance;
  }
  return it->second;
}

AccountMap AccountMap::CopyAccounts() const {
  AccountMap copy;
  copy.accounts_ = accounts_;
  return copy;
}

void AccountMap::ClearTouched() {
  // clear() keeps the bucket array, and the genesis window can leave one
  // sized for every account, which each later clear() would zero again.
  if (touched_.bucket_count() > 4096) {
    touched_ = Touched();
  } else {
    touched_.clear();
  }
  ++touched_epoch_;
}

WorldState WorldState::Clone() const {
  WorldState copy;
  copy.accounts_ = accounts_.CopyAccounts();
  // The store copy shares every committed trie node with this state
  // (copy-on-write), so cloning costs O(accounts) map copies, not a trie
  // rebuild — and the clone's first StateRoot() only re-hashes whatever was
  // dirty at clone time.
  copy.store_ = store_;
  return copy;
}

Account& WorldState::GetOrCreate(const Address& addr) {
  bool created = false;
  Account& acc = accounts_.Touch(addr, &created);
  if (created) {
    journal_.push_back(AccountCreated{addr});
    store_.MarkAccountDirty(addr);
  }
  return acc;
}

bool WorldState::Exists(const Address& addr) const {
  return Find(addr) != nullptr;
}

void WorldState::CreateAccount(const Address& addr) { GetOrCreate(addr); }

void WorldState::DeleteAccount(const Address& addr) {
  std::optional<Account> removed = accounts_.Erase(addr, /*deletion=*/true);
  if (!removed.has_value()) return;
  journal_.push_back(AccountDeleted{addr, std::move(*removed)});
  // Wholesale removal: the committed storage trie can no longer be patched
  // slot-by-slot (a recreated account starts empty).
  store_.MarkAccountReset(addr);
}

U256 WorldState::GetBalance(const Address& addr) const {
  const Account* acc = Find(addr);
  return acc == nullptr ? U256() : acc->balance;
}

void WorldState::AddBalance(const Address& addr, const U256& amount) {
  Account& acc = GetOrCreate(addr);
  journal_.push_back(BalanceChange{addr, acc.balance});
  acc.balance += amount;
  store_.MarkAccountDirty(addr);
}

Status WorldState::SubBalance(const Address& addr, const U256& amount) {
  Account& acc = GetOrCreate(addr);
  if (acc.balance < amount) {
    return Status::FailedPrecondition("insufficient balance");
  }
  journal_.push_back(BalanceChange{addr, acc.balance});
  acc.balance -= amount;
  store_.MarkAccountDirty(addr);
  return Status::OK();
}

void WorldState::SetBalance(const Address& addr, const U256& amount) {
  Account& acc = GetOrCreate(addr);
  journal_.push_back(BalanceChange{addr, acc.balance});
  acc.balance = amount;
  store_.MarkAccountDirty(addr);
}

uint64_t WorldState::GetNonce(const Address& addr) const {
  const Account* acc = Find(addr);
  return acc == nullptr ? 0 : acc->nonce;
}

void WorldState::SetNonce(const Address& addr, uint64_t nonce) {
  Account& acc = GetOrCreate(addr);
  journal_.push_back(NonceChange{addr, acc.nonce});
  acc.nonce = nonce;
  store_.MarkAccountDirty(addr);
}

const Bytes& WorldState::GetCode(const Address& addr) const {
  // Function-local singleton: the returned reference must outlive any
  // caller regardless of translation-unit initialisation order, and must
  // never bind to a temporary for absent accounts.
  static const Bytes kEmptyCode;
  const Account* acc = Find(addr);
  return acc == nullptr ? kEmptyCode : acc->code;
}

void WorldState::SetCode(const Address& addr, Bytes code) {
  Account& acc = GetOrCreate(addr);
  journal_.push_back(CodeChange{addr, std::move(acc.code)});
  acc.code = std::move(code);
  acc.code_hash_cache.reset();
  store_.MarkAccountDirty(addr);
}

const Hash32& WorldState::CodeHashOf(const Account& acc) {
  if (!acc.code_hash_cache.has_value()) {
    acc.code_hash_cache = Keccak256(acc.code);
  }
  return *acc.code_hash_cache;
}

Hash32 WorldState::GetCodeHash(const Address& addr) const {
  const Account* acc = Find(addr);
  if (acc == nullptr) {
    static const Hash32 kEmptyHash = Keccak256(Bytes{});
    return kEmptyHash;
  }
  return CodeHashOf(*acc);
}

U256 WorldState::GetStorage(const Address& addr, const U256& key) const {
  const Account* acc = Find(addr);
  if (acc == nullptr) return U256();
  auto it = acc->storage.find(key);
  return it == acc->storage.end() ? U256() : it->second;
}

void WorldState::SetStorage(const Address& addr, const U256& key,
                            const U256& value) {
  Account& acc = GetOrCreate(addr);
  U256 prev;
  auto it = acc.storage.find(key);
  if (it != acc.storage.end()) prev = it->second;
  journal_.push_back(StorageChange{addr, key, prev});
  if (value.IsZero()) {
    acc.storage.erase(key);
  } else {
    acc.storage[key] = value;
  }
  store_.MarkSlotDirty(addr, key);
}

void WorldState::RevertToSnapshot(Snapshot snap) {
  while (journal_.size() > snap) {
    JournalEntry entry = std::move(journal_.back());
    journal_.pop_back();
    // Reverting is itself a mutation as far as the commitment engine is
    // concerned: the flat maps move back, so the store must re-fold the
    // touched account/slot on the next commit.
    std::visit(
        [this](auto&& e) {
          using T = std::decay_t<decltype(e)>;
          if constexpr (std::is_same_v<T, BalanceChange>) {
            accounts_.Touch(e.addr).balance = e.prev;
            store_.MarkAccountDirty(e.addr);
          } else if constexpr (std::is_same_v<T, NonceChange>) {
            accounts_.Touch(e.addr).nonce = e.prev;
            store_.MarkAccountDirty(e.addr);
          } else if constexpr (std::is_same_v<T, CodeChange>) {
            Account& acc = accounts_.Touch(e.addr);
            acc.code = std::move(e.prev);
            acc.code_hash_cache.reset();
            store_.MarkAccountDirty(e.addr);
          } else if constexpr (std::is_same_v<T, StorageChange>) {
            Account& acc = accounts_.Touch(e.addr);
            if (e.prev.IsZero()) {
              acc.storage.erase(e.key);
            } else {
              acc.storage[e.key] = e.prev;
            }
            store_.MarkSlotDirty(e.addr, e.key);
          } else if constexpr (std::is_same_v<T, AccountCreated>) {
            accounts_.Erase(e.addr, /*deletion=*/false);
            store_.MarkAccountDirty(e.addr);
          } else if constexpr (std::is_same_v<T, AccountDeleted>) {
            accounts_.Restore(e.addr, std::move(e.prev));
            // The restored account may carry arbitrary storage; rebuild its
            // storage trie from the flat map rather than patching.
            store_.MarkAccountReset(e.addr);
          }
        },
        std::move(entry));
  }
}

storage::StateStore::AccountLookup WorldState::StoreLookup() const {
  return [this](const Address& addr) -> std::optional<storage::AccountData> {
    const Account* acc = Find(addr);
    if (acc == nullptr) return std::nullopt;
    storage::AccountData data;
    data.nonce = acc->nonce;
    data.balance = acc->balance;
    data.code_hash = CodeHashOf(*acc);  // the account's memo
    data.storage = &acc->storage;
    return data;
  };
}

Hash32 WorldState::StateRoot() const {
  return store_.CommitRoot(StoreLookup());
}

Hash32 WorldState::RebuildStateRoot() const {
  storage::SecureSharedTrie state_trie;
  accounts_.ForEach([&state_trie](const Address& addr, const Account& acc) {
    storage::SecureSharedTrie storage_trie;  // non-zero slots only
    for (const auto& [key, value] : acc.storage) {
      if (value.IsZero()) continue;
      Bytes value_rlp;
      rlp::Writer(&value_rlp).Scalar(value);
      storage_trie.Put(key.ToBytes(), value_rlp);
    }
    // Code is hashed from scratch, not read from the account's memo, so the
    // oracle shares nothing with the commit path it checks.
    storage::AccountData data;
    data.nonce = acc.nonce;
    data.balance = acc.balance;
    data.code_hash = Keccak256(acc.code);
    state_trie.Put(addr.view(), storage::EncodeAccountRlp(
                                    data, storage_trie.RootHash()));
  });
  return state_trie.RootHash();
}

storage::StateSnapshot WorldState::TakeStateSnapshot() const {
  store_.CommitRoot(StoreLookup());
  return store_.Snapshot();
}

Status WorldState::PersistCommitted(storage::NodeStore& store,
                                    uint64_t height) const {
  store_.CommitRoot(StoreLookup());
  return store_.Persist(store, height);
}

WorldState::Proof WorldState::ProveAccount(const Address& addr) const {
  store_.CommitRoot(StoreLookup());
  Proof proof;
  proof.account_proof = store_.ProveAccount(addr);
  return proof;
}

WorldState::Proof WorldState::ProveStorage(const Address& addr,
                                           const U256& key) const {
  store_.CommitRoot(StoreLookup());
  Proof proof;
  proof.account_proof = store_.ProveAccount(addr);
  if (Exists(addr)) {
    proof.storage_proof = store_.ProveStorage(addr, key);
  }
  return proof;
}

Result<std::optional<WorldState::AccountInfo>> WorldState::VerifyAccountProof(
    const Hash32& state_root, const Address& addr,
    const std::vector<Bytes>& account_proof) {
  ONOFF_ASSIGN_OR_RETURN(
      std::optional<Bytes> record,
      storage::SecureSharedTrie::VerifyProof(state_root, addr.view(),
                                             account_proof));
  if (!record.has_value()) return std::optional<AccountInfo>(std::nullopt);
  ONOFF_ASSIGN_OR_RETURN(rlp::Item item, rlp::Decode(*record));
  if (!item.IsList() || item.list().size() != 4) {
    return Status::VerificationFailed("malformed account record in proof");
  }
  AccountInfo info;
  ONOFF_ASSIGN_OR_RETURN(U256 nonce, item.list()[0].AsScalar());
  if (!nonce.FitsUint64()) {
    return Status::VerificationFailed("account nonce out of range");
  }
  info.nonce = nonce.low64();
  ONOFF_ASSIGN_OR_RETURN(info.balance, item.list()[1].AsScalar());
  const Bytes& sr = item.list()[2].string();
  const Bytes& ch = item.list()[3].string();
  if (sr.size() != 32 || ch.size() != 32) {
    return Status::VerificationFailed("account hashes have bad length");
  }
  std::copy(sr.begin(), sr.end(), info.storage_root.begin());
  std::copy(ch.begin(), ch.end(), info.code_hash.begin());
  return std::optional<AccountInfo>(info);
}

Result<U256> WorldState::VerifyStorageProof(const Hash32& storage_root,
                                            const U256& key,
                                            const std::vector<Bytes>& proof) {
  Bytes key_bytes = key.ToBytes();
  ONOFF_ASSIGN_OR_RETURN(
      std::optional<Bytes> value_rlp,
      storage::SecureSharedTrie::VerifyProof(storage_root, key_bytes, proof));
  if (!value_rlp.has_value()) return U256();
  ONOFF_ASSIGN_OR_RETURN(rlp::Item item, rlp::Decode(*value_rlp));
  return item.AsScalar();
}

std::vector<Address> WorldState::Addresses() const {
  std::vector<Address> out;
  out.reserve(accounts_.size());
  accounts_.ForEach(
      [&out](const Address& addr, const Account&) { out.push_back(addr); });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace onoff::state
