// The node store against the store it replaced (tests/storage's oracle):
// both take the same operations — the persists of randomized states and
// tries, root retentions, prunes at random cutoffs, compactions and
// reopens — and must hold, count and write the same. Before the first
// compaction their logs must be byte-identical; after it (the new store
// compacts in slab order) their replays must agree.

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "rlp/rlp.h"
#include "rlp/rlp_oracle.h"
#include "storage/node_store.h"
#include "storage/node_store_oracle.h"
#include "storage/shared_trie.h"
#include "storage/state_store.h"
#include "support/address.h"
#include "support/u256.h"

namespace onoff::storage {
namespace {

// The oracle behind the walk's interface. Its handles index the hashes it
// handed out, and every hash it sees is recorded for the comparisons.
class OracleSink final : public PersistSink {
 public:
  OracleSink(oracle::NodeStore* store, std::set<Hash32>* seen)
      : store_(store), seen_(seen) {}

  bool Find(const Hash32& hash, NodeSlot* slot) override {
    if (!store_->Contains(hash)) return false;
    *slot = Handle(hash);
    return true;
  }
  NodeSlot Reference(const Hash32& hash) override { return Handle(hash); }
  Result<NodeSlot> Store(const Hash32& hash, const Bytes& encoding,
                         std::span<const NodeSlot> refs) override {
    std::vector<Hash32> ref_hashes;
    for (NodeSlot ref : refs) ref_hashes.push_back(hashes_[ref]);
    ONOFF_RETURN_NOT_OK(store_->Put(hash, encoding, ref_hashes));
    return Handle(hash);
  }
  Status RetainRoot(const Hash32& root, uint64_t height) override {
    seen_->insert(root);
    return store_->RetainRoot(root, height);
  }

 private:
  NodeSlot Handle(const Hash32& hash) {
    seen_->insert(hash);
    hashes_.push_back(hash);
    return static_cast<NodeSlot>(hashes_.size() - 1);
  }

  oracle::NodeStore* store_;
  std::set<Hash32>* seen_;
  std::vector<Hash32> hashes_;
};

Bytes ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());
}

std::string TempPath(const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

Address AddrOf(uint64_t i) {
  std::array<uint8_t, Address::kSize> raw{};
  uint64_t x = (i + 1) * 0x9E3779B97F4A7C15ull;
  for (int b = 0; b < 8; ++b) raw[b] = static_cast<uint8_t>(x >> (8 * b));
  return Address(raw);
}

// A flat account model and the state store that commits it.
struct Model {
  struct Account {
    uint64_t nonce = 0;
    U256 balance;
    std::unordered_map<U256, U256> storage;
  };
  std::map<Address, Account> accounts;
  StateStore store;

  Hash32 Commit() {
    return store.CommitRoot([this](const Address& a) {
      std::optional<AccountData> out;
      auto it = accounts.find(a);
      if (it != accounts.end()) {
        out = AccountData{it->second.nonce, it->second.balance, Hash32{},
                          &it->second.storage};
      }
      return out;
    });
  }

  // A block of random writes over a pool of `pool` addresses: balance and
  // nonce changes, slot writes (some to zero), and deletions.
  void Mutate(std::mt19937_64& rng, uint64_t pool) {
    for (uint64_t i = 0, n = 1 + rng() % 24; i < n; ++i) {
      const Address a = AddrOf(rng() % pool);
      const uint64_t op = rng() % 10;
      if (op == 0) {
        if (accounts.erase(a) > 0) store.MarkAccountReset(a);
        continue;
      }
      Account& acc = accounts[a];
      if (op <= 3) {
        const U256 key(rng() % 8);
        const uint64_t value = rng() % 3 == 0 ? 0 : rng();
        if (value == 0) {
          acc.storage.erase(key);
        } else {
          acc.storage[key] = U256(value);
        }
        store.MarkSlotDirty(a, key);
      } else {
        acc.balance = U256(rng());
        ++acc.nonce;
        store.MarkAccountDirty(a);
      }
    }
  }
};

// Both stores on their own log files, and every hash either was asked
// about.
class StorePair {
 public:
  explicit StorePair(const std::string& name)
      : path_(TempPath(name + ".log")),
        oracle_path_(TempPath(name + ".oracle.log")) {
    Reopen();
  }
  ~StorePair() {
    store_.reset();
    oracle_.reset();
    std::remove(path_.c_str());
    std::remove(oracle_path_.c_str());
  }

  NodeStore& store() { return *store_; }
  oracle::NodeStore& oracle() { return *oracle_; }
  OracleSink Sink() { return OracleSink(oracle_.get(), &seen_); }

  void Reopen() {
    store_.reset();
    oracle_.reset();
    store_ = std::make_unique<NodeStore>(path_);
    oracle_ = std::make_unique<oracle::NodeStore>(oracle_path_);
    ASSERT_TRUE(store_->Open().ok());
    ASSERT_TRUE(oracle_->Open().ok());
  }

  void Compact() {
    ASSERT_TRUE(store_->Compact().ok());
    ASSERT_TRUE(oracle_->Compact().ok());
    compacted_ = true;
  }

  void ExpectSame(const std::string& label) {
    ASSERT_EQ(store_->live_nodes(), oracle_->live_nodes()) << label;
    EXPECT_EQ(store_->retained_roots(), oracle_->retained_roots()) << label;
    EXPECT_EQ(store_->pruned_total(), oracle_->pruned_total()) << label;
    EXPECT_EQ(store_->file_bytes(), oracle_->file_bytes()) << label;
    for (const Hash32& h : seen_) {
      ASSERT_EQ(store_->Contains(h), oracle_->Contains(h)) << label;
      Result<Bytes> got = store_->Get(h);
      Result<Bytes> want = oracle_->Get(h);
      ASSERT_EQ(got.ok(), want.ok()) << label;
      if (got.ok()) {
        ASSERT_EQ(*got, *want) << label;
      }
    }
    if (!compacted_) {
      ASSERT_TRUE(store_->Flush().ok());
      ASSERT_TRUE(oracle_->Flush().ok());
      ASSERT_EQ(ReadFile(path_), ReadFile(oracle_path_)) << label;
    }
  }

 private:
  std::string path_;
  std::string oracle_path_;
  std::unique_ptr<NodeStore> store_;
  std::unique_ptr<oracle::NodeStore> oracle_;
  std::set<Hash32> seen_;
  bool compacted_ = false;
};

// Persists the model's committed state into both stores at `height`. The
// copy shares every trie node and the list of storage tries to persist, so
// both walks see the same nodes; only the new store's walk stamps them.
void PersistBoth(Model* model, StorePair* pair, uint64_t height) {
  StateStore copy = model->store;
  ASSERT_TRUE(model->store.Persist(pair->store(), height).ok());
  OracleSink sink = pair->Sink();
  ASSERT_TRUE(copy.Persist(sink, height).ok());
}

void RunDifferential(uint64_t seed, int steps) {
  std::mt19937_64 rng(seed);
  StorePair pair("node_store_diff_" + std::to_string(seed));
  Model model;
  // A raw trie with short keys and values of every size: embedded nodes,
  // branch values and extensions the secure state tries rarely produce.
  SharedTrie raw;
  std::vector<Hash32> roots;
  for (int step = 1; step <= steps; ++step) {
    const uint64_t height = static_cast<uint64_t>(step);
    const std::string label =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    model.Mutate(rng, 256);
    roots.push_back(model.Commit());
    PersistBoth(&model, &pair, height);
    if (rng() % 4 == 0) {
      for (int i = 0, n = 1 + static_cast<int>(rng() % 12); i < n; ++i) {
        std::string k;
        for (size_t j = 0, len = 1 + rng() % 4; j < len; ++j) {
          k.push_back(static_cast<char>('a' + rng() % 5));
        }
        raw.Put(BytesOf(k), BytesOf(std::string(rng() % 40, 'x')));
      }
      ASSERT_TRUE(raw.PersistNodes(pair.store(), height).ok());
      ASSERT_TRUE(pair.store().RetainRoot(raw.RootHash(), height).ok());
      OracleSink sink = pair.Sink();
      ASSERT_TRUE(raw.PersistNodes(sink, height).ok());
      ASSERT_TRUE(sink.RetainRoot(raw.RootHash(), height).ok());
    }
    if (rng() % 8 == 0) {
      // A retention of an old root, live or already pruned.
      const Hash32& root = roots[rng() % roots.size()];
      const uint64_t at = height - rng() % height;
      ASSERT_TRUE(pair.store().RetainRoot(root, at).ok());
      ASSERT_TRUE(pair.Sink().RetainRoot(root, at).ok());
    }
    if (rng() % 3 == 0) {
      const uint64_t cutoff = height - rng() % std::min<uint64_t>(height, 12);
      Result<size_t> freed = pair.store().PruneBelow(cutoff);
      ASSERT_TRUE(freed.ok()) << label;
      EXPECT_EQ(*freed, pair.oracle().PruneBelow(cutoff)) << label;
    }
    if (rng() % 16 == 0) pair.Compact();
    if (rng() % 12 == 0) {
      pair.Reopen();
      pair.ExpectSame(label + " (reopened)");
    }
    pair.ExpectSame(label);
    if (::testing::Test::HasFatalFailure()) return;
  }
  // The replay of whatever the logs hold now agrees too.
  pair.Reopen();
  pair.ExpectSame("seed " + std::to_string(seed) + " final replay");
}

TEST(NodeStoreOracleTest, SameOperationsSameStoreAndLog) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {
    RunDifferential(seed, 80);
    if (HasFatalFailure()) return;
  }
}

// A log the oracle wrote replays to the oracle's store. A walk into the
// replayed store (a new store, with a new marks id) must not trust the
// stamps a walk into another store left on the same nodes.
TEST(NodeStoreOracleTest, OracleLogReplaysAndStampsStayWithTheirStore) {
  std::mt19937_64 rng(7);
  const std::string oracle_path = TempPath("node_store_oracle_written.log");
  std::set<Hash32> seen;
  Model model;
  NodeStore first;  // the store whose stamps the nodes carry
  ASSERT_TRUE(first.Open().ok());
  auto oracle = std::make_unique<oracle::NodeStore>(oracle_path);
  ASSERT_TRUE(oracle->Open().ok());
  for (uint64_t height = 1; height <= 30; ++height) {
    model.Mutate(rng, 128);
    model.Commit();
    StateStore copy = model.store;
    ASSERT_TRUE(model.store.Persist(first, height).ok());
    OracleSink sink(oracle.get(), &seen);
    ASSERT_TRUE(copy.Persist(sink, height).ok());
    if (height > 8) {
      ASSERT_TRUE(first.PruneBelow(height - 8).ok());
      oracle->PruneBelow(height - 8);
    }
  }
  ASSERT_TRUE(oracle->Flush().ok());

  NodeStore replayed(oracle_path);
  ASSERT_TRUE(replayed.Open().ok());
  EXPECT_EQ(replayed.live_nodes(), oracle->live_nodes());
  EXPECT_EQ(replayed.retained_roots(), oracle->retained_roots());
  EXPECT_EQ(replayed.file_bytes(), oracle->file_bytes());
  for (const Hash32& h : seen) {
    ASSERT_EQ(replayed.Contains(h), oracle->Contains(h));
    Result<Bytes> got = replayed.Get(h);
    Result<Bytes> want = oracle->Get(h);
    ASSERT_EQ(got.ok(), want.ok());
    if (got.ok()) {
      ASSERT_EQ(*got, *want);
    }
  }

  // Next block: into `first` (stamping), into the replayed store and into
  // the oracle. The replayed store must end up holding the whole state.
  model.Mutate(rng, 128);
  const Hash32 root = model.Commit();
  StateStore to_replayed = model.store;
  StateStore to_oracle = model.store;
  ASSERT_TRUE(model.store.Persist(first, 31).ok());
  ASSERT_TRUE(to_replayed.Persist(replayed, 31).ok());
  OracleSink sink(oracle.get(), &seen);
  ASSERT_TRUE(to_oracle.Persist(sink, 31).ok());
  EXPECT_EQ(replayed.live_nodes(), oracle->live_nodes());
  for (const auto& [addr, acc] : model.accounts) {
    Result<std::optional<Bytes>> got = replayed.LookupSecure(root, addr.view());
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_TRUE(got->has_value());
    Hash32 storage_root;
    if (!StateStore::AccountStorageRef(**got, &storage_root)) {
      EXPECT_TRUE(acc.storage.empty());
      continue;
    }
    for (const auto& [key, value] : acc.storage) {
      Result<std::optional<Bytes>> slot =
          replayed.LookupSecure(storage_root, key.ToBytes());
      ASSERT_TRUE(slot.ok()) << slot.status().ToString();
      ASSERT_TRUE(slot->has_value());
      EXPECT_EQ(**slot, rlp::oracle::Encode(rlp::Item::Scalar(value)));
    }
  }
  oracle.reset();
  std::remove(oracle_path.c_str());
}

}  // namespace
}  // namespace onoff::storage
