// The node store as it was before its records moved into a slab behind a
// flat index (src/storage/node_store.h), kept verbatim as a test-only
// differential oracle: node_store_oracle_test drives both with the same
// operations and compares what they hold, count and write.
//
// Optional persistent backend for the authenticated state store: an
// append-only, content-addressed node log with reference-counted pruning.
//
// Every hashed trie node is stored once, keyed by its keccak reference.
// Record-level references (a node's hashed children plus the storage roots
// carried inside account leaves) drive refcounts; retaining a block's state
// root pins everything reachable from it. Pruning states older than the
// dispute/challenge window dereferences their roots and cascades: a node
// dies exactly when no retained root can reach it any more, so structurally
// shared subtrees survive as long as any live block needs them.
//
// The on-disk format is a replayable log — node records ('N'), root
// retentions ('R'), prune marks ('P') — so Open() rebuilds the exact
// in-memory index and refcounts. Dead records stay in the file until
// Compact() rewrites it with the live set. With an empty path the store is
// purely in-memory (tests, benches).
//
// Durability: appends are buffered; callers make a block durable with
// Flush() (fflush + fsync) after persisting it. A crash between flushes can
// tear the log's tail — Open() recovers by replaying the longest valid
// prefix and truncating the torn bytes, so the store never becomes
// unopenable from a crash.
//
// Not thread-safe: one writer (the block-commit path) at a time.

#ifndef ONOFFCHAIN_STORAGE_NODE_STORE_ORACLE_H_
#define ONOFFCHAIN_STORAGE_NODE_STORE_ORACLE_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "crypto/keccak.h"
#include "support/bytes.h"
#include "support/status.h"

namespace onoff::storage::oracle {

struct Hash32Hasher {
  size_t operator()(const Hash32& h) const {
    size_t v = 0;
    for (size_t i = 0; i < sizeof(size_t); ++i) {
      v = (v << 8) | h[i];
    }
    return v;
  }
};

class NodeStore {
 public:
  // Empty path = in-memory only (no log, Open() is a no-op).
  explicit NodeStore(std::string path = "") : path_(std::move(path)) {}
  NodeStore(const NodeStore&) = delete;
  NodeStore& operator=(const NodeStore&) = delete;
  ~NodeStore();

  // Replays an existing log (creates the file on first write otherwise).
  // A torn tail (crash mid-append) is truncated and the valid prefix kept.
  Status Open();

  // Pushes buffered appends to disk (fflush + fsync). Call once per block
  // after Put/RetainRoot/PruneBelow so a crash cannot lose committed
  // blocks. No-op for in-memory stores.
  Status Flush();

  // True when `hash` is live in the store. Dead (pruned) records read as
  // absent so a persistence walk re-emits nodes that come back.
  bool Contains(const Hash32& hash) const;

  // Stores a node and increments the refcount of every reference it
  // carries. Re-putting a live hash is a no-op (content-addressed).
  Status Put(const Hash32& hash, BytesView encoding,
             const std::vector<Hash32>& refs);

  Result<Bytes> Get(const Hash32& hash) const;

  // Pins `root` (and transitively everything it references) as the state
  // root of block `height`.
  Status RetainRoot(const Hash32& root, uint64_t height);

  // Releases every retained root with height < `cutoff_height` and
  // cascades refcounts; returns the number of node records freed.
  size_t PruneBelow(uint64_t cutoff_height);

  // Historical read: walks stored nodes from `root` for keccak256(key)
  // (secure-trie keyspace) with the descent that also verifies Merkle
  // proofs (WalkEncodedNodes). Returns the value, or nullopt when the key
  // is provably absent under that root; a malformed stored node fails
  // verification and a missing one reads as NotFound.
  Result<std::optional<Bytes>> LookupSecure(const Hash32& root,
                                            BytesView key) const;

  // Rewrites the log with only live records (drops dead bytes).
  Status Compact();

  size_t live_nodes() const { return nodes_.size(); }
  size_t retained_roots() const { return retained_.size(); }
  uint64_t pruned_total() const { return pruned_total_; }
  // Bytes appended to the log so far (0 for in-memory stores).
  uint64_t file_bytes() const { return file_bytes_; }
  const std::string& path() const { return path_; }

 private:
  struct Record {
    Bytes enc;
    std::vector<Hash32> refs;
    uint64_t refcount = 0;
  };

  // Open() body: replay + append-handle creation. On failure the caller
  // clears the partial state so the store stays unopened and consistent.
  Status OpenImpl();
  // Log records; each is a no-op, building nothing, without a log file.
  Status AppendNode(const Hash32& hash, const Record& rec);
  Status AppendRetain(const Hash32& root, uint64_t height);
  Status AppendPrune(uint64_t cutoff_height);
  // Writes one record; requires the log file (out_).
  Status Append(const Bytes& payload);
  // Core ops, shared between the public API (journal=true) and log replay
  // (journal=false).
  Status PutImpl(const Hash32& hash, BytesView encoding,
                 const std::vector<Hash32>& refs, bool journal);
  Status RetainImpl(const Hash32& root, uint64_t height, bool journal);
  size_t PruneImpl(uint64_t cutoff_height, bool journal);
  void Deref(const Hash32& hash, size_t* freed);

  std::string path_;
  bool opened_ = false;
  std::FILE* out_ = nullptr;  // append handle (file-backed only)
  std::unordered_map<Hash32, Record, Hash32Hasher> nodes_;
  // References observed before their target record arrived (log replay and
  // compacted logs are order-independent this way).
  std::unordered_map<Hash32, uint64_t, Hash32Hasher> pending_refs_;
  // height -> retained state roots, ascending (pruning order).
  std::multimap<uint64_t, Hash32> retained_;
  uint64_t pruned_total_ = 0;
  uint64_t file_bytes_ = 0;
};

}  // namespace onoff::storage::oracle

#endif  // ONOFFCHAIN_STORAGE_NODE_STORE_ORACLE_H_
