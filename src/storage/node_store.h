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
// In memory, records sit in a slab and one flat open-addressed index maps a
// node hash to its slot. The index's slot function mixes the hash with a
// per-process random key, because outsiders choose node contents. A record
// holds its references as slots, so storing a node counts its children, and
// a prune cascade releases them, without a hash lookup. A reference to a
// node not stored yet gets a placeholder slot that only counts references;
// the node's record later fills it (log replay and compacted logs are
// order-independent this way).
//
// The on-disk format is a replayable log — node records ('N'), root
// retentions ('R'), prune marks ('P') — so Open() rebuilds the exact
// in-memory index and refcounts. Each record is appended before the memory
// changes it describes, so a failed append leaves the store as it was.
// Dead records stay in the file until Compact() rewrites it with the live
// set. With an empty path the store is purely in-memory (tests, benches).
//
// Durability: appends are buffered; callers make a block durable with
// Flush() (fflush + fsync) after persisting it. A prune mark is pushed to
// the file before any root is released. A crash between flushes can tear
// the log's tail — Open() recovers by replaying the longest valid prefix and
// truncating the torn bytes, so the store never becomes unopenable from a
// crash.
//
// Not thread-safe: one writer (the block-commit path) at a time.

#ifndef ONOFFCHAIN_STORAGE_NODE_STORE_H_
#define ONOFFCHAIN_STORAGE_NODE_STORE_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "crypto/keccak.h"
#include "storage/shared_trie.h"
#include "support/bytes.h"
#include "support/status.h"

namespace onoff::storage {

class NodeStore final : public PersistSink {
 public:
  // Empty path = in-memory only (no log, Open() is a no-op).
  explicit NodeStore(std::string path = "");
  NodeStore(const NodeStore&) = delete;
  NodeStore& operator=(const NodeStore&) = delete;
  ~NodeStore() override;

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
  Status RetainRoot(const Hash32& root, uint64_t height) override;

  // Releases every retained root with height < `cutoff_height` and
  // cascades refcounts; returns the number of node records freed. The
  // prune mark is written first: when it cannot be, nothing is released
  // and the error is returned.
  Result<size_t> PruneBelow(uint64_t cutoff_height);

  // Historical read: walks stored nodes from `root` for keccak256(key)
  // (secure-trie keyspace) with the descent that also verifies Merkle
  // proofs (WalkEncodedNodes). Returns the value, or nullopt when the key
  // is provably absent under that root; a malformed stored node fails
  // verification and a missing one reads as NotFound.
  Result<std::optional<Bytes>> LookupSecure(const Hash32& root,
                                            BytesView key) const;

  // Rewrites the log with only live records (drops dead bytes), in slab
  // order, then the retained roots by height.
  Status Compact();

  size_t live_nodes() const { return live_; }
  size_t retained_roots() const { return retained_.size(); }
  uint64_t pruned_total() const { return pruned_total_; }
  // Bytes appended to the log so far (0 for in-memory stores).
  uint64_t file_bytes() const { return file_bytes_; }
  const std::string& path() const { return path_; }

  // ---- PersistSink: the persistence walk's slot-level access ----
  bool Find(const Hash32& hash, NodeSlot* slot) override;
  NodeSlot Reference(const Hash32& hash) override;
  Result<NodeSlot> Store(const Hash32& hash, const Bytes& encoding,
                         std::span<const NodeSlot> refs) override;
  // Stamps are trusted down to the highest prune cutoff so far: every root
  // retained at or above it is still retained.
  uint32_t marks() const override { return marks_; }
  uint64_t marks_from() const override { return prune_floor_; }

 private:
  enum class State : uint8_t {
    kFree,     // on the free list
    kPending,  // placeholder: counts references to a node not stored yet
    kLive,
  };
  struct Record {
    Hash32 hash{};
    // Live: references held by records and retained roots. Pending:
    // references seen before the node arrived.
    uint64_t refcount = 0;
    // Live: `nrefs` reference slots, then the `enc_size`-byte encoding.
    std::unique_ptr<NodeSlot[]> body;
    uint32_t nrefs = 0;
    uint32_t enc_size = 0;
    State state = State::kFree;

    const NodeSlot* refs() const { return body.get(); }
    const uint8_t* enc() const {
      return reinterpret_cast<const uint8_t*>(body.get() + nrefs);
    }
  };
  // One entry of the open-addressed index: a slab slot and the low 32 bits
  // of its keyed hash (which also give the entry's home bucket).
  struct Bucket {
    NodeSlot slot;
    uint32_t tag;
  };
  static constexpr NodeSlot kEmptyBucket = ~NodeSlot{0};

  // Open() body: replay + append-handle creation. On failure the caller
  // clears the partial state so the store stays unopened and consistent.
  Status OpenImpl();
  void Reset();

  // ---- Index ----
  // The slot holding `hash` (live or pending), or kEmptyBucket.
  NodeSlot Lookup(const Hash32& hash) const;
  // The slot of a live record, or kEmptyBucket.
  NodeSlot LiveSlot(const Hash32& hash) const;
  void IndexInsert(const Hash32& hash, NodeSlot slot);
  void IndexErase(NodeSlot slot);
  void Grow();

  // ---- Slab ----
  NodeSlot Allocate(const Hash32& hash, State state);
  // Drops a record from the index and puts its slot on the free list.
  void Release(NodeSlot slot);

  // Log records; each is a no-op, building nothing, without a log file.
  Status AppendNode(const Hash32& hash, BytesView encoding,
                    std::span<const NodeSlot> refs);
  Status AppendRetain(const Hash32& root, uint64_t height);
  Status AppendPrune(uint64_t cutoff_height);
  // Writes one record; requires the log file (out_).
  Status Append(const Bytes& payload);

  // Core ops, shared between the public API (journal=true) and log replay
  // (journal=false).
  Status PutImpl(const Hash32& hash, BytesView encoding,
                 std::span<const Hash32> refs, bool journal);
  Result<NodeSlot> StoreImpl(const Hash32& hash, BytesView encoding,
                             std::span<const NodeSlot> refs, bool journal);
  Status RetainImpl(const Hash32& root, uint64_t height, bool journal);
  Result<size_t> PruneImpl(uint64_t cutoff_height, bool journal);
  void Deref(NodeSlot slot, size_t* freed);
  // A process-unique id for stamps; 0 (no stamps) once ids run out.
  static uint32_t NewMarksId();
  // After a failed store: frees the placeholders `refs` created that no
  // record counts.
  void DropUncounted(std::span<const NodeSlot> refs);

  std::string path_;
  bool opened_ = false;
  std::FILE* out_ = nullptr;  // append handle (file-backed only)

  std::vector<Record> slab_;
  std::vector<NodeSlot> free_;
  std::vector<Bucket> index_;  // power-of-two size, at most half full
  size_t indexed_ = 0;         // live + pending records
  size_t live_ = 0;

  // height -> retained state-root slots, ascending (pruning order).
  std::multimap<uint64_t, NodeSlot> retained_;
  // Replaced whenever a write fails: a walk whose root was never retained
  // may have stamped nodes with the old id.
  uint32_t marks_ = NewMarksId();
  uint64_t prune_floor_ = 0;  // highest PruneBelow cutoff so far
  uint64_t pruned_total_ = 0;
  uint64_t file_bytes_ = 0;

  // Reused buffers: one log record, one record's reference slots.
  Bytes payload_;
  std::vector<NodeSlot> ref_slots_;
};

}  // namespace onoff::storage

#endif  // ONOFFCHAIN_STORAGE_NODE_STORE_H_
