// The library's Merkle Patricia Trie — Ethereum's authenticated key/value
// structure — and everything that reads its node format: hex-prefix paths,
// the empty root, and the one walk over encoded nodes that serves both
// Merkle-proof verification and historical node-store lookups.
//
// `SharedTrie` holds `shared_ptr<const Node>` references to structurally
// shared, immutable nodes. Mutation is path-copying: Put/Delete rebuild
// only the spine from the root to the touched leaf and share every
// untouched subtree with the previous version. A batch of writes sorted by
// key folds in one pass (PutSorted), copying each touched node once and
// building fresh subtrees bottom-up. Each immutable node memoizes its RLP
// encoding and the keccak of it the first time it is hashed, so
// recomputing the root after k changed keys re-hashes O(k · depth) nodes
// instead of the whole trie, and the root, parent references and the
// persistence walk read the memo instead of hashing again.
//
// Copying a SharedTrie is O(1) and yields an independent snapshot: the copy
// and the original share all nodes until one of them writes. This is what
// makes per-block state snapshots and `WorldState::Clone()` cheap.
//
// Root hashes match Ethereum's (standard leaf/extension/branch node kinds,
// hex-prefix paths, embed-if-shorter-than-32-bytes rule): the tests check
// the Ethereum vectors and compare differentially against the seed trie
// kept under tests/trie as an oracle.

#ifndef ONOFFCHAIN_STORAGE_SHARED_TRIE_H_
#define ONOFFCHAIN_STORAGE_SHARED_TRIE_H_

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "crypto/keccak.h"
#include "support/bytes.h"
#include "support/status.h"

namespace onoff::storage {

// Hex-prefix encoding of a nibble path.
Bytes HexPrefixEncode(const std::vector<uint8_t>& nibbles, bool is_leaf);
// Inverse: decodes a hex-prefix path into nibbles and the leaf flag.
struct HexPrefixPath {
  std::vector<uint8_t> nibbles;
  bool is_leaf = false;
};
Result<HexPrefixPath> HexPrefixDecode(BytesView encoded);
std::vector<uint8_t> BytesToNibbles(BytesView key);

// Resolves a 32-byte child reference to the RLP encoding of that node.
using NodeFetch = std::function<Result<Bytes>(const Hash32&)>;

// The one descent over encoded trie nodes: fetches `root`, then follows
// `key`'s nibbles through leaf/extension/branch records, descending into
// embedded (< 32-byte) children in place and fetching hashed ones. Returns
// the value, nullopt when the nodes prove the key absent, or
// VerificationFailed for a malformed node; fetch errors propagate as-is.
Result<std::optional<Bytes>> WalkEncodedNodes(const Hash32& root,
                                              BytesView key,
                                              const NodeFetch& fetch);

namespace internal {
struct SharedNode;
}  // namespace internal

using NodeRef = std::shared_ptr<const internal::SharedNode>;

// A record's handle in a PersistSink (NodeStore: its slab slot).
using NodeSlot = uint32_t;

// Where a persistence walk stores a trie's hashed nodes: NodeStore, or an
// adapter over callbacks. A record's references are the node's hashed
// children plus the hash a leaf value physically inside the record carries
// (embedded descendants included); the node-store refcounts prune exactly
// on these. The walk passes them as the handles the sink gave out, so the
// sink counts them without looking their hashes up again.
class PersistSink {
 public:
  virtual ~PersistSink() = default;
  // True, with its handle, when the sink holds `hash`; the walk then skips
  // the node's subtree (its references were counted when it was stored).
  virtual bool Find(const Hash32& hash, NodeSlot* slot) = 0;
  // A handle for a hash a leaf value carries, whether held yet or not.
  virtual NodeSlot Reference(const Hash32& hash) = 0;
  // Stores one record referencing `refs`; returns its handle.
  virtual Result<NodeSlot> Store(const Hash32& hash, const Bytes& encoding,
                                 std::span<const NodeSlot> refs) = 0;
  // Pins `root` (and everything it references) as the state of `height`.
  virtual Status RetainRoot(const Hash32& root, uint64_t height) = 0;

  // Persisted marks. A walk at height h stamps every node it stored or
  // found with (marks(), h, handle), and a later walk skips a node stamped
  // with this sink's marks() at a height >= marks_from() without calling
  // Find. That is safe because the walker's caller retains, at h, a root
  // that reaches every node stamped at h, and a sink releases no root at
  // or above marks_from(); a sink that fails a write takes a fresh marks()
  // id. 0 (the default) means the sink takes no stamps.
  virtual uint32_t marks() const { return 0; }
  virtual uint64_t marks_from() const { return 0; }
};

// One write of a batch fold (SharedTrie::PutSorted): a key and its new
// value; an empty value deletes the key.
struct TrieWrite {
  BytesView key;
  BytesView value;

  // Key order, which is the order of the keys' nibble paths.
  static bool KeyLess(const TrieWrite& a, const TrieWrite& b) {
    return std::lexicographical_compare(a.key.begin(), a.key.end(),
                                        b.key.begin(), b.key.end());
  }
};

// Reads the hash reference a leaf value carries (the account record's
// storage root) into `ref`; false when it carries none.
using LeafRef = bool (*)(BytesView leaf_value, Hash32* ref);

// The same walk over callbacks, by hash: `emit` gets (node hash, RLP
// encoding, hashes this record references) for every node `known` denies.
using PersistEmit = std::function<void(
    const Hash32&, const Bytes&, const std::vector<Hash32>&)>;
using PersistKnown = std::function<bool(const Hash32&)>;

class SharedTrie {
 public:
  SharedTrie() = default;
  // Copies share all nodes (O(1) snapshot).
  SharedTrie(const SharedTrie&) = default;
  SharedTrie& operator=(const SharedTrie&) = default;
  SharedTrie(SharedTrie&&) noexcept = default;
  SharedTrie& operator=(SharedTrie&&) noexcept = default;

  // Inserts or overwrites; an empty value deletes the key (Ethereum rule).
  // Writing the value a key already holds is a no-op that preserves every
  // existing node (and its memoized hash).
  void Put(BytesView key, BytesView value);
  void Delete(BytesView key);
  // Applies `writes`, sorted by TrieWrite::KeyLess with no key twice, in
  // one fold: the trie Putting them one at a time would hold, but each
  // touched node is copied once, a fresh subtree is built bottom-up with no
  // intermediate copies, and a write of the value a key holds keeps the
  // existing node (and its memoized hash). It never makes more nodes than
  // the Puts; it makes fewer where a delete would collapse a branch that a
  // later write regrows. Reads each key's nibbles from `skip` on: 1 for a
  // SplitRoot subtrie, whose keys lost their first nibble.
  void PutSorted(std::span<const TrieWrite> writes, size_t skip = 0);

  // ---- Root split: the subtries under the root, edited independently ----
  // Hands out the 16 subtries under a branch root (all empty for an empty
  // trie), child i holding the keys whose first nibble is i, minus that
  // nibble. False, leaving `children` alone, when the root is a leaf or an
  // extension. Disjoint subtries share no node, so each can be written and
  // hashed on its own thread.
  bool SplitRoot(std::array<SharedTrie, 16>* children) const;
  // Puts the edited subtries back under a root branch that keeps the old
  // root's value, collapsed as a Delete would leave it (one child merges
  // into the root, none empties the trie). When no child changed, the old
  // root and its memoized hash stay. Requires a root SplitRoot accepted.
  void JoinRoot(const std::array<SharedTrie, 16>& children);
  Result<Bytes> Get(BytesView key) const;
  bool Contains(BytesView key) const { return Get(key).ok(); }

  // Keccak commitment; only nodes without a memoized encoding are hashed.
  // Order-independent: any write sequence producing the same map yields the
  // same root. storage.trie_node_cache_hits counts the memos hashing
  // reuses: a child whose memo a new parent's encoding references, and a
  // root found already hashed here. Proofs and the persistence walk read
  // memos without counting.
  Hash32 RootHash() const;
  bool IsEmpty() const { return root_ == nullptr; }

  // keccak256(rlp("")) — the root of an empty trie.
  static Hash32 EmptyRoot();

  // Merkle proof: the RLP encodings of the hashed nodes along the lookup
  // path, root node first. Works for absent keys too (an exclusion proof is
  // the path to the divergence point). Empty tries yield an empty proof.
  std::vector<Bytes> Prove(BytesView key) const;

  // Verifies `proof` against `root` for `key`. Returns the proven value,
  // nullopt when the proof demonstrates absence, or an error when the proof
  // is inconsistent with the root (tampered/truncated/misordered/malformed).
  static Result<std::optional<Bytes>> VerifyProof(
      const Hash32& root, BytesView key, const std::vector<Bytes>& proof);

  // Walks the trie storing every hashed node `sink` lacks (children before
  // parents, each child in slot order). The root is always stored when
  // missing, even if its encoding is shorter than 32 bytes, because account
  // records reference storage roots by hash unconditionally. Stops at the
  // first failed store and returns it. Allocates nothing per node.
  // `height` stamps the walked nodes (PersistSink::marks): the caller must
  // retain, at `height`, a root that reaches this trie's root.
  Status PersistNodes(PersistSink& sink, uint64_t height,
                      LeafRef leaf_ref = nullptr) const;
  // The same walk, emitting through callbacks.
  void PersistNodes(const PersistKnown& known, const PersistEmit& emit,
                    LeafRef leaf_ref = nullptr) const;

  // The root reference — identity comparisons let tests assert structural
  // sharing (same pointer == same subtree, byte-for-byte).
  const NodeRef& root() const { return root_; }

  // Number of reachable nodes (test/bench introspection; O(n)).
  size_t CountNodes() const;

 private:
  NodeRef root_;
};

// SharedTrie keyed by keccak256(key) — state and storage tries.
class SecureSharedTrie {
 public:
  void Put(BytesView key, BytesView value) {
    Hash32 h = Keccak256(key);
    inner_.Put(BytesView(h.data(), h.size()), value);
  }
  void Delete(BytesView key) {
    Hash32 h = Keccak256(key);
    inner_.Delete(BytesView(h.data(), h.size()));
  }
  // SharedTrie::PutSorted, keyed by keccak256(key): each write's key is
  // already the hash.
  void PutSorted(std::span<const TrieWrite> hashed_writes) {
    inner_.PutSorted(hashed_writes);
  }
  Result<Bytes> Get(BytesView key) const {
    Hash32 h = Keccak256(key);
    return inner_.Get(BytesView(h.data(), h.size()));
  }
  Hash32 RootHash() const { return inner_.RootHash(); }
  bool IsEmpty() const { return inner_.IsEmpty(); }
  std::vector<Bytes> Prove(BytesView key) const {
    Hash32 h = Keccak256(key);
    return inner_.Prove(BytesView(h.data(), h.size()));
  }
  static Result<std::optional<Bytes>> VerifyProof(
      const Hash32& root, BytesView key, const std::vector<Bytes>& proof) {
    Hash32 h = Keccak256(key);
    return SharedTrie::VerifyProof(root, BytesView(h.data(), h.size()), proof);
  }
  Status PersistNodes(PersistSink& sink, uint64_t height,
                      LeafRef leaf_ref = nullptr) const {
    return inner_.PersistNodes(sink, height, leaf_ref);
  }
  void PersistNodes(const PersistKnown& known, const PersistEmit& emit,
                    LeafRef leaf_ref = nullptr) const {
    inner_.PersistNodes(known, emit, leaf_ref);
  }
  // The subtries are keyed by keccak256(key)'s nibbles after the first.
  bool SplitRoot(std::array<SharedTrie, 16>* children) const {
    return inner_.SplitRoot(children);
  }
  void JoinRoot(const std::array<SharedTrie, 16>& children) {
    inner_.JoinRoot(children);
  }
  const SharedTrie& raw() const { return inner_; }
  size_t CountNodes() const { return inner_.CountNodes(); }

 private:
  SharedTrie inner_;
};

}  // namespace onoff::storage

#endif  // ONOFFCHAIN_STORAGE_SHARED_TRIE_H_
