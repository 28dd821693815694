#include "storage/shared_trie.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <mutex>

#include "obs/metrics.h"
#include "rlp/rlp.h"

namespace onoff::storage {

namespace internal {

// Immutable after construction (mutated only while being built inside one
// Insert/Delete call, before anyone else can see it). The memoized encoding
// and its keccak are written once, together, behind a once_flag and
// published by one release store, so concurrent hashers of a shared
// snapshot are safe.
struct SharedNode {
  enum class Type : uint8_t { kLeaf, kExtension, kBranch };

  Type type = Type::kLeaf;
  // Next to `type`, so the flags fill what would be its padding: a node is
  // allocated per account, and every byte counts at 50 k accounts.
  mutable std::atomic<bool> enc_ready{false};
  mutable std::once_flag enc_once;
  std::vector<uint8_t> path;  // leaf/extension
  Bytes value;                // leaf value, or the value slot of a branch
  NodeRef child;              // extension
  // Branch: 16 slots. On the heap so leaves, most of a trie's nodes, stay
  // small — a rebuild allocates one node per account.
  std::vector<NodeRef> children;

  mutable Bytes enc;      // memoized RLP encoding
  mutable Hash32 hash{};  // memoized keccak(enc)

  // The last persist that stored or found this node (PersistSink::marks):
  // (sink id << 32 | handle) and (sink id << 32 | height). Each word
  // carries the id, so a stamp torn by two walks into different sinks at
  // once reads as foreign.
  mutable std::atomic<uint64_t> stamp_handle{0};
  mutable std::atomic<uint64_t> stamp_height{0};
};

}  // namespace internal

namespace {

using internal::SharedNode;
using Type = SharedNode::Type;
using Nibbles = std::vector<uint8_t>;

Nibbles Sub(const Nibbles& n, size_t from) {
  return Nibbles(n.begin() + from, n.end());
}

size_t CommonPrefix(const Nibbles& a, const Nibbles& b) {
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

NodeRef MakeLeaf(Nibbles path, Bytes value) {
  auto n = std::make_shared<SharedNode>();
  n->type = Type::kLeaf;
  n->path = std::move(path);
  n->value = std::move(value);
  return n;
}

NodeRef MakeExtension(Nibbles path, NodeRef child) {
  auto n = std::make_shared<SharedNode>();
  n->type = Type::kExtension;
  n->path = std::move(path);
  n->child = std::move(child);
  return n;
}

std::shared_ptr<SharedNode> MakeBranch() {
  auto n = std::make_shared<SharedNode>();
  n->type = Type::kBranch;
  n->children.resize(16);
  return n;
}

// A mutable copy of a branch for path-copying: shares all children refs.
std::shared_ptr<SharedNode> CopyBranch(const SharedNode& src) {
  auto n = MakeBranch();
  n->value = src.value;
  n->children = src.children;
  return n;
}

// ---- Hashing (memoized per node) ----

void EncodeNode(const SharedNode* node);

// A node's RLP encoding and its keccak, both computed on first use.
struct Memo {
  const Bytes& enc;
  const Hash32& hash;
};

Memo Memoized(const SharedNode* node) {
  if (!node->enc_ready.load(std::memory_order_acquire)) {
    std::call_once(node->enc_once, [node] {
      EncodeNode(node);
      node->hash = Keccak256(node->enc);
      node->enc_ready.store(true, std::memory_order_release);
      static obs::Counter* computed =
          obs::GetCounterOrNull("storage.trie_nodes_hashed");
      if (computed != nullptr) computed->Inc();
    });
  }
  return {node->enc, node->hash};
}

void CountCacheHits(uint64_t n) {
  static obs::Counter* hits =
      obs::GetCounterOrNull("storage.trie_node_cache_hits");
  if (hits != nullptr && n != 0) hits->Inc(n);
}

// Writes the hex-prefix encoding of `nibbles` (1 + size/2 bytes) to `out`.
void HexPrefixInto(const Nibbles& nibbles, bool is_leaf, uint8_t* out) {
  const uint8_t flag = is_leaf ? 2 : 0;
  size_t i = 0;
  if (nibbles.size() % 2 == 0) {
    out[0] = static_cast<uint8_t>(flag << 4);
  } else {
    out[0] = static_cast<uint8_t>(((flag | 1) << 4) | nibbles[0]);
    i = 1;
  }
  for (size_t o = 1; i < nibbles.size(); i += 2, ++o) {
    out[o] = static_cast<uint8_t>((nibbles[i] << 4) | nibbles[i + 1]);
  }
}

// The encoded size of a node's hex-prefix path: one byte below 0x40 when
// the path is a nibble or none, a string otherwise.
size_t PathSize(const Nibbles& path) {
  const size_t n = 1 + path.size() / 2;
  return n == 1 ? 1 : rlp::Writer::HeaderSize(n) + n;
}

void WritePath(rlp::Writer& w, const Nibbles& path, bool is_leaf) {
  uint8_t buf[33];
  if (path.size() > 64) {  // longer than a 32-byte key
    w.String(HexPrefixEncode(path, is_leaf));
    return;
  }
  HexPrefixInto(path, is_leaf, buf);
  w.String(BytesView(buf, 1 + path.size() / 2));
}

// A memoized child's reference inside its parent: its encoding when shorter
// than 32 bytes (embedded structurally), else its hash as a string; an
// empty string for no child.
size_t RefSize(const SharedNode* child) {
  if (child == nullptr) return 1;
  return child->enc.size() < 32 ? child->enc.size() : 33;
}

void WriteRef(rlp::Writer& w, const SharedNode* child) {
  if (child == nullptr) {
    w.String(BytesView());
  } else if (child->enc.size() < 32) {
    w.Raw(child->enc);
  } else {
    w.String(child->hash);
  }
}

// Memoizes each child first, counting a cache hit for each child whose memo
// was already there, then writes the node's list straight into its own memo
// at its exact size. Runs inside the node's call_once; a child's call_once
// nests in it on the same thread.
void EncodeNode(const SharedNode* node) {
  uint64_t hits = 0;
  auto memoize = [&hits](const SharedNode* child) {
    if (child == nullptr) return;
    if (child->enc_ready.load(std::memory_order_acquire)) {
      ++hits;
    } else {
      Memoized(child);
    }
  };
  size_t payload = 0;
  switch (node->type) {
    case Type::kLeaf:
      payload = PathSize(node->path) + rlp::Writer::StringSize(node->value);
      break;
    case Type::kExtension:
      memoize(node->child.get());
      payload = PathSize(node->path) + RefSize(node->child.get());
      break;
    case Type::kBranch:
      for (const NodeRef& child : node->children) {
        memoize(child.get());
        payload += RefSize(child.get());
      }
      payload += rlp::Writer::StringSize(node->value);
      break;
  }
  CountCacheHits(hits);

  Bytes& enc = node->enc;
  enc.reserve(rlp::Writer::ListSize(payload));
  rlp::Writer w(&enc);
  const size_t list = w.BeginList();
  switch (node->type) {
    case Type::kLeaf:
      WritePath(w, node->path, /*is_leaf=*/true);
      w.String(node->value);
      break;
    case Type::kExtension:
      WritePath(w, node->path, /*is_leaf=*/false);
      WriteRef(w, node->child.get());
      break;
    case Type::kBranch:
      for (const NodeRef& child : node->children) WriteRef(w, child.get());
      w.String(node->value);
      break;
  }
  w.EndList(list);
}

// ---- Insert (path-copying) ----

bool SameValue(const Bytes& a, BytesView b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

// Returns the original reference unchanged when the write is a no-op, so
// untouched spines keep their memoized encodings.
NodeRef Insert(const NodeRef& node, const Nibbles& key, BytesView value) {
  if (node == nullptr) {
    return MakeLeaf(key, Bytes(value.begin(), value.end()));
  }
  switch (node->type) {
    case Type::kLeaf: {
      size_t cp = CommonPrefix(node->path, key);
      if (cp == node->path.size() && cp == key.size()) {
        if (SameValue(node->value, value)) return node;
        return MakeLeaf(key, Bytes(value.begin(), value.end()));
      }
      // Split into a branch (optionally under an extension for the shared
      // prefix).
      auto branch = MakeBranch();
      if (cp == node->path.size()) {
        branch->value = node->value;
      } else {
        uint8_t idx = node->path[cp];
        branch->children[idx] = MakeLeaf(Sub(node->path, cp + 1), node->value);
      }
      if (cp == key.size()) {
        branch->value = Bytes(value.begin(), value.end());
      } else {
        uint8_t idx = key[cp];
        branch->children[idx] =
            MakeLeaf(Sub(key, cp + 1), Bytes(value.begin(), value.end()));
      }
      if (cp > 0) {
        return MakeExtension(Nibbles(key.begin(), key.begin() + cp),
                             std::move(branch));
      }
      return branch;
    }
    case Type::kExtension: {
      size_t cp = CommonPrefix(node->path, key);
      if (cp == node->path.size()) {
        NodeRef updated = Insert(node->child, Sub(key, cp), value);
        if (updated == node->child) return node;
        return MakeExtension(node->path, std::move(updated));
      }
      // The extension splits; the old child subtree is shared as-is.
      auto branch = MakeBranch();
      uint8_t ext_idx = node->path[cp];
      Nibbles ext_rest = Sub(node->path, cp + 1);
      if (ext_rest.empty()) {
        branch->children[ext_idx] = node->child;
      } else {
        branch->children[ext_idx] =
            MakeExtension(std::move(ext_rest), node->child);
      }
      if (cp == key.size()) {
        branch->value = Bytes(value.begin(), value.end());
      } else {
        branch->children[key[cp]] =
            MakeLeaf(Sub(key, cp + 1), Bytes(value.begin(), value.end()));
      }
      if (cp > 0) {
        return MakeExtension(Nibbles(key.begin(), key.begin() + cp),
                             std::move(branch));
      }
      return branch;
    }
    case Type::kBranch: {
      if (key.empty()) {
        if (SameValue(node->value, value)) return node;
        auto copy = CopyBranch(*node);
        copy->value = Bytes(value.begin(), value.end());
        return copy;
      }
      uint8_t idx = key[0];
      NodeRef updated = Insert(node->children[idx], Sub(key, 1), value);
      if (updated == node->children[idx]) return node;
      auto copy = CopyBranch(*node);
      copy->children[idx] = std::move(updated);
      return copy;
    }
  }
  return node;  // unreachable
}

// ---- Delete (path-copying) ----

// Re-collapses an extension over a possibly degenerated child. `path` and
// `child` describe the candidate extension (not yet constructed).
NodeRef NormalizeExtension(const Nibbles& path, NodeRef child) {
  switch (child->type) {
    case Type::kLeaf: {
      Nibbles merged = path;
      merged.insert(merged.end(), child->path.begin(), child->path.end());
      return MakeLeaf(std::move(merged), child->value);
    }
    case Type::kExtension: {
      Nibbles merged = path;
      merged.insert(merged.end(), child->path.begin(), child->path.end());
      return MakeExtension(std::move(merged), child->child);
    }
    case Type::kBranch:
      return MakeExtension(path, std::move(child));
  }
  return nullptr;  // unreachable
}

// Collapses a fresh branch copy left with a single child and no value, or
// only a value.
NodeRef NormalizeBranch(std::shared_ptr<SharedNode> node) {
  int live = -1;
  int count = 0;
  for (int i = 0; i < 16; ++i) {
    if (node->children[i] != nullptr) {
      live = i;
      ++count;
    }
  }
  bool has_value = !node->value.empty();
  if (count == 0 && !has_value) return nullptr;
  if (count == 0 && has_value) return MakeLeaf(Nibbles{}, node->value);
  if (count == 1 && !has_value) {
    NodeRef child = node->children[live];
    Nibbles merged{static_cast<uint8_t>(live)};
    return NormalizeExtension(merged, std::move(child));
  }
  return node;
}

NodeRef Remove(const NodeRef& node, const Nibbles& key) {
  if (node == nullptr) return nullptr;
  switch (node->type) {
    case Type::kLeaf:
      if (node->path == key) return nullptr;
      return node;  // key not present: unchanged
    case Type::kExtension: {
      size_t cp = CommonPrefix(node->path, key);
      if (cp != node->path.size()) return node;  // key not present
      NodeRef updated = Remove(node->child, Sub(key, cp));
      if (updated == node->child) return node;
      if (updated == nullptr) return nullptr;
      return NormalizeExtension(node->path, std::move(updated));
    }
    case Type::kBranch: {
      if (key.empty()) {
        if (node->value.empty()) return node;  // nothing to delete
        auto copy = CopyBranch(*node);
        copy->value.clear();
        return NormalizeBranch(std::move(copy));
      }
      uint8_t idx = key[0];
      NodeRef updated = Remove(node->children[idx], Sub(key, 1));
      if (updated == node->children[idx]) return node;
      auto copy = CopyBranch(*node);
      copy->children[idx] = std::move(updated);
      return NormalizeBranch(std::move(copy));
    }
  }
  return node;  // unreachable
}

// ---- Batch fold (sorted writes) ----

using Writes = std::span<const TrieWrite>;

// Nibble `i` of `key`, counted from its first byte.
uint8_t NibbleAt(BytesView key, size_t i) {
  const uint8_t b = key[i >> 1];
  return (i & 1) != 0 ? b & 0x0f : b >> 4;
}

size_t NibbleCount(BytesView key) { return key.size() * 2; }

// `key`'s nibbles [from, to).
Nibbles KeyNibbles(BytesView key, size_t from, size_t to) {
  Nibbles out(to - from);
  for (size_t i = from; i < to; ++i) out[i - from] = NibbleAt(key, i);
  return out;
}

// How many nibbles `key`, from `depth` on, shares with `path`.
size_t SharedWithPath(BytesView key, size_t depth, const Nibbles& path) {
  const size_t avail = NibbleCount(key) - depth;
  size_t n = 0;
  while (n < path.size() && n < avail && NibbleAt(key, depth + n) == path[n]) {
    ++n;
  }
  return n;
}

// How many nibbles two keys share from `depth` on.
size_t SharedWithKey(BytesView a, BytesView b, size_t depth) {
  const size_t end = std::min(NibbleCount(a), NibbleCount(b));
  size_t i = depth;
  while (i < end && NibbleAt(a, i) == NibbleAt(b, i)) ++i;
  return i - depth;
}

Bytes ValueOf(const TrieWrite& w) {
  return Bytes(w.value.begin(), w.value.end());
}

// The end of the run of writes from `i` that share nibble `depth` (`i`'s
// key is longer than `depth` nibbles).
size_t RunEnd(Writes w, size_t i, size_t depth) {
  const uint8_t nib = NibbleAt(w[i].key, depth);
  size_t j = i + 1;
  while (j < w.size() && NibbleAt(w[j].key, depth) == nib) ++j;
  return j;
}

NodeRef Build(Writes w, size_t depth);

// A fresh branch at `depth` over writes with at least two live entries
// there (the first can be the branch's own value).
NodeRef BuildBranch(Writes w, size_t depth) {
  auto branch = MakeBranch();
  size_t i = 0;
  if (NibbleCount(w[0].key) == depth) branch->value = ValueOf(w[i++]);
  while (i < w.size()) {
    const size_t j = RunEnd(w, i, depth);
    branch->children[NibbleAt(w[i].key, depth)] =
        Build(w.subspan(i, j - i), depth + 1);
    i = j;
  }
  return branch;
}

// A fresh subtree holding `w`'s live (non-empty) writes, built bottom-up:
// every node is made once, at its final shape. All keys share their first
// `depth` nibbles.
NodeRef Build(Writes w, size_t depth) {
  size_t lo = 0;
  size_t hi = w.size();
  while (lo < hi && w[lo].value.empty()) ++lo;
  while (hi > lo && w[hi - 1].value.empty()) --hi;
  if (lo == hi) return nullptr;
  w = w.subspan(lo, hi - lo);
  if (w.size() == 1) {
    return MakeLeaf(KeyNibbles(w[0].key, depth, NibbleCount(w[0].key)),
                    ValueOf(w[0]));
  }
  // Sorted keys: what the first and last share, every key between shares.
  const size_t shared = SharedWithKey(w.front().key, w.back().key, depth);
  NodeRef branch = BuildBranch(w, depth + shared);
  if (shared == 0) return branch;
  return MakeExtension(KeyNibbles(w[0].key, depth, depth + shared),
                       std::move(branch));
}

NodeRef Fold(const NodeRef& node, Writes w, size_t depth);

// Folds `w` into a branch. `copy` is null for a shared branch, which is
// copied on its first change, or the branch itself when it is fresh and so
// written in place.
NodeRef FoldBranch(const NodeRef& node, std::shared_ptr<SharedNode> copy,
                   Writes w, size_t depth) {
  const SharedNode& src = *node;
  size_t i = 0;
  if (NibbleCount(w[0].key) == depth) {
    if (!SameValue(src.value, w[0].value)) {
      if (copy == nullptr) copy = CopyBranch(src);
      copy->value = ValueOf(w[0]);
    }
    i = 1;
  }
  while (i < w.size()) {
    const size_t j = RunEnd(w, i, depth);
    const uint8_t nib = NibbleAt(w[i].key, depth);
    NodeRef updated = Fold(src.children[nib], w.subspan(i, j - i), depth + 1);
    if (updated != src.children[nib]) {
      if (copy == nullptr) copy = CopyBranch(src);
      copy->children[nib] = std::move(updated);
    }
    i = j;
  }
  if (copy == nullptr) return node;
  return NormalizeBranch(std::move(copy));
}

// A leaf or an extension that a live write leaves at nibble `at` of its
// path (a leaf's whole path, when the write runs on below the leaf): it
// splits there into a fresh branch, holding the rest of the node, that the
// writes fold into in place, under an extension for the first `at`
// nibbles.
NodeRef SplitShort(const NodeRef& node, Writes w, size_t depth, size_t at) {
  const Nibbles& path = node->path;
  auto branch = MakeBranch();
  if (node->type == Type::kLeaf) {
    if (at == path.size()) {
      branch->value = node->value;
    } else {
      branch->children[path[at]] = MakeLeaf(Sub(path, at + 1), node->value);
    }
  } else {
    branch->children[path[at]] =
        at + 1 == path.size() ? node->child
                              : MakeExtension(Sub(path, at + 1), node->child);
  }
  // The writes that reach the branch: a delete off the path before `at`
  // removes nothing. Sorted keys, so they are one run.
  size_t lo = 0;
  size_t hi = w.size();
  while (SharedWithPath(w[lo].key, depth, path) < at) ++lo;
  while (SharedWithPath(w[hi - 1].key, depth, path) < at) --hi;
  NodeRef folded =
      FoldBranch(branch, branch, w.subspan(lo, hi - lo), depth + at);
  if (at == 0 || folded == nullptr) return folded;
  return NormalizeExtension(Nibbles(path.begin(), path.begin() + at),
                            std::move(folded));
}

// Folds `w` into a leaf or an extension.
NodeRef FoldShort(const NodeRef& node, Writes w, size_t depth) {
  const Nibbles& path = node->path;
  const bool leaf = node->type == Type::kLeaf;
  // Where the first live write leaves the path; past the end when none
  // does (for a leaf: every live write is to its own key).
  size_t split = path.size() + 1;
  for (const TrieWrite& write : w) {
    if (write.value.empty()) continue;
    const size_t shared = SharedWithPath(write.key, depth, path);
    const bool own_key =
        shared == path.size() && NibbleCount(write.key) == depth + shared;
    if (leaf ? !own_key : shared < path.size()) {
      split = std::min(split, shared);
    }
  }
  if (split <= path.size()) return SplitShort(node, w, depth, split);

  if (leaf) {
    for (const TrieWrite& write : w) {
      if (NibbleCount(write.key) != depth + path.size() ||
          SharedWithPath(write.key, depth, path) != path.size()) {
        continue;
      }
      if (write.value.empty()) return nullptr;
      if (SameValue(node->value, write.value)) return node;
      return MakeLeaf(path, ValueOf(write));
    }
    return node;  // only deletes of absent keys
  }
  // An extension every live write runs through: fold below it.
  size_t lo = 0;
  size_t hi = w.size();
  while (lo < hi && SharedWithPath(w[lo].key, depth, path) < path.size()) {
    ++lo;
  }
  while (hi > lo &&
         SharedWithPath(w[hi - 1].key, depth, path) < path.size()) {
    --hi;
  }
  if (lo == hi) return node;
  NodeRef updated =
      Fold(node->child, w.subspan(lo, hi - lo), depth + path.size());
  if (updated == node->child) return node;
  if (updated == nullptr) return nullptr;
  return NormalizeExtension(path, std::move(updated));
}

// Folds writes sorted by key, all sharing their first `depth` nibbles,
// into the subtree at `node`.
NodeRef Fold(const NodeRef& node, Writes w, size_t depth) {
  if (w.empty()) return node;
  if (node == nullptr) return Build(w, depth);
  if (node->type == Type::kBranch) return FoldBranch(node, nullptr, w, depth);
  return FoldShort(node, w, depth);
}

// ---- Lookup ----

const SharedNode* Find(const SharedNode* node, const Nibbles& key,
                       size_t pos) {
  if (node == nullptr) return nullptr;
  switch (node->type) {
    case Type::kLeaf: {
      Nibbles rest(key.begin() + pos, key.end());
      return node->path == rest ? node : nullptr;
    }
    case Type::kExtension: {
      if (key.size() - pos < node->path.size()) return nullptr;
      for (size_t i = 0; i < node->path.size(); ++i) {
        if (key[pos + i] != node->path[i]) return nullptr;
      }
      return Find(node->child.get(), key, pos + node->path.size());
    }
    case Type::kBranch: {
      if (pos == key.size()) {
        return node->value.empty() ? nullptr : node;
      }
      return Find(node->children[key[pos]].get(), key, pos + 1);
    }
  }
  return nullptr;  // unreachable
}

// ---- Persistence walk ----

// One walk of one trie into a sink. Records are stored children first, each
// child in slot order, so a parent's references are handles the sink has
// already given out. Every record's handles go on one reused stack: a node's
// sit above its parent's until the node is stored, then are popped.
class PersistWalker {
 public:
  PersistWalker(PersistSink& sink, uint64_t height, LeafRef leaf_ref)
      : sink_(sink),
        leaf_ref_(leaf_ref),
        // Stamps carry 32-bit heights; higher ones are not stamped.
        marks_(height >> 32 == 0 ? sink.marks() : 0),
        marks_from_(sink.marks_from()),
        height_(height) {
    refs_.reserve(64);
  }

  // The handle of `node`'s record, storing the subtree first when the sink
  // lacks it; meaningless once status() failed.
  NodeSlot Visit(const SharedNode* node, const Memo& memo) {
    NodeSlot slot = 0;
    if (!status_.ok() || Stamped(node, &slot)) return slot;
    if (!sink_.Find(memo.hash, &slot)) {
      const size_t base = refs_.size();
      PushRecordRefs(node);
      if (status_.ok()) {
        Result<NodeSlot> stored =
            sink_.Store(memo.hash, memo.enc,
                        std::span<const NodeSlot>(refs_.data() + base,
                                                  refs_.size() - base));
        if (stored.ok()) {
          slot = *stored;
        } else {
          status_ = stored.status();
        }
      }
      refs_.resize(base);
      if (!status_.ok()) return slot;
    }
    Stamp(node, slot);
    return slot;
  }

  const Status& status() const { return status_; }

 private:
  // True, with the handle, when a walk into this sink stamped `node` at a
  // height the sink still retains.
  bool Stamped(const SharedNode* node, NodeSlot* slot) const {
    if (marks_ == 0) return false;
    const uint64_t handle = node->stamp_handle.load(std::memory_order_relaxed);
    const uint64_t height = node->stamp_height.load(std::memory_order_relaxed);
    if (handle >> 32 != marks_ || height >> 32 != marks_ ||
        (height & 0xffffffff) < marks_from_) {
      return false;
    }
    *slot = static_cast<NodeSlot>(handle);
    return true;
  }

  void Stamp(const SharedNode* node, NodeSlot slot) const {
    if (marks_ == 0) return;
    const uint64_t id = uint64_t{marks_} << 32;
    node->stamp_handle.store(id | slot, std::memory_order_relaxed);
    node->stamp_height.store(id | height_, std::memory_order_relaxed);
  }

  // The references physically inside `node`'s record: each hashed child
  // (visited first), the contents of each embedded child (an embedded node
  // rides inside this record and can itself only hold further embedded
  // nodes, since a hash reference alone is 33 encoded bytes), and the
  // hash a leaf value carries.
  void PushRecordRefs(const SharedNode* node) {
    switch (node->type) {
      case Type::kLeaf:
        PushLeafRef(node->value);
        return;
      case Type::kExtension:
        PushChild(node->child.get());
        return;
      case Type::kBranch:
        for (const NodeRef& child : node->children) {
          if (child != nullptr) PushChild(child.get());
        }
        if (!node->value.empty()) PushLeafRef(node->value);
        return;
    }
  }

  void PushChild(const SharedNode* child) {
    Memo memo = Memoized(child);
    if (memo.enc.size() < 32) {
      PushRecordRefs(child);
      return;
    }
    NodeSlot slot = Visit(child, memo);
    refs_.push_back(slot);
  }

  void PushLeafRef(const Bytes& value) {
    Hash32 ref;
    if (leaf_ref_ != nullptr && leaf_ref_(value, &ref)) {
      refs_.push_back(sink_.Reference(ref));
    }
  }

  PersistSink& sink_;
  const LeafRef leaf_ref_;
  const uint32_t marks_;
  const uint64_t marks_from_;
  const uint64_t height_;
  std::vector<NodeSlot> refs_;
  Status status_;
};

// A sink over hash-level callbacks: its handles index the hashes it has
// handed out.
class CallbackSink final : public PersistSink {
 public:
  CallbackSink(const PersistKnown& known, const PersistEmit& emit)
      : known_(known), emit_(emit) {}

  bool Find(const Hash32& hash, NodeSlot* slot) override {
    if (!known_(hash)) return false;
    *slot = Handle(hash);
    return true;
  }
  NodeSlot Reference(const Hash32& hash) override { return Handle(hash); }
  // Callbacks keep no refcounts, so there is nothing to pin.
  Status RetainRoot(const Hash32&, uint64_t) override { return Status::OK(); }
  Result<NodeSlot> Store(const Hash32& hash, const Bytes& encoding,
                         std::span<const NodeSlot> refs) override {
    ref_hashes_.clear();
    for (NodeSlot ref : refs) ref_hashes_.push_back(hashes_[ref]);
    emit_(hash, encoding, ref_hashes_);
    return Handle(hash);
  }

 private:
  NodeSlot Handle(const Hash32& hash) {
    hashes_.push_back(hash);
    return static_cast<NodeSlot>(hashes_.size() - 1);
  }

  const PersistKnown& known_;
  const PersistEmit& emit_;
  std::vector<Hash32> hashes_;
  std::vector<Hash32> ref_hashes_;
};

size_t Count(const SharedNode* node) {
  if (node == nullptr) return 0;
  size_t n = 1;
  if (node->type == Type::kExtension) n += Count(node->child.get());
  if (node->type == Type::kBranch) {
    for (const NodeRef& child : node->children) n += Count(child.get());
  }
  return n;
}

}  // namespace

Bytes HexPrefixEncode(const std::vector<uint8_t>& nibbles, bool is_leaf) {
  Bytes out(1 + nibbles.size() / 2);
  HexPrefixInto(nibbles, is_leaf, out.data());
  return out;
}

Result<HexPrefixPath> HexPrefixDecode(BytesView encoded) {
  if (encoded.empty()) {
    return Status::InvalidArgument("empty hex-prefix path");
  }
  HexPrefixPath out;
  uint8_t flag = encoded[0] >> 4;
  if (flag > 3) return Status::InvalidArgument("bad hex-prefix flag");
  out.is_leaf = (flag & 2) != 0;
  bool odd = (flag & 1) != 0;
  if (odd) out.nibbles.push_back(encoded[0] & 0xf);
  for (size_t i = 1; i < encoded.size(); ++i) {
    out.nibbles.push_back(encoded[i] >> 4);
    out.nibbles.push_back(encoded[i] & 0xf);
  }
  return out;
}

std::vector<uint8_t> BytesToNibbles(BytesView key) {
  std::vector<uint8_t> out;
  out.reserve(key.size() * 2);
  for (uint8_t b : key) {
    out.push_back(b >> 4);
    out.push_back(b & 0xf);
  }
  return out;
}

Result<std::optional<Bytes>> WalkEncodedNodes(const Hash32& root,
                                              BytesView key,
                                              const NodeFetch& fetch) {
  using Found = std::optional<Bytes>;
  const Nibbles nibbles = BytesToNibbles(key);
  auto load = [&fetch](const Hash32& hash) -> Result<rlp::Item> {
    ONOFF_ASSIGN_OR_RETURN(Bytes enc, fetch(hash));
    return rlp::Decode(enc);
  };

  ONOFF_ASSIGN_OR_RETURN(rlp::Item item, load(root));
  size_t pos = 0;
  for (;;) {
    if (!item.IsList()) {
      return Status::VerificationFailed("proof node is not a list");
    }
    const std::vector<rlp::Item>& fields = item.list();
    const rlp::Item* next_ref = nullptr;
    if (fields.size() == 2) {
      if (!fields[0].IsString()) {
        return Status::VerificationFailed("malformed short node path");
      }
      Result<HexPrefixPath> hp = HexPrefixDecode(fields[0].string());
      if (!hp.ok()) return Status::VerificationFailed(hp.status().message());
      const Nibbles& path = hp->nibbles;
      bool on_path =
          nibbles.size() - pos >= path.size() &&
          std::equal(path.begin(), path.end(), nibbles.begin() + pos);
      if (hp->is_leaf) {
        if (!fields[1].IsString()) {
          return Status::VerificationFailed("malformed leaf value");
        }
        if (on_path && pos + path.size() == nibbles.size()) {
          return Found(fields[1].string());
        }
        return Found(std::nullopt);  // absence proven
      }
      // Extension.
      if (!on_path) return Found(std::nullopt);
      pos += path.size();
      next_ref = &fields[1];
    } else if (fields.size() == 17) {
      if (pos == nibbles.size()) {
        if (!fields[16].IsString()) {
          return Status::VerificationFailed("malformed branch value");
        }
        if (fields[16].string().empty()) return Found(std::nullopt);
        return Found(fields[16].string());
      }
      next_ref = &fields[nibbles[pos]];
      ++pos;
      if (next_ref->IsString() && next_ref->string().empty()) {
        return Found(std::nullopt);  // dead end: absent
      }
    } else {
      return Status::VerificationFailed("proof node has bad arity");
    }

    // Resolve the child reference: a nested list is an embedded node; a
    // 32-byte string is the hash of the next node to fetch.
    if (next_ref->IsList()) {
      // next_ref aliases item's own list — detach it before the assignment
      // destroys its storage.
      rlp::Item embedded = *next_ref;
      item = std::move(embedded);
    } else if (next_ref->IsString() && next_ref->string().size() == 32) {
      Hash32 child;
      std::copy(next_ref->string().begin(), next_ref->string().end(),
                child.begin());
      ONOFF_ASSIGN_OR_RETURN(item, load(child));
    } else {
      return Status::VerificationFailed("malformed child reference");
    }
  }
}

void SharedTrie::Put(BytesView key, BytesView value) {
  const Nibbles path = BytesToNibbles(key);
  root_ = value.empty() ? Remove(root_, path) : Insert(root_, path, value);
}

bool SharedTrie::SplitRoot(std::array<SharedTrie, 16>* children) const {
  if (root_ != nullptr && root_->type != Type::kBranch) return false;
  for (int i = 0; i < 16; ++i) {
    (*children)[i].root_ = root_ == nullptr ? nullptr : root_->children[i];
  }
  return true;
}

void SharedTrie::JoinRoot(const std::array<SharedTrie, 16>& children) {
  assert(root_ == nullptr || root_->type == Type::kBranch);
  bool changed = false;
  for (int i = 0; i < 16 && !changed; ++i) {
    const SharedNode* before =
        root_ == nullptr ? nullptr : root_->children[i].get();
    changed = children[i].root_.get() != before;
  }
  if (!changed) return;
  auto branch = MakeBranch();
  if (root_ != nullptr) branch->value = root_->value;
  for (int i = 0; i < 16; ++i) branch->children[i] = children[i].root_;
  root_ = NormalizeBranch(std::move(branch));
}

void SharedTrie::PutSorted(std::span<const TrieWrite> writes, size_t skip) {
  assert(std::is_sorted(writes.begin(), writes.end(), TrieWrite::KeyLess));
  root_ = Fold(root_, writes, skip);
}

void SharedTrie::Delete(BytesView key) {
  root_ = Remove(root_, BytesToNibbles(key));
}

Result<Bytes> SharedTrie::Get(BytesView key) const {
  Nibbles nibbles = BytesToNibbles(key);
  const SharedNode* n = Find(root_.get(), nibbles, 0);
  if (n == nullptr) return Status::NotFound("key not in trie");
  return n->value;
}

Hash32 SharedTrie::RootHash() const {
  if (root_ == nullptr) return EmptyRoot();
  if (root_->enc_ready.load(std::memory_order_acquire)) {
    CountCacheHits(1);
    return root_->hash;
  }
  return Memoized(root_.get()).hash;
}

Hash32 SharedTrie::EmptyRoot() {
  static const Hash32 kEmpty = [] {
    Bytes empty;
    rlp::Writer(&empty).String(BytesView());
    return Keccak256(empty);
  }();
  return kEmpty;
}

Result<std::optional<Bytes>> SharedTrie::VerifyProof(
    const Hash32& root, BytesView key, const std::vector<Bytes>& proof) {
  if (proof.empty()) {
    // Only valid as an exclusion proof for the empty trie.
    if (root == EmptyRoot()) return std::optional<Bytes>(std::nullopt);
    return Status::VerificationFailed("empty proof for non-empty root");
  }
  // Elements are consumed in order; each must hash to the reference that
  // led to it.
  size_t next = 0;
  return WalkEncodedNodes(
      root, key, [&proof, &next](const Hash32& hash) -> Result<Bytes> {
        if (next >= proof.size()) {
          return Status::VerificationFailed("proof truncated");
        }
        const Bytes& enc = proof[next++];
        if (Keccak256(enc) != hash) {
          return Status::VerificationFailed("proof node hash mismatch");
        }
        return enc;
      });
}

std::vector<Bytes> SharedTrie::Prove(BytesView key) const {
  std::vector<Bytes> proof;
  Nibbles nibbles = BytesToNibbles(key);
  const SharedNode* node = root_.get();
  size_t pos = 0;
  bool is_root = true;
  while (node != nullptr) {
    const Bytes& enc = Memoized(node).enc;
    if (is_root || enc.size() >= 32) proof.push_back(enc);
    is_root = false;
    switch (node->type) {
      case Type::kLeaf:
        return proof;
      case Type::kExtension: {
        if (nibbles.size() - pos < node->path.size()) return proof;
        for (size_t i = 0; i < node->path.size(); ++i) {
          if (nibbles[pos + i] != node->path[i]) return proof;
        }
        pos += node->path.size();
        node = node->child.get();
        break;
      }
      case Type::kBranch: {
        if (pos == nibbles.size()) return proof;
        node = node->children[nibbles[pos]].get();
        ++pos;
        break;
      }
    }
  }
  return proof;
}

Status SharedTrie::PersistNodes(PersistSink& sink, uint64_t height,
                                LeafRef leaf_ref) const {
  if (root_ == nullptr) return Status::OK();
  // The root is stored standalone whatever its size; every other embedded
  // node travels inside its parent's record.
  PersistWalker walker(sink, height, leaf_ref);
  walker.Visit(root_.get(), Memoized(root_.get()));
  return walker.status();
}

void SharedTrie::PersistNodes(const PersistKnown& known,
                              const PersistEmit& emit,
                              LeafRef leaf_ref) const {
  CallbackSink sink(known, emit);
  (void)PersistNodes(sink, /*height=*/0, leaf_ref);  // callbacks cannot fail
}

size_t SharedTrie::CountNodes() const { return Count(root_.get()); }

}  // namespace onoff::storage
