#include "trie/trie.h"

#include <cassert>

#include "rlp/rlp.h"
#include "rlp/rlp_oracle.h"

namespace onoff::trie {

namespace internal {

struct Node {
  enum class Type { kLeaf, kExtension, kBranch };

  Type type;
  // Nibble path for leaf/extension nodes.
  std::vector<uint8_t> path;
  // Leaf value, or the value slot of a branch.
  Bytes value;
  // Extension child.
  std::unique_ptr<Node> child;
  // Branch children.
  std::array<std::unique_ptr<Node>, 16> children;

  static std::unique_ptr<Node> Leaf(std::vector<uint8_t> path, Bytes value) {
    auto n = std::make_unique<Node>();
    n->type = Type::kLeaf;
    n->path = std::move(path);
    n->value = std::move(value);
    return n;
  }
  static std::unique_ptr<Node> Extension(std::vector<uint8_t> path,
                                         std::unique_ptr<Node> child) {
    auto n = std::make_unique<Node>();
    n->type = Type::kExtension;
    n->path = std::move(path);
    n->child = std::move(child);
    return n;
  }
  static std::unique_ptr<Node> Branch() {
    auto n = std::make_unique<Node>();
    n->type = Type::kBranch;
    return n;
  }
};

}  // namespace internal

namespace {

using internal::Node;
using NodePtr = std::unique_ptr<Node>;
using Nibbles = std::vector<uint8_t>;

Nibbles Sub(const Nibbles& n, size_t from) {
  return Nibbles(n.begin() + from, n.end());
}

size_t CommonPrefix(const Nibbles& a, const Nibbles& b) {
  size_t i = 0;
  while (i < a.size() && i < b.size() && a[i] == b[i]) ++i;
  return i;
}

// ---- Insert ----

NodePtr InsertNode(NodePtr node, const Nibbles& key, Bytes value) {
  if (node == nullptr) {
    return Node::Leaf(key, std::move(value));
  }
  switch (node->type) {
    case Node::Type::kLeaf: {
      size_t cp = CommonPrefix(node->path, key);
      if (cp == node->path.size() && cp == key.size()) {
        node->value = std::move(value);
        return node;
      }
      // Split into a branch (optionally under an extension for the shared
      // prefix).
      NodePtr branch = Node::Branch();
      if (cp == node->path.size()) {
        branch->value = std::move(node->value);
      } else {
        uint8_t idx = node->path[cp];
        branch->children[idx] =
            Node::Leaf(Sub(node->path, cp + 1), std::move(node->value));
      }
      if (cp == key.size()) {
        branch->value = std::move(value);
      } else {
        uint8_t idx = key[cp];
        branch->children[idx] = Node::Leaf(Sub(key, cp + 1), std::move(value));
      }
      if (cp > 0) {
        Nibbles prefix(key.begin(), key.begin() + cp);
        return Node::Extension(std::move(prefix), std::move(branch));
      }
      return branch;
    }
    case Node::Type::kExtension: {
      size_t cp = CommonPrefix(node->path, key);
      if (cp == node->path.size()) {
        node->child = InsertNode(std::move(node->child), Sub(key, cp),
                                 std::move(value));
        return node;
      }
      // The extension splits.
      NodePtr branch = Node::Branch();
      uint8_t ext_idx = node->path[cp];
      Nibbles ext_rest = Sub(node->path, cp + 1);
      if (ext_rest.empty()) {
        branch->children[ext_idx] = std::move(node->child);
      } else {
        branch->children[ext_idx] =
            Node::Extension(std::move(ext_rest), std::move(node->child));
      }
      if (cp == key.size()) {
        branch->value = std::move(value);
      } else {
        branch->children[key[cp]] =
            Node::Leaf(Sub(key, cp + 1), std::move(value));
      }
      if (cp > 0) {
        Nibbles prefix(key.begin(), key.begin() + cp);
        return Node::Extension(std::move(prefix), std::move(branch));
      }
      return branch;
    }
    case Node::Type::kBranch: {
      if (key.empty()) {
        node->value = std::move(value);
        return node;
      }
      uint8_t idx = key[0];
      node->children[idx] = InsertNode(std::move(node->children[idx]),
                                       Sub(key, 1), std::move(value));
      return node;
    }
  }
  return node;  // unreachable
}

// ---- Delete ----

// Re-collapses an extension whose child may have degenerated.
NodePtr NormalizeExtension(NodePtr node) {
  assert(node->type == Node::Type::kExtension);
  Node* child = node->child.get();
  if (child == nullptr) return nullptr;
  switch (child->type) {
    case Node::Type::kLeaf: {
      Nibbles merged = node->path;
      merged.insert(merged.end(), child->path.begin(), child->path.end());
      return Node::Leaf(std::move(merged), std::move(child->value));
    }
    case Node::Type::kExtension: {
      Nibbles merged = node->path;
      merged.insert(merged.end(), child->path.begin(), child->path.end());
      return Node::Extension(std::move(merged), std::move(child->child));
    }
    case Node::Type::kBranch:
      return node;
  }
  return node;
}

// Collapses a branch left with a single child and no value, or only a value.
NodePtr NormalizeBranch(NodePtr node) {
  assert(node->type == Node::Type::kBranch);
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
  if (count == 0 && has_value) {
    return Node::Leaf(Nibbles{}, std::move(node->value));
  }
  if (count == 1 && !has_value) {
    NodePtr child = std::move(node->children[live]);
    Nibbles merged{static_cast<uint8_t>(live)};
    switch (child->type) {
      case Node::Type::kLeaf:
        merged.insert(merged.end(), child->path.begin(), child->path.end());
        return Node::Leaf(std::move(merged), std::move(child->value));
      case Node::Type::kExtension:
        merged.insert(merged.end(), child->path.begin(), child->path.end());
        return Node::Extension(std::move(merged), std::move(child->child));
      case Node::Type::kBranch:
        return Node::Extension(std::move(merged), std::move(child));
    }
  }
  return node;
}

NodePtr DeleteNode(NodePtr node, const Nibbles& key) {
  if (node == nullptr) return nullptr;
  switch (node->type) {
    case Node::Type::kLeaf:
      if (node->path == key) return nullptr;
      return node;
    case Node::Type::kExtension: {
      size_t cp = CommonPrefix(node->path, key);
      if (cp != node->path.size()) return node;  // key not present
      node->child = DeleteNode(std::move(node->child), Sub(key, cp));
      if (node->child == nullptr) return nullptr;
      return NormalizeExtension(std::move(node));
    }
    case Node::Type::kBranch: {
      if (key.empty()) {
        node->value.clear();
      } else {
        uint8_t idx = key[0];
        node->children[idx] =
            DeleteNode(std::move(node->children[idx]), Sub(key, 1));
      }
      return NormalizeBranch(std::move(node));
    }
  }
  return node;  // unreachable
}

// ---- Lookup ----

const Node* Find(const Node* node, const Nibbles& key, size_t pos) {
  if (node == nullptr) return nullptr;
  switch (node->type) {
    case Node::Type::kLeaf: {
      Nibbles rest(key.begin() + pos, key.end());
      return node->path == rest ? node : nullptr;
    }
    case Node::Type::kExtension: {
      if (key.size() - pos < node->path.size()) return nullptr;
      for (size_t i = 0; i < node->path.size(); ++i) {
        if (key[pos + i] != node->path[i]) return nullptr;
      }
      return Find(node->child.get(), key, pos + node->path.size());
    }
    case Node::Type::kBranch: {
      if (pos == key.size()) {
        return node->value.empty() ? nullptr : node;
      }
      return Find(node->children[key[pos]].get(), key, pos + 1);
    }
  }
  return nullptr;  // unreachable
}

// ---- Hashing ----

Bytes EncodeNode(const Node* node);

// A node reference inside a parent: raw encoding if < 32 bytes, else the
// 32-byte keccak wrapped as an RLP string.
Bytes RefNode(const Node* node) {
  Bytes enc = EncodeNode(node);
  if (enc.size() < 32) return enc;  // embedded structurally
  Hash32 h = Keccak256(enc);
  return rlp::oracle::EncodeString(BytesView(h.data(), h.size()));
}

Bytes EncodeNode(const Node* node) {
  switch (node->type) {
    case Node::Type::kLeaf: {
      std::vector<Bytes> fields;
      fields.push_back(
          rlp::oracle::EncodeString(HexPrefixEncode(node->path, true)));
      fields.push_back(rlp::oracle::EncodeString(node->value));
      return rlp::oracle::EncodeList(fields);
    }
    case Node::Type::kExtension: {
      std::vector<Bytes> fields;
      fields.push_back(
          rlp::oracle::EncodeString(HexPrefixEncode(node->path, false)));
      fields.push_back(RefNode(node->child.get()));
      return rlp::oracle::EncodeList(fields);
    }
    case Node::Type::kBranch: {
      std::vector<Bytes> fields;
      for (int i = 0; i < 16; ++i) {
        if (node->children[i] == nullptr) {
          fields.push_back(rlp::oracle::EncodeString(Bytes{}));
        } else {
          fields.push_back(RefNode(node->children[i].get()));
        }
      }
      fields.push_back(rlp::oracle::EncodeString(node->value));
      return rlp::oracle::EncodeList(fields);
    }
  }
  return {};  // unreachable
}

}  // namespace

Bytes HexPrefixEncode(const std::vector<uint8_t>& nibbles, bool is_leaf) {
  uint8_t flag = is_leaf ? 2 : 0;
  Bytes out;
  if (nibbles.size() % 2 == 0) {
    out.push_back(static_cast<uint8_t>(flag << 4));
    for (size_t i = 0; i < nibbles.size(); i += 2) {
      out.push_back(static_cast<uint8_t>((nibbles[i] << 4) | nibbles[i + 1]));
    }
  } else {
    out.push_back(static_cast<uint8_t>(((flag | 1) << 4) | nibbles[0]));
    for (size_t i = 1; i < nibbles.size(); i += 2) {
      out.push_back(static_cast<uint8_t>((nibbles[i] << 4) | nibbles[i + 1]));
    }
  }
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

std::vector<Bytes> Trie::Prove(BytesView key) const {
  std::vector<Bytes> proof;
  Nibbles nibbles = BytesToNibbles(key);
  const Node* node = root_.get();
  size_t pos = 0;
  bool is_root = true;
  while (node != nullptr) {
    Bytes enc = EncodeNode(node);
    // Hashed nodes (and always the root) are standalone proof elements;
    // embedded nodes travel inside their parent's encoding.
    if (is_root || enc.size() >= 32) proof.push_back(std::move(enc));
    is_root = false;
    switch (node->type) {
      case Node::Type::kLeaf:
        return proof;
      case Node::Type::kExtension: {
        if (nibbles.size() - pos < node->path.size()) return proof;
        for (size_t i = 0; i < node->path.size(); ++i) {
          if (nibbles[pos + i] != node->path[i]) return proof;
        }
        pos += node->path.size();
        node = node->child.get();
        break;
      }
      case Node::Type::kBranch: {
        if (pos == nibbles.size()) return proof;
        node = node->children[nibbles[pos]].get();
        ++pos;
        break;
      }
    }
  }
  return proof;
}

Result<std::optional<Bytes>> Trie::VerifyProof(const Hash32& root,
                                               BytesView key,
                                               const std::vector<Bytes>& proof) {
  Nibbles nibbles = BytesToNibbles(key);
  if (proof.empty()) {
    // Only valid as an exclusion proof for the empty trie.
    if (root == EmptyRoot()) return std::optional<Bytes>(std::nullopt);
    return Status::VerificationFailed("empty proof for non-empty root");
  }

  size_t idx = 0;
  Hash32 expected = root;
  // Decode the next standalone proof node, checking its hash.
  auto next_node = [&]() -> Result<rlp::Item> {
    if (idx >= proof.size()) {
      return Status::VerificationFailed("proof truncated");
    }
    const Bytes& enc = proof[idx++];
    if (Keccak256(enc) != expected) {
      return Status::VerificationFailed("proof node hash mismatch");
    }
    return rlp::Decode(enc);
  };

  ONOFF_ASSIGN_OR_RETURN(rlp::Item item, next_node());
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
      ONOFF_ASSIGN_OR_RETURN(HexPrefixPath hp,
                             HexPrefixDecode(fields[0].string()));
      Nibbles rest(nibbles.begin() + pos, nibbles.end());
      if (hp.is_leaf) {
        if (!fields[1].IsString()) {
          return Status::VerificationFailed("malformed leaf value");
        }
        if (hp.nibbles == rest) return std::optional<Bytes>(fields[1].string());
        return std::optional<Bytes>(std::nullopt);  // absence proven
      }
      // Extension.
      if (rest.size() < hp.nibbles.size() ||
          !std::equal(hp.nibbles.begin(), hp.nibbles.end(), rest.begin())) {
        return std::optional<Bytes>(std::nullopt);
      }
      pos += hp.nibbles.size();
      next_ref = &fields[1];
    } else if (fields.size() == 17) {
      if (pos == nibbles.size()) {
        if (!fields[16].IsString()) {
          return Status::VerificationFailed("malformed branch value");
        }
        if (fields[16].string().empty()) {
          return std::optional<Bytes>(std::nullopt);
        }
        return std::optional<Bytes>(fields[16].string());
      }
      next_ref = &fields[nibbles[pos]];
      ++pos;
      if (next_ref->IsString() && next_ref->string().empty()) {
        return std::optional<Bytes>(std::nullopt);  // dead end: absent
      }
    } else {
      return Status::VerificationFailed("proof node has bad arity");
    }

    // Resolve the child reference: a 32-byte hash points at the next proof
    // element; a nested list is an embedded node.
    if (next_ref->IsList()) {
      // next_ref aliases item's own list — detach it before the assignment
      // destroys its storage.
      rlp::Item embedded = *next_ref;
      item = std::move(embedded);
    } else if (next_ref->IsString() && next_ref->string().size() == 32) {
      std::copy(next_ref->string().begin(), next_ref->string().end(),
                expected.begin());
      ONOFF_ASSIGN_OR_RETURN(item, next_node());
    } else {
      return Status::VerificationFailed("malformed child reference");
    }
  }
}

Trie::Trie() = default;
Trie::~Trie() = default;
Trie::Trie(Trie&&) noexcept = default;
Trie& Trie::operator=(Trie&&) noexcept = default;

void Trie::Put(BytesView key, BytesView value) {
  Nibbles nibbles = BytesToNibbles(key);
  if (value.empty()) {
    root_ = DeleteNode(std::move(root_), nibbles);
    return;
  }
  root_ = InsertNode(std::move(root_), nibbles,
                     Bytes(value.begin(), value.end()));
}

void Trie::Delete(BytesView key) {
  root_ = DeleteNode(std::move(root_), BytesToNibbles(key));
}

Result<Bytes> Trie::Get(BytesView key) const {
  Nibbles nibbles = BytesToNibbles(key);
  const Node* n = Find(root_.get(), nibbles, 0);
  if (n == nullptr) return Status::NotFound("key not in trie");
  return n->value;
}

Hash32 Trie::RootHash() const {
  if (root_ == nullptr) return EmptyRoot();
  return Keccak256(EncodeNode(root_.get()));
}

Hash32 Trie::EmptyRoot() {
  static const Hash32 kEmpty =
      Keccak256(rlp::oracle::EncodeString(Bytes{}));
  return kEmpty;
}

}  // namespace onoff::trie
