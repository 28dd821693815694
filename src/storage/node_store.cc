#include "storage/node_store.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/metrics.h"
#include "support/log.h"

namespace onoff::storage {

namespace {

constexpr char kMagic[] = "ONOFFNS1";
constexpr size_t kMagicLen = 8;

void PutU32(Bytes* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back((v >> (8 * i)) & 0xff);
}
void PutU64(Bytes* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back((v >> (8 * i)) & 0xff);
}

class LogReader {
 public:
  LogReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  bool ReadByte(uint8_t* v) {
    if (pos_ + 1 > size_) return false;
    *v = data_[pos_++];
    return true;
  }
  bool ReadU32(uint32_t* v) {
    if (pos_ + 4 > size_) return false;
    *v = 0;
    for (int i = 0; i < 4; ++i) *v |= uint32_t(data_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return true;
  }
  bool ReadU64(uint64_t* v) {
    if (pos_ + 8 > size_) return false;
    *v = 0;
    for (int i = 0; i < 8; ++i) *v |= uint64_t(data_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return true;
  }
  bool ReadHash(Hash32* h) {
    if (pos_ + 32 > size_) return false;
    std::copy(data_ + pos_, data_ + pos_ + 32, h->begin());
    pos_ += 32;
    return true;
  }
  bool ReadView(size_t n, BytesView* out) {
    if (pos_ + n > size_) return false;
    *out = BytesView(data_ + pos_, n);
    pos_ += n;
    return true;
  }
  bool AtEnd() const { return pos_ == size_; }
  size_t pos() const { return pos_; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

// The index's per-process key. Outsiders choose node contents, and so by
// grinding the leading bytes of node hashes; without the key they cannot
// aim those hashes at one run of buckets.
struct IndexKey {
  uint64_t k[4];
};

const IndexKey& Key() {
  static const IndexKey key = [] {
    std::random_device rd;
    IndexKey out;
    for (uint64_t& k : out.k) k = (uint64_t{rd()} << 32) | rd();
    return out;
  }();
  return key;
}

uint64_t Fold(uint64_t a, uint64_t b) {
  unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  return static_cast<uint64_t>(p) ^ static_cast<uint64_t>(p >> 64);
}

// Low 32 bits of a keyed hash over all 32 bytes of a node hash: an index
// entry's tag and, masked, its home bucket.
uint32_t Tag(const Hash32& hash) {
  uint64_t w[4];
  std::memcpy(w, hash.data(), sizeof(w));
  const IndexKey& key = Key();
  return static_cast<uint32_t>(Fold(w[0] ^ key.k[0], w[1] ^ key.k[1]) ^
                               Fold(w[2] ^ key.k[2], w[3] ^ key.k[3]));
}

}  // namespace

NodeStore::NodeStore(std::string path) : path_(std::move(path)) {}

NodeStore::~NodeStore() {
  if (out_ != nullptr) {
    std::fflush(out_);
    std::fclose(out_);
  }
}

uint32_t NodeStore::NewMarksId() {
  static std::atomic<uint64_t> next{1};
  const uint64_t id = next.fetch_add(1, std::memory_order_relaxed);
  return id >> 32 == 0 ? static_cast<uint32_t>(id) : 0;
}

void NodeStore::Reset() {
  marks_ = NewMarksId();
  prune_floor_ = 0;
  slab_.clear();
  free_.clear();
  index_.clear();
  indexed_ = 0;
  live_ = 0;
  retained_.clear();
  pruned_total_ = 0;
  file_bytes_ = 0;
}

Status NodeStore::Open() {
  if (opened_) return Status::OK();
  if (path_.empty()) {
    opened_ = true;
    return Status::OK();
  }
  Status st = OpenImpl();
  if (!st.ok()) {
    // Drop any partially replayed state so this store never serves (or a
    // retried Open() never double-counts) a half-rebuilt index.
    Reset();
    if (out_ != nullptr) {
      std::fclose(out_);
      out_ = nullptr;
    }
    return st;
  }
  opened_ = true;
  return Status::OK();
}

Status NodeStore::OpenImpl() {
  // Replay an existing log, if any. A crash can tear the tail (appends are
  // only flushed per block), so recover the longest valid prefix instead of
  // refusing to open.
  bool torn = false;
  {
    std::ifstream in(path_, std::ios::binary);
    if (in.good()) {
      Bytes data((std::istreambuf_iterator<char>(in)),
                 std::istreambuf_iterator<char>());
      if (data.size() < kMagicLen) {
        // Crash while writing the very first bytes: start over.
        torn = !data.empty();
      } else if (!std::equal(data.begin(), data.begin() + kMagicLen, kMagic)) {
        // A full-size header that is not ours is foreign data, not a torn
        // write — refuse rather than clobber it.
        return Status::InvalidArgument("node store log has bad magic: " +
                                       path_);
      } else {
        LogReader reader(data.data() + kMagicLen, data.size() - kMagicLen);
        size_t replayed = 0;  // offset past the last fully applied record
        std::vector<Hash32> refs;
        while (!reader.AtEnd() && !torn) {
          uint8_t op = 0;
          if (!reader.ReadByte(&op)) {
            torn = true;
            break;
          }
          if (op == 'N') {
            uint32_t enc_len = 0;
            uint32_t ref_count = 0;
            Hash32 hash;
            BytesView enc;
            if (!reader.ReadU32(&enc_len) || !reader.ReadU32(&ref_count) ||
                !reader.ReadHash(&hash) || !reader.ReadView(enc_len, &enc)) {
              torn = true;
              break;
            }
            refs.resize(ref_count);
            bool refs_ok = true;
            for (uint32_t i = 0; i < ref_count; ++i) {
              if (!reader.ReadHash(&refs[i])) {
                refs_ok = false;
                break;
              }
            }
            if (!refs_ok) {
              torn = true;
              break;
            }
            ONOFF_RETURN_NOT_OK(PutImpl(hash, enc, refs, /*journal=*/false));
          } else if (op == 'R') {
            uint64_t height = 0;
            Hash32 root;
            if (!reader.ReadU64(&height) || !reader.ReadHash(&root)) {
              torn = true;
              break;
            }
            ONOFF_RETURN_NOT_OK(RetainImpl(root, height, /*journal=*/false));
          } else if (op == 'P') {
            uint64_t cutoff = 0;
            if (!reader.ReadU64(&cutoff)) {
              torn = true;
              break;
            }
            ONOFF_RETURN_NOT_OK(PruneImpl(cutoff, /*journal=*/false).status());
          } else {
            // Garbage op byte: everything from here on is torn-write debris.
            torn = true;
            break;
          }
          replayed = reader.pos();
        }
        file_bytes_ = kMagicLen + replayed;
      }
    }
  }
  if (torn) {
    ONOFF_LOG(log::Level::kWarn, "storage",
              "node store log %s has a torn tail; recovered %llu bytes",
              path_.c_str(), static_cast<unsigned long long>(file_bytes_));
    std::error_code ec;
    std::filesystem::resize_file(path_, file_bytes_, ec);
    if (ec) {
      return Status::Internal("cannot truncate torn node store log: " + path_);
    }
  }

  out_ = std::fopen(path_.c_str(), "ab");
  if (out_ == nullptr) {
    return Status::Internal("cannot open node store log: " + path_);
  }
  if (file_bytes_ == 0) {
    if (std::fwrite(kMagic, 1, kMagicLen, out_) != kMagicLen) {
      return Status::Internal("cannot write node store header: " + path_);
    }
    file_bytes_ = kMagicLen;
  }
  return Status::OK();
}

Status NodeStore::Flush() {
  if (out_ == nullptr) return Status::OK();
  if (std::fflush(out_) != 0) {
    return Status::Internal("node store log flush failed: " + path_);
  }
#if defined(__unix__) || defined(__APPLE__)
  if (::fsync(fileno(out_)) != 0) {
    return Status::Internal("node store log fsync failed: " + path_);
  }
#endif
  return Status::OK();
}

// ---- Index ----

NodeSlot NodeStore::Lookup(const Hash32& hash) const {
  if (index_.empty()) return kEmptyBucket;
  const size_t mask = index_.size() - 1;
  const uint32_t tag = Tag(hash);
  for (size_t i = tag & mask;; i = (i + 1) & mask) {
    const Bucket& b = index_[i];
    if (b.slot == kEmptyBucket) return kEmptyBucket;
    if (b.tag == tag && slab_[b.slot].hash == hash) return b.slot;
  }
}

void NodeStore::IndexInsert(const Hash32& hash, NodeSlot slot) {
  if ((indexed_ + 1) * 2 > index_.size()) Grow();
  const size_t mask = index_.size() - 1;
  const uint32_t tag = Tag(hash);
  size_t i = tag & mask;
  while (index_[i].slot != kEmptyBucket) i = (i + 1) & mask;
  index_[i] = {slot, tag};
  ++indexed_;
}

void NodeStore::IndexErase(NodeSlot slot) {
  const size_t mask = index_.size() - 1;
  const uint32_t tag = Tag(slab_[slot].hash);
  size_t hole = tag & mask;
  while (index_[hole].slot != slot) hole = (hole + 1) & mask;
  // Backward-shift deletion: pull each later entry of the run into the hole
  // unless its home bucket lies after the hole, so every entry stays
  // reachable from its home without tombstones.
  for (size_t j = (hole + 1) & mask; index_[j].slot != kEmptyBucket;
       j = (j + 1) & mask) {
    const size_t home = index_[j].tag & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole].slot = kEmptyBucket;
  --indexed_;
}

void NodeStore::Grow() {
  std::vector<Bucket> old = std::move(index_);
  index_.assign(std::max<size_t>(1024, old.size() * 2),
                Bucket{kEmptyBucket, 0});
  const size_t mask = index_.size() - 1;
  for (const Bucket& b : old) {
    if (b.slot == kEmptyBucket) continue;
    size_t i = b.tag & mask;
    while (index_[i].slot != kEmptyBucket) i = (i + 1) & mask;
    index_[i] = b;
  }
}

// ---- Slab ----

NodeSlot NodeStore::Allocate(const Hash32& hash, State state) {
  NodeSlot slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<NodeSlot>(slab_.size());
    slab_.emplace_back();
  }
  Record& rec = slab_[slot];
  rec.hash = hash;
  rec.state = state;
  IndexInsert(hash, slot);
  return slot;
}

void NodeStore::Release(NodeSlot slot) {
  IndexErase(slot);
  Record& rec = slab_[slot];
  rec.body.reset();
  rec.nrefs = 0;
  rec.enc_size = 0;
  rec.refcount = 0;
  rec.state = State::kFree;
  free_.push_back(slot);
}

// ---- Reads ----

NodeSlot NodeStore::LiveSlot(const Hash32& hash) const {
  NodeSlot slot = Lookup(hash);
  if (slot == kEmptyBucket || slab_[slot].state != State::kLive) {
    return kEmptyBucket;
  }
  return slot;
}

bool NodeStore::Contains(const Hash32& hash) const {
  return LiveSlot(hash) != kEmptyBucket;
}

Result<Bytes> NodeStore::Get(const Hash32& hash) const {
  NodeSlot slot = LiveSlot(hash);
  if (slot == kEmptyBucket) return Status::NotFound("node not in store");
  const Record& rec = slab_[slot];
  return Bytes(rec.enc(), rec.enc() + rec.enc_size);
}

// ---- Log records ----

Status NodeStore::Append(const Bytes& payload) {
  if (std::fwrite(payload.data(), 1, payload.size(), out_) != payload.size()) {
    return Status::Internal("node store log write failed: " + path_);
  }
  file_bytes_ += payload.size();
  return Status::OK();
}

Status NodeStore::AppendNode(const Hash32& hash, BytesView encoding,
                             std::span<const NodeSlot> refs) {
  if (out_ == nullptr) return Status::OK();  // in-memory: no log
  payload_.clear();
  payload_.push_back('N');
  PutU32(&payload_, static_cast<uint32_t>(encoding.size()));
  PutU32(&payload_, static_cast<uint32_t>(refs.size()));
  payload_.insert(payload_.end(), hash.begin(), hash.end());
  payload_.insert(payload_.end(), encoding.begin(), encoding.end());
  for (NodeSlot ref : refs) {
    const Hash32& h = slab_[ref].hash;
    payload_.insert(payload_.end(), h.begin(), h.end());
  }
  return Append(payload_);
}

Status NodeStore::AppendRetain(const Hash32& root, uint64_t height) {
  if (out_ == nullptr) return Status::OK();  // in-memory: no log
  payload_.clear();
  payload_.push_back('R');
  PutU64(&payload_, height);
  payload_.insert(payload_.end(), root.begin(), root.end());
  return Append(payload_);
}

Status NodeStore::AppendPrune(uint64_t cutoff_height) {
  if (out_ == nullptr) return Status::OK();  // in-memory: no log
  payload_.clear();
  payload_.push_back('P');
  PutU64(&payload_, cutoff_height);
  ONOFF_RETURN_NOT_OK(Append(payload_));
  // A buffered write fails only when the buffer reaches the file, so the
  // mark goes there now, before any root is released.
  if (std::fflush(out_) != 0) {
    file_bytes_ -= payload_.size();
    return Status::Internal("node store log write failed: " + path_);
  }
  return Status::OK();
}

// ---- Writes ----

Result<NodeSlot> NodeStore::StoreImpl(const Hash32& hash, BytesView encoding,
                                      std::span<const NodeSlot> refs,
                                      bool journal) {
  NodeSlot slot = Lookup(hash);
  // Content-addressed: re-storing a live hash is a no-op.
  if (slot != kEmptyBucket && slab_[slot].state == State::kLive) return slot;
  // Journal first: a failed append must leave the in-memory store (and in
  // particular the refcounts below) untouched so a retry starts clean.
  if (journal) {
    Status st = AppendNode(hash, encoding, refs);
    if (!st.ok()) {
      DropUncounted(refs);
      marks_ = NewMarksId();
      return st;
    }
  }
  // A placeholder already counts the references seen before the node.
  if (slot == kEmptyBucket) slot = Allocate(hash, State::kPending);
  Record& rec = slab_[slot];
  rec.state = State::kLive;
  rec.nrefs = static_cast<uint32_t>(refs.size());
  rec.enc_size = static_cast<uint32_t>(encoding.size());
  const size_t words =
      refs.size() + (encoding.size() + sizeof(NodeSlot) - 1) / sizeof(NodeSlot);
  rec.body.reset(new NodeSlot[words]);
  std::copy(refs.begin(), refs.end(), rec.body.get());
  std::copy(encoding.begin(), encoding.end(),
            reinterpret_cast<uint8_t*>(rec.body.get() + refs.size()));
  for (NodeSlot ref : refs) ++slab_[ref].refcount;
  ++live_;
  static obs::Counter* persisted =
      obs::GetCounterOrNull("storage.nodes_persisted");
  if (persisted != nullptr) persisted->Inc();
  return slot;
}

void NodeStore::DropUncounted(std::span<const NodeSlot> refs) {
  for (NodeSlot ref : refs) {
    const Record& rec = slab_[ref];
    if (rec.state == State::kPending && rec.refcount == 0) Release(ref);
  }
}

Status NodeStore::PutImpl(const Hash32& hash, BytesView encoding,
                          std::span<const Hash32> refs, bool journal) {
  if (Contains(hash)) return Status::OK();  // content-addressed: no-op
  ref_slots_.clear();
  for (const Hash32& ref : refs) ref_slots_.push_back(Reference(ref));
  return StoreImpl(hash, encoding, ref_slots_, journal).status();
}

Status NodeStore::Put(const Hash32& hash, BytesView encoding,
                      const std::vector<Hash32>& refs) {
  return PutImpl(hash, encoding, refs, /*journal=*/true);
}

bool NodeStore::Find(const Hash32& hash, NodeSlot* slot) {
  *slot = LiveSlot(hash);
  return *slot != kEmptyBucket;
}

NodeSlot NodeStore::Reference(const Hash32& hash) {
  NodeSlot slot = Lookup(hash);
  return slot != kEmptyBucket ? slot : Allocate(hash, State::kPending);
}

Result<NodeSlot> NodeStore::Store(const Hash32& hash, const Bytes& encoding,
                                  std::span<const NodeSlot> refs) {
  return StoreImpl(hash, encoding, refs, /*journal=*/true);
}

Status NodeStore::RetainImpl(const Hash32& root, uint64_t height,
                             bool journal) {
  // Journal first so a failed append leaves the store unchanged.
  if (journal) {
    Status st = AppendRetain(root, height);
    if (!st.ok()) {
      marks_ = NewMarksId();
      return st;
    }
  }
  NodeSlot slot = Reference(root);
  ++slab_[slot].refcount;
  retained_.emplace(height, slot);
  return Status::OK();
}

Status NodeStore::RetainRoot(const Hash32& root, uint64_t height) {
  return RetainImpl(root, height, /*journal=*/true);
}

void NodeStore::Deref(NodeSlot slot, size_t* freed) {
  Record& rec = slab_[slot];
  if (rec.state == State::kPending) {
    if (rec.refcount > 0 && --rec.refcount == 0) Release(slot);
    return;
  }
  if (rec.refcount > 0) --rec.refcount;
  if (rec.refcount > 0) return;
  std::unique_ptr<NodeSlot[]> body = std::move(rec.body);
  const uint32_t nrefs = rec.nrefs;
  Release(slot);
  --live_;
  ++*freed;
  for (uint32_t i = 0; i < nrefs; ++i) Deref(body[i], freed);
}

Result<size_t> NodeStore::PruneImpl(uint64_t cutoff_height, bool journal) {
  const bool releases =
      !retained_.empty() && retained_.begin()->first < cutoff_height;
  // Journal first, as Put and RetainRoot do: a mark that cannot be written
  // releases nothing.
  if (releases && journal) ONOFF_RETURN_NOT_OK(AppendPrune(cutoff_height));
  prune_floor_ = std::max(prune_floor_, cutoff_height);
  size_t freed = 0;
  while (!retained_.empty() && retained_.begin()->first < cutoff_height) {
    NodeSlot root = retained_.begin()->second;
    retained_.erase(retained_.begin());
    Deref(root, &freed);
  }
  pruned_total_ += freed;
  if (freed > 0) {
    static obs::Counter* pruned = obs::GetCounterOrNull("storage.nodes_pruned");
    if (pruned != nullptr) pruned->Inc(freed);
  }
  return freed;
}

Result<size_t> NodeStore::PruneBelow(uint64_t cutoff_height) {
  return PruneImpl(cutoff_height, /*journal=*/true);
}

Result<std::optional<Bytes>> NodeStore::LookupSecure(const Hash32& root,
                                                     BytesView key) const {
  if (root == SharedTrie::EmptyRoot()) return std::optional<Bytes>(std::nullopt);
  Hash32 hashed = Keccak256(key);
  return WalkEncodedNodes(root, BytesView(hashed.data(), hashed.size()),
                          [this](const Hash32& hash) { return Get(hash); });
}

Status NodeStore::Compact() {
  if (path_.empty()) return Status::OK();
  std::string tmp = path_ + ".compact";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.good()) return Status::Internal("cannot write " + tmp);
    out.write(kMagic, kMagicLen);
    uint64_t bytes = kMagicLen;
    auto write = [&out, &bytes](const Bytes& payload) {
      out.write(reinterpret_cast<const char*>(payload.data()),
                static_cast<std::streamsize>(payload.size()));
      bytes += payload.size();
    };
    // Slab order, which follows the operations alone and not the index key.
    for (const Record& rec : slab_) {
      if (rec.state != State::kLive) continue;
      payload_.clear();
      payload_.push_back('N');
      PutU32(&payload_, rec.enc_size);
      PutU32(&payload_, rec.nrefs);
      payload_.insert(payload_.end(), rec.hash.begin(), rec.hash.end());
      payload_.insert(payload_.end(), rec.enc(), rec.enc() + rec.enc_size);
      for (uint32_t i = 0; i < rec.nrefs; ++i) {
        const Hash32& ref = slab_[rec.refs()[i]].hash;
        payload_.insert(payload_.end(), ref.begin(), ref.end());
      }
      write(payload_);
    }
    for (const auto& [height, root] : retained_) {
      payload_.clear();
      payload_.push_back('R');
      PutU64(&payload_, height);
      const Hash32& hash = slab_[root].hash;
      payload_.insert(payload_.end(), hash.begin(), hash.end());
      write(payload_);
    }
    if (!out.good()) return Status::Internal("compaction write failed");
    file_bytes_ = bytes;
  }
  if (out_ != nullptr) {
    std::fclose(out_);
    out_ = nullptr;
  }
  if (std::rename(tmp.c_str(), path_.c_str()) != 0) {
    return Status::Internal("compaction rename failed");
  }
  out_ = std::fopen(path_.c_str(), "ab");
  if (out_ == nullptr) {
    return Status::Internal("cannot reopen node store log: " + path_);
  }
  return Flush();
}

}  // namespace onoff::storage
