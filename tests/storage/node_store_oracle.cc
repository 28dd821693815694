#include "storage/node_store_oracle.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "obs/metrics.h"
#include "storage/shared_trie.h"
#include "support/log.h"

namespace onoff::storage::oracle {

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
  bool ReadBytes(size_t n, Bytes* out) {
    if (pos_ + n > size_) return false;
    out->assign(data_ + pos_, data_ + pos_ + n);
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

}  // namespace

NodeStore::~NodeStore() {
  if (out_ != nullptr) {
    std::fflush(out_);
    std::fclose(out_);
  }
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
    nodes_.clear();
    pending_refs_.clear();
    retained_.clear();
    file_bytes_ = 0;
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
            Bytes enc;
            if (!reader.ReadU32(&enc_len) || !reader.ReadU32(&ref_count) ||
                !reader.ReadHash(&hash) || !reader.ReadBytes(enc_len, &enc)) {
              torn = true;
              break;
            }
            std::vector<Hash32> refs(ref_count);
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
            PruneImpl(cutoff, /*journal=*/false);
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

bool NodeStore::Contains(const Hash32& hash) const {
  return nodes_.find(hash) != nodes_.end();
}

Result<Bytes> NodeStore::Get(const Hash32& hash) const {
  auto it = nodes_.find(hash);
  if (it == nodes_.end()) return Status::NotFound("node not in store");
  return it->second.enc;
}

Status NodeStore::Append(const Bytes& payload) {
  if (std::fwrite(payload.data(), 1, payload.size(), out_) != payload.size()) {
    return Status::Internal("node store log write failed: " + path_);
  }
  file_bytes_ += payload.size();
  return Status::OK();
}

Status NodeStore::AppendNode(const Hash32& hash, const Record& rec) {
  if (out_ == nullptr) return Status::OK();  // in-memory: no log
  Bytes payload;
  payload.push_back('N');
  PutU32(&payload, static_cast<uint32_t>(rec.enc.size()));
  PutU32(&payload, static_cast<uint32_t>(rec.refs.size()));
  payload.insert(payload.end(), hash.begin(), hash.end());
  payload.insert(payload.end(), rec.enc.begin(), rec.enc.end());
  for (const Hash32& ref : rec.refs) {
    payload.insert(payload.end(), ref.begin(), ref.end());
  }
  return Append(payload);
}

Status NodeStore::AppendRetain(const Hash32& root, uint64_t height) {
  if (out_ == nullptr) return Status::OK();  // in-memory: no log
  Bytes payload;
  payload.push_back('R');
  PutU64(&payload, height);
  payload.insert(payload.end(), root.begin(), root.end());
  return Append(payload);
}

Status NodeStore::AppendPrune(uint64_t cutoff_height) {
  if (out_ == nullptr) return Status::OK();  // in-memory: no log
  Bytes payload;
  payload.push_back('P');
  PutU64(&payload, cutoff_height);
  return Append(payload);
}

Status NodeStore::PutImpl(const Hash32& hash, BytesView encoding,
                          const std::vector<Hash32>& refs, bool journal) {
  if (Contains(hash)) return Status::OK();  // content-addressed: no-op
  Record rec;
  rec.enc.assign(encoding.begin(), encoding.end());
  rec.refs = refs;
  // Journal first: a failed append must leave the in-memory store (and in
  // particular the refcounts below) untouched so a retry starts clean.
  if (journal) ONOFF_RETURN_NOT_OK(AppendNode(hash, rec));
  // References counted before this record arrived (replay order freedom).
  auto pending = pending_refs_.find(hash);
  if (pending != pending_refs_.end()) {
    rec.refcount = pending->second;
    pending_refs_.erase(pending);
  }
  for (const Hash32& ref : refs) {
    auto it = nodes_.find(ref);
    if (it != nodes_.end()) {
      ++it->second.refcount;
    } else {
      ++pending_refs_[ref];
    }
  }
  nodes_.emplace(hash, std::move(rec));
  static obs::Counter* persisted =
      obs::GetCounterOrNull("storage.nodes_persisted");
  if (persisted != nullptr) persisted->Inc();
  return Status::OK();
}

Status NodeStore::Put(const Hash32& hash, BytesView encoding,
                      const std::vector<Hash32>& refs) {
  return PutImpl(hash, encoding, refs, /*journal=*/true);
}

Status NodeStore::RetainImpl(const Hash32& root, uint64_t height,
                             bool journal) {
  // Journal first so a failed append leaves the store unchanged.
  if (journal) ONOFF_RETURN_NOT_OK(AppendRetain(root, height));
  auto it = nodes_.find(root);
  if (it != nodes_.end()) {
    ++it->second.refcount;
  } else {
    ++pending_refs_[root];
  }
  retained_.emplace(height, root);
  return Status::OK();
}

Status NodeStore::RetainRoot(const Hash32& root, uint64_t height) {
  return RetainImpl(root, height, /*journal=*/true);
}

void NodeStore::Deref(const Hash32& hash, size_t* freed) {
  auto it = nodes_.find(hash);
  if (it == nodes_.end()) {
    auto pending = pending_refs_.find(hash);
    if (pending != pending_refs_.end() && --pending->second == 0) {
      pending_refs_.erase(pending);
    }
    return;
  }
  if (it->second.refcount > 0) --it->second.refcount;
  if (it->second.refcount > 0) return;
  std::vector<Hash32> refs = std::move(it->second.refs);
  nodes_.erase(it);
  ++*freed;
  for (const Hash32& ref : refs) Deref(ref, freed);
}

size_t NodeStore::PruneImpl(uint64_t cutoff_height, bool journal) {
  size_t freed = 0;
  bool released = false;
  while (!retained_.empty() && retained_.begin()->first < cutoff_height) {
    Hash32 root = retained_.begin()->second;
    retained_.erase(retained_.begin());
    Deref(root, &freed);
    released = true;
  }
  if (released && journal) {
    Status st = AppendPrune(cutoff_height);
    (void)st;  // a failed prune mark leaves extra live data, never corruption
  }
  pruned_total_ += freed;
  if (freed > 0) {
    static obs::Counter* pruned = obs::GetCounterOrNull("storage.nodes_pruned");
    if (pruned != nullptr) pruned->Inc(freed);
  }
  return freed;
}

size_t NodeStore::PruneBelow(uint64_t cutoff_height) {
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
    for (const auto& [hash, rec] : nodes_) {
      Bytes payload;
      payload.push_back('N');
      PutU32(&payload, static_cast<uint32_t>(rec.enc.size()));
      PutU32(&payload, static_cast<uint32_t>(rec.refs.size()));
      payload.insert(payload.end(), hash.begin(), hash.end());
      payload.insert(payload.end(), rec.enc.begin(), rec.enc.end());
      for (const Hash32& ref : rec.refs) {
        payload.insert(payload.end(), ref.begin(), ref.end());
      }
      out.write(reinterpret_cast<const char*>(payload.data()),
                static_cast<std::streamsize>(payload.size()));
      bytes += payload.size();
    }
    for (const auto& [height, root] : retained_) {
      Bytes payload;
      payload.push_back('R');
      PutU64(&payload, height);
      payload.insert(payload.end(), root.begin(), root.end());
      out.write(reinterpret_cast<const char*>(payload.data()),
                static_cast<std::streamsize>(payload.size()));
      bytes += payload.size();
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

}  // namespace onoff::storage::oracle
