// Recursive Length Prefix (RLP) encoding — Ethereum's canonical
// serialization for transactions, blocks, trie nodes and account records.
//
// `Writer` is the library's one encoder: it appends items straight into one
// buffer. `Item` is the decoder's data model (what `Decode` returns).

#ifndef ONOFFCHAIN_RLP_RLP_H_
#define ONOFFCHAIN_RLP_RLP_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "support/bytes.h"
#include "support/status.h"
#include "support/u256.h"

namespace onoff::rlp {

// Appends RLP items to one buffer. Strings and scalars go straight in; a
// list is opened with BeginList and closed with EndList, which writes the
// list's header in front of its payload (moving the payload only when it is
// longer than 55 bytes). Lists nest: close them in the reverse order.
class Writer {
 public:
  explicit Writer(Bytes* out) : out_(*out) {}

  void String(BytesView s);
  // Big-endian minimal integer (Ethereum "scalar" convention: 0 -> empty).
  void Scalar(uint64_t v);
  void Scalar(const U256& v);
  // Appends one item that is already encoded (an embedded trie node).
  void Raw(BytesView encoded) {
    out_.insert(out_.end(), encoded.begin(), encoded.end());
  }
  // Opens a list; returns the mark EndList closes it with.
  size_t BeginList() {
    out_.push_back(0);  // the header's first byte, written by EndList
    return out_.size() - 1;
  }
  void EndList(size_t mark);

  // Encoded sizes, for callers that reserve exactly. HeaderSize is the
  // header of a string or a list of `len` payload bytes.
  static size_t HeaderSize(size_t len);
  static size_t StringSize(BytesView s) {
    if (s.size() == 1 && s[0] <= 0x7f) return 1;
    return HeaderSize(s.size()) + s.size();
  }
  static size_t ListSize(size_t payload) {
    return HeaderSize(payload) + payload;
  }

 private:
  // Appends the header of a string (base 0x80) or list (base 0xc0).
  void Header(size_t len, uint8_t base);

  Bytes& out_;
};

// An RLP item is either a byte string or a list of items: what Decode
// returns.
class Item {
 public:
  enum class Kind { kString, kList };

  // Byte-string item.
  static Item String(Bytes data) {
    Item it(Kind::kString);
    it.string_ = std::move(data);
    return it;
  }
  static Item String(BytesView data) {
    return String(Bytes(data.begin(), data.end()));
  }
  static Item String(std::string_view s) { return String(BytesOf(s)); }
  // Big-endian minimal integer (Ethereum "scalar" convention: 0 -> empty).
  static Item Scalar(const U256& v) { return String(v.ToBigEndianTrimmed()); }
  static Item Scalar(uint64_t v) { return Scalar(U256(v)); }
  // List item.
  static Item List(std::vector<Item> items) {
    Item it(Kind::kList);
    it.list_ = std::move(items);
    return it;
  }

  Kind kind() const { return kind_; }
  bool IsString() const { return kind_ == Kind::kString; }
  bool IsList() const { return kind_ == Kind::kList; }

  const Bytes& string() const { return string_; }
  const std::vector<Item>& list() const { return list_; }

  // Interprets a string item as a big-endian scalar (must be <= 32 bytes,
  // no leading zero byte per Ethereum's canonical scalar rule).
  Result<U256> AsScalar() const;
  Result<uint64_t> AsUint64() const;

  bool operator==(const Item& o) const {
    if (kind_ != o.kind_) return false;
    return kind_ == Kind::kString ? string_ == o.string_ : list_ == o.list_;
  }

 private:
  explicit Item(Kind kind) : kind_(kind) {}

  Kind kind_;
  Bytes string_;
  std::vector<Item> list_;
};

// Parses exactly one item consuming the whole input.
Result<Item> Decode(BytesView data);

}  // namespace onoff::rlp

#endif  // ONOFFCHAIN_RLP_RLP_H_
