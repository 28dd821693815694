#include "rlp/rlp.h"

#include <array>
#include <cstddef>

namespace onoff::rlp {

namespace {

// Bytes in the big-endian minimal encoding of `v` (0 for 0).
size_t ByteLength(uint64_t v) {
  size_t n = 0;
  for (; v != 0; v >>= 8) ++n;
  return n;
}

// Writes the `n` low bytes of `v`, big-endian, to `out`.
void PutBigEndian(uint64_t v, size_t n, uint8_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = static_cast<uint8_t>(v >> (8 * (n - 1 - i)));
  }
}

struct Cursor {
  BytesView data;
  size_t pos = 0;

  bool AtEnd() const { return pos >= data.size(); }
  size_t Remaining() const { return data.size() - pos; }
};

Result<Item> DecodeItem(Cursor& cur);

Result<size_t> ReadLongLength(Cursor& cur, size_t num_bytes) {
  if (num_bytes == 0 || num_bytes > 8) {
    return Status::InvalidArgument("RLP: bad long-length size");
  }
  if (cur.Remaining() < num_bytes) {
    return Status::InvalidArgument("RLP: truncated long length");
  }
  if (cur.data[cur.pos] == 0) {
    return Status::InvalidArgument("RLP: long length has leading zero");
  }
  size_t len = 0;
  for (size_t i = 0; i < num_bytes; ++i) {
    len = (len << 8) | cur.data[cur.pos + i];
  }
  cur.pos += num_bytes;
  if (len <= 55) {
    return Status::InvalidArgument("RLP: non-canonical long length");
  }
  return len;
}

Result<Item> DecodeItem(Cursor& cur) {
  if (cur.AtEnd()) return Status::InvalidArgument("RLP: empty input");
  uint8_t prefix = cur.data[cur.pos++];

  if (prefix <= 0x7f) {
    // Single byte, itself.
    return Item::String(Bytes{prefix});
  }
  if (prefix <= 0xb7) {
    size_t len = prefix - 0x80;
    if (cur.Remaining() < len) {
      return Status::InvalidArgument("RLP: truncated string");
    }
    Bytes s(cur.data.begin() + cur.pos, cur.data.begin() + cur.pos + len);
    cur.pos += len;
    if (len == 1 && s[0] <= 0x7f) {
      return Status::InvalidArgument("RLP: non-canonical single byte");
    }
    return Item::String(std::move(s));
  }
  if (prefix <= 0xbf) {
    ONOFF_ASSIGN_OR_RETURN(size_t len, ReadLongLength(cur, prefix - 0xb7));
    if (cur.Remaining() < len) {
      return Status::InvalidArgument("RLP: truncated long string");
    }
    Bytes s(cur.data.begin() + cur.pos, cur.data.begin() + cur.pos + len);
    cur.pos += len;
    return Item::String(std::move(s));
  }
  // List.
  size_t payload_len;
  if (prefix <= 0xf7) {
    payload_len = prefix - 0xc0;
  } else {
    ONOFF_ASSIGN_OR_RETURN(payload_len, ReadLongLength(cur, prefix - 0xf7));
  }
  if (cur.Remaining() < payload_len) {
    return Status::InvalidArgument("RLP: truncated list");
  }
  size_t end = cur.pos + payload_len;
  std::vector<Item> items;
  while (cur.pos < end) {
    Cursor sub{cur.data.subspan(0, end), cur.pos};
    ONOFF_ASSIGN_OR_RETURN(Item child, DecodeItem(sub));
    cur.pos = sub.pos;
    items.push_back(std::move(child));
  }
  if (cur.pos != end) {
    return Status::InvalidArgument("RLP: list payload overrun");
  }
  return Item::List(std::move(items));
}

}  // namespace

Result<U256> Item::AsScalar() const {
  if (!IsString()) return Status::InvalidArgument("RLP: scalar must be string");
  if (string_.size() > 32) {
    return Status::InvalidArgument("RLP: scalar exceeds 32 bytes");
  }
  if (!string_.empty() && string_[0] == 0) {
    return Status::InvalidArgument("RLP: scalar has leading zero");
  }
  return U256::FromBigEndianTruncating(string_);
}

Result<uint64_t> Item::AsUint64() const {
  ONOFF_ASSIGN_OR_RETURN(U256 v, AsScalar());
  if (!v.FitsUint64()) return Status::OutOfRange("RLP: scalar exceeds uint64");
  return v.low64();
}

size_t Writer::HeaderSize(size_t len) {
  return len <= 55 ? 1 : 1 + ByteLength(len);
}

void Writer::Header(size_t len, uint8_t base) {
  if (len <= 55) {
    out_.push_back(static_cast<uint8_t>(base + len));
    return;
  }
  uint8_t buf[9];
  const size_t n = ByteLength(len);
  buf[0] = static_cast<uint8_t>(base + 55 + n);
  PutBigEndian(len, n, buf + 1);
  out_.insert(out_.end(), buf, buf + 1 + n);
}

void Writer::String(BytesView s) {
  if (s.size() == 1 && s[0] <= 0x7f) {
    out_.push_back(s[0]);
    return;
  }
  Header(s.size(), 0x80);
  out_.insert(out_.end(), s.begin(), s.end());
}

void Writer::Scalar(uint64_t v) {
  if (v != 0 && v <= 0x7f) {
    out_.push_back(static_cast<uint8_t>(v));
    return;
  }
  uint8_t buf[9];
  const size_t n = ByteLength(v);
  buf[0] = static_cast<uint8_t>(0x80 + n);
  PutBigEndian(v, n, buf + 1);
  out_.insert(out_.end(), buf, buf + 1 + n);
}

void Writer::Scalar(const U256& v) {
  if (v.FitsUint64()) {
    Scalar(v.low64());
    return;
  }
  const std::array<uint8_t, 32> be = v.ToBigEndian();
  size_t skip = 0;
  while (be[skip] == 0) ++skip;  // v >= 2^64: a non-zero byte exists
  String(BytesView(be.data() + skip, be.size() - skip));
}

void Writer::EndList(size_t mark) {
  const size_t len = out_.size() - mark - 1;
  if (len <= 55) {
    out_[mark] = static_cast<uint8_t>(0xc0 + len);
    return;
  }
  uint8_t buf[8];
  const size_t n = ByteLength(len);
  out_[mark] = static_cast<uint8_t>(0xf7 + n);
  PutBigEndian(len, n, buf);
  out_.insert(out_.begin() + static_cast<std::ptrdiff_t>(mark) + 1, buf,
              buf + n);
}

Result<Item> Decode(BytesView data) {
  Cursor cur{data, 0};
  ONOFF_ASSIGN_OR_RETURN(Item item, DecodeItem(cur));
  if (!cur.AtEnd()) {
    return Status::InvalidArgument("RLP: trailing bytes after item");
  }
  return item;
}

}  // namespace onoff::rlp
