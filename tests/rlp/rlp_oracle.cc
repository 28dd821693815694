#include "rlp/rlp_oracle.h"

namespace onoff::rlp::oracle {

namespace {

// Big-endian minimal encoding of a length.
Bytes LengthBytes(size_t len) {
  Bytes out;
  while (len > 0) {
    out.insert(out.begin(), static_cast<uint8_t>(len & 0xff));
    len >>= 8;
  }
  return out;
}

void EncodeLength(size_t len, uint8_t short_base, uint8_t long_base,
                  Bytes& out) {
  if (len <= 55) {
    out.push_back(static_cast<uint8_t>(short_base + len));
  } else {
    Bytes lb = LengthBytes(len);
    out.push_back(static_cast<uint8_t>(long_base + lb.size()));
    Append(out, lb);
  }
}

}  // namespace

Bytes Encode(const Item& item) {
  if (item.IsString()) {
    const Bytes& s = item.string();
    if (s.size() == 1 && s[0] <= 0x7f) return s;
    Bytes out;
    EncodeLength(s.size(), 0x80, 0xb7, out);
    Append(out, s);
    return out;
  }
  Bytes payload;
  for (const Item& child : item.list()) {
    Append(payload, Encode(child));
  }
  Bytes out;
  EncodeLength(payload.size(), 0xc0, 0xf7, out);
  Append(out, payload);
  return out;
}

Bytes EncodeString(BytesView data) { return Encode(Item::String(data)); }

Bytes EncodeList(const std::vector<Bytes>& encoded_children) {
  Bytes payload;
  for (const Bytes& child : encoded_children) Append(payload, child);
  Bytes out;
  EncodeLength(payload.size(), 0xc0, 0xf7, out);
  Append(out, payload);
  return out;
}

}  // namespace onoff::rlp::oracle
