#include "abi/abi.h"

#include "crypto/keccak.h"

namespace onoff::abi {

namespace {

bool IsDynamic(Type t) { return t == Type::kBytes; }

// Appends `data` right-padded with zeros to a word boundary.
void AppendPadded(Bytes& out, BytesView data) {
  Append(out, data);
  size_t pad = (32 - data.size() % 32) % 32;
  out.insert(out.end(), pad, 0);
}

}  // namespace

Selector SelectorOf(std::string_view signature) {
  Hash32 h = Keccak256(BytesOf(signature));
  return {h[0], h[1], h[2], h[3]};
}

uint32_t SelectorWord(std::string_view signature) {
  Selector sel = SelectorOf(signature);
  return *SelectorWord(BytesView(sel.data(), sel.size()));
}

std::optional<uint32_t> SelectorWord(BytesView calldata) {
  if (calldata.size() < 4) return std::nullopt;
  return (uint32_t{calldata[0]} << 24) | (uint32_t{calldata[1]} << 16) |
         (uint32_t{calldata[2]} << 8) | uint32_t{calldata[3]};
}

Bytes EncodeArgs(const std::vector<Value>& args) {
  // Head: one word per argument (value or tail offset). Tail: dynamic data.
  size_t head_size = args.size() * 32;
  Bytes head;
  Bytes tail;
  for (const Value& arg : args) {
    if (IsDynamic(arg.type())) {
      U256 offset(head_size + tail.size());
      Bytes w = offset.ToBytes();
      Append(head, w);
      Bytes len = U256(arg.bytes().size()).ToBytes();
      Append(tail, len);
      AppendPadded(tail, arg.bytes());
    } else {
      Bytes w = arg.word().ToBytes();
      Append(head, w);
    }
  }
  Append(head, tail);
  return head;
}

Bytes EncodeCall(std::string_view signature, const std::vector<Value>& args) {
  Selector sel = SelectorOf(signature);
  Bytes out(sel.begin(), sel.end());
  Bytes encoded = EncodeArgs(args);
  Append(out, encoded);
  return out;
}

Result<std::vector<Value>> DecodeArgs(BytesView data,
                                      const std::vector<Type>& types) {
  if (data.size() < types.size() * 32) {
    return Status::InvalidArgument("ABI data shorter than head");
  }
  std::vector<Value> out;
  out.reserve(types.size());
  for (size_t i = 0; i < types.size(); ++i) {
    U256 word = U256::FromBigEndianTruncating(data.subspan(i * 32, 32));
    switch (types[i]) {
      case Type::kUint256:
        out.push_back(Value::Uint(word));
        break;
      case Type::kAddress:
        out.push_back(Value::Addr(Address::FromWord(word)));
        break;
      case Type::kBool:
        out.push_back(Value::Bool(!word.IsZero()));
        break;
      case Type::kBytes32:
        out.push_back(Value::Bytes32(word));
        break;
      case Type::kBytes: {
        if (!word.FitsUint64() || word.low64() + 32 > data.size()) {
          return Status::InvalidArgument("ABI bytes offset out of range");
        }
        uint64_t off = word.low64();
        U256 len_word = U256::FromBigEndianTruncating(data.subspan(off, 32));
        if (!len_word.FitsUint64() ||
            off + 32 + len_word.low64() > data.size()) {
          return Status::InvalidArgument("ABI bytes length out of range");
        }
        Bytes payload(data.begin() + off + 32,
                      data.begin() + off + 32 + len_word.low64());
        out.push_back(Value::DynBytes(std::move(payload)));
        break;
      }
    }
  }
  return out;
}

Result<Value> DecodeOne(BytesView data, Type type) {
  ONOFF_ASSIGN_OR_RETURN(std::vector<Value> vals, DecodeArgs(data, {type}));
  return vals[0];
}

}  // namespace onoff::abi
