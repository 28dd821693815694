// Ethereum contract ABI: 4-byte function selectors and the standard
// head/tail argument encoding for the types this system uses
// (uint256, address, bool, bytes32, dynamic bytes).
//
// `deployVerifiedInstance(bytes,uint8,bytes32,bytes32,uint8,bytes32,bytes32)`
// — the paper's central extra function — takes a dynamic `bytes` (the signed
// off-chain bytecode), so dynamic encoding is load-bearing here.

#ifndef ONOFFCHAIN_ABI_ABI_H_
#define ONOFFCHAIN_ABI_ABI_H_

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/address.h"
#include "support/bytes.h"
#include "support/status.h"
#include "support/u256.h"

namespace onoff::abi {

enum class Type {
  kUint256,  // also uint8/uint64/... (all encode as one word)
  kAddress,
  kBool,
  kBytes32,
  kBytes,    // dynamic
};

// A typed ABI value.
class Value {
 public:
  static Value Uint(const U256& v) { return Value(Type::kUint256, v, {}); }
  static Value Uint(uint64_t v) { return Uint(U256(v)); }
  static Value Addr(const Address& a) {
    return Value(Type::kAddress, a.ToWord(), {});
  }
  static Value Bool(bool b) {
    return Value(Type::kBool, U256(b ? 1 : 0), {});
  }
  static Value Bytes32(const U256& v) { return Value(Type::kBytes32, v, {}); }
  static Value DynBytes(onoff::Bytes data) {
    return Value(Type::kBytes, U256(), std::move(data));
  }

  Type type() const { return type_; }
  const U256& word() const { return word_; }
  const onoff::Bytes& bytes() const { return bytes_; }

  // Typed accessors (assert-free; callers know the schema they decoded).
  U256 AsUint() const { return word_; }
  Address AsAddress() const { return Address::FromWord(word_); }
  bool AsBool() const { return !word_.IsZero(); }
  const onoff::Bytes& AsBytes() const { return bytes_; }

 private:
  Value(Type type, U256 word, onoff::Bytes bytes)
      : type_(type), word_(word), bytes_(std::move(bytes)) {}

  Type type_;
  U256 word_;
  onoff::Bytes bytes_;
};

using Selector = std::array<uint8_t, 4>;

// keccak256("name(type,...)")[0..4).
Selector SelectorOf(std::string_view signature);

// The selector as the big-endian word a dispatcher compares (the analyzer's
// FunctionReport::selector): of a signature, or of calldata's first four
// bytes (nullopt when the calldata is shorter).
uint32_t SelectorWord(std::string_view signature);
std::optional<uint32_t> SelectorWord(BytesView calldata);

// Head/tail-encodes the arguments (no selector).
Bytes EncodeArgs(const std::vector<Value>& args);

// Selector plus encoded arguments: ready-to-send calldata.
Bytes EncodeCall(std::string_view signature, const std::vector<Value>& args);

// Decodes `data` (no selector) against a type schema.
Result<std::vector<Value>> DecodeArgs(BytesView data,
                                      const std::vector<Type>& types);

// Decodes a single return value.
Result<Value> DecodeOne(BytesView data, Type type);

}  // namespace onoff::abi

#endif  // ONOFFCHAIN_ABI_ABI_H_
