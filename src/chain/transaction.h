// Signed transactions (pre-EIP-155 format, as the paper's era tooling used):
// RLP([nonce, gasPrice, gasLimit, to, value, data]) is hashed for signing,
// RLP([... , v, r, s]) is the wire format and transaction hash preimage.

#ifndef ONOFFCHAIN_CHAIN_TRANSACTION_H_
#define ONOFFCHAIN_CHAIN_TRANSACTION_H_

#include <cstdint>
#include <optional>

#include "crypto/keccak.h"
#include "crypto/secp256k1.h"
#include "support/address.h"
#include "support/bytes.h"
#include "support/status.h"
#include "support/u256.h"

namespace onoff::chain {

class Transaction {
 public:
  Transaction() = default;

  uint64_t nonce = 0;
  U256 gas_price;
  uint64_t gas_limit = 0;
  // nullopt = contract-creation transaction.
  std::optional<Address> to;
  U256 value;
  Bytes data;
  secp256k1::Signature signature;

  bool IsContractCreation() const { return !to.has_value(); }

  // keccak of the unsigned RLP — what gets signed.
  Hash32 SigningHash() const;
  // keccak of the signed RLP — the transaction id.
  Hash32 Hash() const;
  // Full signed RLP encoding.
  Bytes Encode() const;
  static Result<Transaction> Decode(BytesView rlp_data);

  // Signs in place with `key`.
  void Sign(const secp256k1::PrivateKey& key);
  // Recovers the sender from the signature; fails on unsigned/garbage and
  // on s > n/2 (EIP-2, so a signature has exactly one valid form).
  // The first successful recovery is memoized keyed by (signing hash,
  // signature), so mutating any signed field or the signature invalidates
  // the cache automatically, and copies carry the warm cache with them
  // (pool/block copies never re-run ECDSA). Distinct objects may recover
  // concurrently; concurrent calls on one object are not synchronized.
  Result<Address> Sender() const;

  // Intrinsic gas: 21000 + calldata bytes (4 per zero, 68 per non-zero)
  // + 32000 for contract creation.
  uint64_t IntrinsicGas() const;

 private:
  // Sender() memo; mutable because recovery is logically const.
  mutable bool sender_cached_ = false;
  mutable Hash32 sender_digest_{};
  mutable secp256k1::Signature sender_sig_;
  mutable Address sender_;
};

}  // namespace onoff::chain

#endif  // ONOFFCHAIN_CHAIN_TRANSACTION_H_
