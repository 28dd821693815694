#include "chain/transaction.h"

#include "evm/gas.h"
#include "obs/metrics.h"
#include "rlp/rlp.h"

namespace onoff::chain {

namespace {

std::vector<rlp::Item> UnsignedFields(const Transaction& tx) {
  std::vector<rlp::Item> fields;
  fields.push_back(rlp::Item::Scalar(tx.nonce));
  fields.push_back(rlp::Item::Scalar(tx.gas_price));
  fields.push_back(rlp::Item::Scalar(tx.gas_limit));
  fields.push_back(tx.to.has_value() ? rlp::Item::String(tx.to->view())
                                     : rlp::Item::String(Bytes{}));
  fields.push_back(rlp::Item::Scalar(tx.value));
  fields.push_back(rlp::Item::String(tx.data));
  return fields;
}

}  // namespace

Hash32 Transaction::SigningHash() const {
  return Keccak256(rlp::Encode(rlp::Item::List(UnsignedFields(*this))));
}

Bytes Transaction::Encode() const {
  std::vector<rlp::Item> fields = UnsignedFields(*this);
  fields.push_back(rlp::Item::Scalar(U256(signature.v)));
  fields.push_back(rlp::Item::Scalar(signature.r));
  fields.push_back(rlp::Item::Scalar(signature.s));
  return rlp::Encode(rlp::Item::List(std::move(fields)));
}

Hash32 Transaction::Hash() const { return Keccak256(Encode()); }

Result<Transaction> Transaction::Decode(BytesView rlp_data) {
  ONOFF_ASSIGN_OR_RETURN(rlp::Item item, rlp::Decode(rlp_data));
  if (!item.IsList() || item.list().size() != 9) {
    return Status::InvalidArgument("transaction RLP must be a 9-item list");
  }
  const auto& f = item.list();
  Transaction tx;
  ONOFF_ASSIGN_OR_RETURN(U256 nonce, f[0].AsScalar());
  if (!nonce.FitsUint64()) return Status::OutOfRange("nonce too large");
  tx.nonce = nonce.low64();
  ONOFF_ASSIGN_OR_RETURN(tx.gas_price, f[1].AsScalar());
  ONOFF_ASSIGN_OR_RETURN(U256 gas_limit, f[2].AsScalar());
  if (!gas_limit.FitsUint64()) return Status::OutOfRange("gas limit too large");
  tx.gas_limit = gas_limit.low64();
  if (!f[3].IsString()) return Status::InvalidArgument("bad to-field");
  if (f[3].string().empty()) {
    tx.to = std::nullopt;
  } else {
    ONOFF_ASSIGN_OR_RETURN(Address to, Address::FromBytes(f[3].string()));
    tx.to = to;
  }
  ONOFF_ASSIGN_OR_RETURN(tx.value, f[4].AsScalar());
  if (!f[5].IsString()) return Status::InvalidArgument("bad data field");
  tx.data = f[5].string();
  ONOFF_ASSIGN_OR_RETURN(U256 v, f[6].AsScalar());
  if (!v.FitsUint64() || v.low64() > 255) {
    return Status::InvalidArgument("bad signature v");
  }
  tx.signature.v = static_cast<uint8_t>(v.low64());
  ONOFF_ASSIGN_OR_RETURN(tx.signature.r, f[7].AsScalar());
  ONOFF_ASSIGN_OR_RETURN(tx.signature.s, f[8].AsScalar());
  return tx;
}

void Transaction::Sign(const secp256k1::PrivateKey& key) {
  auto sig = secp256k1::Sign(SigningHash(), key);
  // Sign only fails on out-of-range keys, which PrivateKey precludes.
  signature = *sig;
}

Result<Address> Transaction::Sender() const {
  static obs::Counter* hits = obs::GetCounterOrNull("chain.sender_cache_hits");
  static obs::Counter* misses =
      obs::GetCounterOrNull("chain.sender_cache_misses");
  // EIP-2: s must be at most n/2. Otherwise anyone could relay the copy
  // (r, n - s, 55 - v), which recovers the same sender under a different
  // transaction hash. Recovery itself (and so `ecrecover`) accepts both.
  static const U256 kHalfN = secp256k1::GroupOrder() >> 1;
  if (signature.s > kHalfN) {
    return Status::VerificationFailed("transaction signature s above n/2");
  }
  // The signing hash is the invalidation key: any mutation of a signed field
  // changes it, so a stale memo can never be returned. Hashing is orders of
  // magnitude cheaper than the ECDSA recovery it short-circuits.
  Hash32 digest = SigningHash();
  if (sender_cached_ && digest == sender_digest_ && signature == sender_sig_) {
    if (hits != nullptr) hits->Inc();
    return sender_;
  }
  if (misses != nullptr) misses->Inc();
  ONOFF_ASSIGN_OR_RETURN(Address sender,
                         secp256k1::RecoverAddress(digest, signature.v,
                                                   signature.r, signature.s));
  sender_cached_ = true;
  sender_digest_ = digest;
  sender_sig_ = signature;
  sender_ = sender;
  return sender;
}

uint64_t Transaction::IntrinsicGas() const {
  uint64_t total = evm::gas::kTx;
  if (IsContractCreation()) total += evm::gas::kTxCreate;
  for (uint8_t b : data) {
    total += b == 0 ? evm::gas::kTxDataZero : evm::gas::kTxDataNonZero;
  }
  return total;
}

}  // namespace onoff::chain
