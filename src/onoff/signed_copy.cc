#include "onoff/signed_copy.h"

#include "obs/metrics.h"
#include "rlp/rlp.h"
#include "support/thread_pool.h"

namespace onoff::core {

Status SignedCopy::AddSignature(const secp256k1::PrivateKey& key) {
  if (audit_enabled_) {
    ONOFF_RETURN_NOT_OK(analysis::AuditForSigning(bytecode_, audit_options_));
  }
  ONOFF_ASSIGN_OR_RETURN(secp256k1::Signature sig,
                         secp256k1::Sign(BytecodeHash(), key));
  AttachSignature(key.EthAddress(), sig);
  return Status::OK();
}

analysis::DeploymentReport SignedCopy::Audit() const {
  return analysis::AnalyzeDeployment(bytecode_, audit_options_);
}

void SignedCopy::AttachSignature(const Address& signer,
                                 const secp256k1::Signature& signature) {
  for (Entry& e : signatures_) {
    if (e.signer == signer) {
      e.signature = signature;
      return;
    }
  }
  signatures_.push_back(Entry{signer, signature});
}

Result<secp256k1::Signature> SignedCopy::SignatureOf(
    const Address& signer) const {
  for (const Entry& e : signatures_) {
    if (e.signer == signer) return e.signature;
  }
  return Status::NotFound("no signature from " + signer.ToHex());
}

Status SignedCopy::VerifyComplete(const std::vector<Address>& required) const {
  Hash32 digest = BytecodeHash();
  // Presence check first (cheap, and missing signatures fail in `required`
  // order before any ECDSA work).
  std::vector<secp256k1::Signature> sigs;
  sigs.reserve(required.size());
  for (const Address& addr : required) {
    auto sig = SignatureOf(addr);
    if (!sig.ok()) {
      return Status::VerificationFailed("missing signature from " +
                                        addr.ToHex());
    }
    sigs.push_back(*sig);
  }
  // Recover every signer; parallel once the participant set is large
  // enough to pay for the fan-out (the paper's N-party verified-deployment
  // path). Per-index results keep the reported failure deterministic: the
  // first bad address in `required` order, regardless of scheduling.
  std::vector<uint8_t> valid(required.size(), 0);
  auto check = [&](size_t i) {
    auto recovered = secp256k1::RecoverAddress(digest, sigs[i].v, sigs[i].r,
                                               sigs[i].s);
    valid[i] = recovered.ok() && *recovered == required[i] ? 1 : 0;
  };
  constexpr size_t kParallelThreshold = 4;
  if (required.size() >= kParallelThreshold) {
    ThreadPool::Shared().ParallelFor(required.size(), check);
    static obs::Counter* batch_verified =
        obs::GetCounterOrNull("crypto.batch_verified_sigs");
    if (batch_verified != nullptr) batch_verified->Inc(required.size());
  } else {
    for (size_t i = 0; i < required.size(); ++i) check(i);
  }
  for (size_t i = 0; i < required.size(); ++i) {
    if (!valid[i]) {
      return Status::VerificationFailed("invalid signature from " +
                                        required[i].ToHex());
    }
  }
  return Status::OK();
}

Bytes SignedCopy::Serialize() const {
  Bytes out;
  rlp::Writer w(&out);
  const size_t top = w.BeginList();
  w.String(bytecode_);
  const size_t sigs = w.BeginList();
  for (const Entry& e : signatures_) {
    const size_t pair = w.BeginList();
    w.String(e.signer.view());
    w.String(e.signature.Serialize());
    w.EndList(pair);
  }
  w.EndList(sigs);
  w.EndList(top);
  return out;
}

Result<SignedCopy> SignedCopy::Deserialize(BytesView data) {
  ONOFF_ASSIGN_OR_RETURN(rlp::Item item, rlp::Decode(data));
  if (!item.IsList() || item.list().size() != 2 || !item.list()[0].IsString() ||
      !item.list()[1].IsList()) {
    return Status::InvalidArgument("malformed signed copy");
  }
  SignedCopy copy(item.list()[0].string());
  for (const rlp::Item& pair : item.list()[1].list()) {
    if (!pair.IsList() || pair.list().size() != 2 ||
        !pair.list()[0].IsString() || !pair.list()[1].IsString()) {
      return Status::InvalidArgument("malformed signature entry");
    }
    ONOFF_ASSIGN_OR_RETURN(Address signer,
                           Address::FromBytes(pair.list()[0].string()));
    ONOFF_ASSIGN_OR_RETURN(
        secp256k1::Signature sig,
        secp256k1::Signature::Deserialize(pair.list()[1].string()));
    copy.AttachSignature(signer, sig);
  }
  return copy;
}

}  // namespace onoff::core
