// From-scratch secp256k1 ECDSA: key generation, RFC 6979 deterministic
// signing, verification, and public-key recovery (the primitive behind
// Ethereum's `ecrecover` and the signed off-chain contract copies of the
// paper's protocol).
//
// The implementation favors clarity over constant-time hardening: it is a
// research reproduction, not a wallet. Field arithmetic uses a specialized
// fast reduction for p = 2^256 - 2^32 - 977; scalar products mod the group
// order n fold by 2^256 - n (129 bits), and scalar inverses use divsteps.
//
// Point arithmetic runs on a 5x52-limb lazy-reduction field representation
// (magnitude-tracked adds/negates, one reduction per multiply), with
// unrolled comba multiply / dedicated squaring for the serial Fermat
// inverse and square-root ladders. Variable points use GLV endomorphism
// decomposition + wNAF(5) over effective-affine (shared-Z) precomputed
// odd-multiple tables; G uses a precomputed 8-bit fixed-base comb table
// (zero doublings). The GLV constants are self-checked at startup; on any
// mismatch the same loop runs on the unsplit scalar.
//
// The original seed implementation (per-bit double-and-add over schoolbook
// field ops) lives in tests/crypto/ as the differential-testing oracle.

#ifndef ONOFFCHAIN_CRYPTO_SECP256K1_H_
#define ONOFFCHAIN_CRYPTO_SECP256K1_H_

#include <array>
#include <cstdint>
#include <optional>

#include "crypto/keccak.h"
#include "support/address.h"
#include "support/bytes.h"
#include "support/status.h"
#include "support/u256.h"

namespace onoff::secp256k1 {

// Curve parameters.
const U256& FieldPrime();   // p
const U256& GroupOrder();   // n

// An affine point; (0,0) with infinity=true is the identity.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = false;

  bool operator==(const AffinePoint& o) const {
    if (infinity || o.infinity) return infinity == o.infinity;
    return x == o.x && y == o.y;
  }
};

// Generator G.
const AffinePoint& Generator();

// Returns true iff the point satisfies y^2 = x^3 + 7 (mod p) or is identity.
bool IsOnCurve(const AffinePoint& pt);

// Group operations (affine API; internally Jacobian).
AffinePoint Add(const AffinePoint& a, const AffinePoint& b);
AffinePoint ScalarMul(const AffinePoint& pt, const U256& scalar);
// k*G, with a fixed-base speedup.
AffinePoint ScalarBaseMul(const U256& k);

// A recoverable ECDSA signature. `v` is the Ethereum-style recovery id:
// 27 + (parity of R.y), matching ethereumjs-util's ecsign output.
struct Signature {
  uint8_t v = 0;
  U256 r;
  U256 s;

  // 65-byte r || s || v serialization.
  Bytes Serialize() const;
  static Result<Signature> Deserialize(BytesView data);

  bool operator==(const Signature& o) const {
    return v == o.v && r == o.r && s == o.s;
  }
};

// A private key is a scalar in [1, n-1].
class PrivateKey {
 public:
  // Validates that the scalar is in range.
  static Result<PrivateKey> FromScalar(const U256& d);
  static Result<PrivateKey> FromHex(std::string_view hex);
  // Deterministically derives a test key from a seed string (keccak-based,
  // retried until in range). Handy for examples and fixtures.
  static PrivateKey FromSeed(std::string_view seed);

  const U256& scalar() const { return d_; }
  // Uncompressed public key point.
  AffinePoint PublicKey() const;
  // Ethereum address: low 20 bytes of keccak256(x || y).
  Address EthAddress() const;

 private:
  explicit PrivateKey(const U256& d) : d_(d) {}
  U256 d_;
};

// Converts a public key point to its Ethereum address.
Address PublicKeyToAddress(const AffinePoint& pub);

// SEC1 point serialization: 65-byte uncompressed (0x04 || x || y) or 33-byte
// compressed (0x02/0x03 || x, tag by y parity).
Bytes SerializePoint(const AffinePoint& pt, bool compressed);
// Parses either SEC1 form, validating that the point is on the curve
// (compressed points are decompressed via a square root mod p).
Result<AffinePoint> ParsePoint(BytesView data);

// Signs a 32-byte digest. Deterministic (RFC 6979); produces a low-s
// signature with recovery id, like ethereumjs-util's ecsign.
Result<Signature> Sign(const Hash32& digest, const PrivateKey& key);

// Verifies a (non-recoverable) signature against a known public key.
bool Verify(const Hash32& digest, const Signature& sig,
            const AffinePoint& pub);

// Recovers the signing public key from a recoverable signature. Fails when
// (v, r, s) is inconsistent. This is the exact semantics of the EVM
// `ecrecover` precompile.
Result<AffinePoint> Recover(const Hash32& digest, uint8_t v, const U256& r,
                            const U256& s);

// Convenience: recover straight to an Ethereum address.
Result<Address> RecoverAddress(const Hash32& digest, uint8_t v, const U256& r,
                               const U256& s);

// Field-kernel entry points, exposed for differential tests and
// microbenchmarks only (all operands/results are in [0, p)).
namespace internal {
U256 FieldMul(const U256& a, const U256& b);
U256 FieldSqr(const U256& a);   // dedicated squaring kernel
U256 FieldInv(const U256& a);   // divsteps inverse mod p
U256 FieldSqrt(const U256& a);  // a^((p+1)/4) addition chain
U256 ScalarInv(const U256& a);  // divsteps inverse mod n
// a·b mod n for any 256-bit a, b (operands need not be reduced).
U256 ScalarMulMod(const U256& a, const U256& b);
// True when the GLV endomorphism passed its startup self-checks and
// variable-point multiplication is using the split-scalar path (it should
// always be true; exposed so tests can catch a silent fallback).
bool GlvEnabled();
}  // namespace internal

}  // namespace onoff::secp256k1

#endif  // ONOFFCHAIN_CRYPTO_SECP256K1_H_
