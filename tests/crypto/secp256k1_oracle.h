// The seed secp256k1 implementation, kept as a test-only differential
// oracle for the library's one signing/recovery path in src/crypto/.
//
// Rolled operand-scanning field multiply, squaring as a general multiply,
// constant multiples via full multiplies, binary-GCD inverses, generic
// square-and-multiply square root, and per-bit double-and-add scalar
// multiplication over four-limb Jacobian points. It shares nothing with the
// library's kernels except the curve constants and the generic U256
// routines, so differential tests compare independent code paths. Results
// use the library's value types.

#ifndef ONOFFCHAIN_CRYPTO_SECP256K1_ORACLE_H_
#define ONOFFCHAIN_CRYPTO_SECP256K1_ORACLE_H_

#include <cstdint>

#include "crypto/keccak.h"
#include "crypto/secp256k1.h"
#include "support/status.h"
#include "support/u256.h"

namespace onoff::secp256k1::oracle {

// Field kernels mod p; operands and results are in [0, p).
U256 FieldSqr(const U256& a);   // FieldMul(a, a)
U256 FieldInv(const U256& a);   // binary extended GCD
U256 FieldSqrt(const U256& a);  // a^((p+1)/4) by square-and-multiply

// a^-1 mod n by binary extended GCD; a in [1, n-1].
U256 ScalarInv(const U256& a);

// k*G and k*P, per-bit double-and-add (k is reduced mod n first).
AffinePoint ScalarBaseMul(const U256& k);
AffinePoint ScalarMul(const AffinePoint& pt, const U256& k);

// The contracts of secp256k1::Sign, Verify and Recover: RFC 6979 low-s
// signing, verification against a public key, and `ecrecover` semantics
// (high s accepted).
Result<Signature> Sign(const Hash32& digest, const PrivateKey& key);
bool Verify(const Hash32& digest, const Signature& sig,
            const AffinePoint& pub);
Result<AffinePoint> Recover(const Hash32& digest, uint8_t v, const U256& r,
                            const U256& s);

}  // namespace onoff::secp256k1::oracle

#endif  // ONOFFCHAIN_CRYPTO_SECP256K1_ORACLE_H_
