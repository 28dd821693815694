#include "crypto/secp256k1_oracle.h"

#include <array>
#include <cassert>
#include <initializer_list>

#include "crypto/sha256.h"
#include "support/bytes.h"

namespace onoff::secp256k1::oracle {

namespace {

using u128 = unsigned __int128;

// p = 2^256 - 2^32 - 977
constexpr U256 kP(0xffffffffffffffffULL, 0xffffffffffffffffULL,
                  0xffffffffffffffffULL, 0xfffffffefffffc2fULL);
// n (group order)
constexpr U256 kN(0xffffffffffffffffULL, 0xfffffffffffffffeULL,
                  0xbaaedce6af48a03bULL, 0xbfd25e8cd0364141ULL);
// 2^256 - p, fits in one limb.
constexpr uint64_t kC = 0x1000003d1ULL;

const AffinePoint kG = {
    U256(0x79be667ef9dcbbacULL, 0x55a06295ce870b07ULL, 0x029bfcdb2dce28d9ULL,
         0x59f2815b16f81798ULL),
    U256(0x483ada7726a3c465ULL, 0x5da4fbfc0e1108a8ULL, 0xfd17b448a6855419ULL,
         0x9c47d08ffb10d4b8ULL),
    false};

// Adds two 4-limb values, returning the carry-out.
inline uint64_t AddLimbs(const U256& a, const U256& b, uint64_t out[4]) {
  uint64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    u128 s = static_cast<u128>(a.limb(i)) + b.limb(i) + carry;
    out[i] = static_cast<uint64_t>(s);
    carry = static_cast<uint64_t>(s >> 64);
  }
  return carry;
}

inline U256 FromLimbs(const uint64_t v[4]) { return U256(v[3], v[2], v[1], v[0]); }

// Reduces a value known to be < 2p into [0, p).
inline U256 CondSubP(const U256& a) { return a >= kP ? a - kP : a; }

// (x + m) >> 1 handling the 257-bit intermediate.
U256 HalfMod(const U256& x, const U256& m) {
  if (!x.Bit(0)) return x >> 1;
  uint64_t out[4];
  uint64_t carry = AddLimbs(x, m, out);
  U256 sum = FromLimbs(out) >> 1;
  if (carry) sum.SetBit(255);
  return sum;
}

// a^{-1} mod m for odd m, gcd(a, m) = 1, via binary extended GCD.
U256 ModInverse(const U256& a, const U256& m) {
  U256 u = a % m;
  assert(!u.IsZero());
  U256 v = m;
  U256 x1(1);
  U256 x2(0);
  while (u != U256(1) && v != U256(1)) {
    while (!u.Bit(0)) {
      u = u >> 1;
      x1 = HalfMod(x1, m);
    }
    while (!v.Bit(0)) {
      v = v >> 1;
      x2 = HalfMod(x2, m);
    }
    if (u >= v) {
      u -= v;
      x1 = x1 >= x2 ? x1 - x2 : x1 + (m - x2);
    } else {
      v -= u;
      x2 = x2 >= x1 ? x2 - x1 : x2 + (m - x1);
    }
  }
  return u == U256(1) ? x1 : x2;
}

struct Jacobian {
  U256 x;
  U256 y;
  U256 z;  // z == 0 means infinity

  bool IsInfinity() const { return z.IsZero(); }
};

Jacobian ToJacobian(const AffinePoint& p) {
  if (p.infinity) return {U256(1), U256(1), U256(0)};
  return {p.x, p.y, U256(1)};
}

U256 FieldAdd(const U256& a, const U256& b) {
  uint64_t out[4];
  uint64_t carry = AddLimbs(a, b, out);
  U256 r = FromLimbs(out);
  if (carry) {
    // r = a + b - 2^256; add back c (since 2^256 ≡ c mod p).
    r = r + U256(kC);
  }
  return CondSubP(r);
}

U256 FieldSub(const U256& a, const U256& b) {
  if (a >= b) return a - b;
  return a + (kP - b);
}

// 512-bit -> mod-p fold: value = high * 2^256 + low ≡ high * c + low.
U256 FieldMul(const U256& a, const U256& b) {
  // Full 256x256 product.
  uint64_t f[8] = {0};
  for (int i = 0; i < 4; ++i) {
    uint64_t carry = 0;
    for (int j = 0; j < 4; ++j) {
      u128 cur = static_cast<u128>(a.limb(i)) * b.limb(j) + f[i + j] + carry;
      f[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    f[i + 4] = carry;
  }
  // First fold: r (5 limbs) = low + high * c.
  uint64_t r[5] = {f[0], f[1], f[2], f[3], 0};
  uint64_t carry = 0;
  for (int i = 0; i < 4; ++i) {
    u128 cur = static_cast<u128>(f[i + 4]) * kC + r[i] + carry;
    r[i] = static_cast<uint64_t>(cur);
    carry = static_cast<uint64_t>(cur >> 64);
  }
  r[4] = carry;
  // Second fold: r4 * c + r[0..3].
  u128 cur = static_cast<u128>(r[4]) * kC + r[0];
  uint64_t s[4];
  s[0] = static_cast<uint64_t>(cur);
  carry = static_cast<uint64_t>(cur >> 64);
  for (int i = 1; i < 4; ++i) {
    u128 c2 = static_cast<u128>(r[i]) + carry;
    s[i] = static_cast<uint64_t>(c2);
    carry = static_cast<uint64_t>(c2 >> 64);
  }
  U256 res = FromLimbs(s);
  if (carry) res = res + U256(kC);  // third fold, carry can only be 1
  return CondSubP(res);
}

}  // namespace

U256 FieldSqr(const U256& a) { return FieldMul(a, a); }

U256 FieldInv(const U256& a) { return ModInverse(a, kP); }

// Square root mod p via a^((p+1)/4); caller must verify the result squares
// back (non-residues return garbage).
U256 FieldSqrt(const U256& a) {
  // (p+1)/4
  static const U256 kExp = (kP + U256(1)) >> 2;
  U256 result(1);
  U256 base = a;
  for (int i = 0; i < kExp.BitLength(); ++i) {
    if (kExp.Bit(i)) result = FieldMul(result, base);
    base = FieldSqr(base);
  }
  return result;
}

U256 ScalarInv(const U256& a) { return ModInverse(a, kN); }

namespace {

AffinePoint ToAffine(const Jacobian& p) {
  if (p.IsInfinity()) return {U256(), U256(), true};
  U256 zinv = FieldInv(p.z);
  U256 zinv2 = FieldSqr(zinv);
  U256 zinv3 = FieldMul(zinv2, zinv);
  return {FieldMul(p.x, zinv2), FieldMul(p.y, zinv3), false};
}

Jacobian JacDouble(const Jacobian& p) {
  if (p.IsInfinity() || p.y.IsZero()) return {U256(1), U256(1), U256(0)};
  U256 a = FieldSqr(p.x);                      // A = X1^2
  U256 b = FieldSqr(p.y);                      // B = Y1^2
  U256 c = FieldSqr(b);                        // C = B^2
  U256 t = FieldSqr(FieldAdd(p.x, b));         // (X1+B)^2
  U256 d = FieldMul(U256(2), FieldSub(FieldSub(t, a), c));  // D
  U256 e = FieldMul(U256(3), a);               // E = 3A
  U256 f = FieldSqr(e);                        // F = E^2
  U256 x3 = FieldSub(f, FieldMul(U256(2), d));
  U256 y3 = FieldSub(FieldMul(e, FieldSub(d, x3)), FieldMul(U256(8), c));
  U256 z3 = FieldMul(U256(2), FieldMul(p.y, p.z));
  return {x3, y3, z3};
}

Jacobian JacAdd(const Jacobian& p, const Jacobian& q) {
  if (p.IsInfinity()) return q;
  if (q.IsInfinity()) return p;
  U256 z1z1 = FieldSqr(p.z);
  U256 z2z2 = FieldSqr(q.z);
  U256 u1 = FieldMul(p.x, z2z2);
  U256 u2 = FieldMul(q.x, z1z1);
  U256 s1 = FieldMul(p.y, FieldMul(z2z2, q.z));
  U256 s2 = FieldMul(q.y, FieldMul(z1z1, p.z));
  if (u1 == u2) {
    if (s1 != s2) return {U256(1), U256(1), U256(0)};  // P + (-P)
    return JacDouble(p);
  }
  U256 h = FieldSub(u2, u1);
  U256 i = FieldSqr(FieldMul(U256(2), h));
  U256 j = FieldMul(h, i);
  U256 r = FieldMul(U256(2), FieldSub(s2, s1));
  U256 v = FieldMul(u1, i);
  U256 x3 = FieldSub(FieldSub(FieldSqr(r), j), FieldMul(U256(2), v));
  U256 y3 = FieldSub(FieldMul(r, FieldSub(v, x3)),
                     FieldMul(U256(2), FieldMul(s1, j)));
  U256 z3 = FieldMul(U256(2), FieldMul(FieldMul(p.z, q.z), h));
  return {x3, y3, z3};
}

// Per-bit double-and-add (MSB first).
Jacobian JacScalarMul(const Jacobian& p, const U256& k) {
  Jacobian result{U256(1), U256(1), U256(0)};
  if (k.IsZero() || p.IsInfinity()) return result;
  for (int i = k.BitLength() - 1; i >= 0; --i) {
    result = JacDouble(result);
    if (k.Bit(i)) result = JacAdd(result, p);
  }
  return result;
}

// y^2 = x^3 + 7 (mod p) with both coordinates reduced, or the identity.
// (Not named IsOnCurve: argument-dependent lookup would also find the
// library's.)
bool OnCurve(const AffinePoint& pt) {
  if (pt.infinity) return true;
  if (pt.x >= kP || pt.y >= kP) return false;
  return FieldSqr(pt.y) == FieldAdd(FieldMul(FieldSqr(pt.x), pt.x), U256(7));
}

// u1*G + u2*P as two independent multiplies.
AffinePoint DoubleScalarMul(const U256& u1, const U256& u2,
                            const AffinePoint& p) {
  return ToAffine(JacAdd(JacScalarMul(ToJacobian(kG), u1),
                         JacScalarMul(ToJacobian(p), u2)));
}

// RFC 6979 deterministic nonce generation (qlen = hlen = 256 bits).
// Invokes `accept` for each candidate; stops at the first accepted k.
template <typename AcceptFn>
U256 Rfc6979Nonce(const Hash32& digest, const U256& privkey, AcceptFn accept) {
  Bytes x = privkey.ToBytes();
  // bits2octets: digest interpreted mod n.
  U256 z = U256::FromBigEndianTruncating(BytesView(digest.data(), 32)) % kN;
  Bytes h1 = z.ToBytes();

  std::array<uint8_t, 32> v;
  std::array<uint8_t, 32> k;
  v.fill(0x01);
  k.fill(0x00);

  auto hmac = [&](std::initializer_list<BytesView> parts) {
    Bytes msg;
    for (const auto& p : parts) Append(msg, p);
    return HmacSha256(BytesView(k.data(), 32), msg);
  };

  const uint8_t zero = 0x00;
  const uint8_t one = 0x01;
  k = hmac({BytesView(v.data(), 32), BytesView(&zero, 1), BytesView(x), BytesView(h1)});
  v = HmacSha256(BytesView(k.data(), 32), BytesView(v.data(), 32));
  k = hmac({BytesView(v.data(), 32), BytesView(&one, 1), BytesView(x), BytesView(h1)});
  v = HmacSha256(BytesView(k.data(), 32), BytesView(v.data(), 32));

  for (;;) {
    v = HmacSha256(BytesView(k.data(), 32), BytesView(v.data(), 32));
    U256 candidate = U256::FromBigEndianTruncating(BytesView(v.data(), 32));
    if (!candidate.IsZero() && candidate < kN && accept(candidate)) {
      return candidate;
    }
    k = hmac({BytesView(v.data(), 32), BytesView(&zero, 1)});
    v = HmacSha256(BytesView(k.data(), 32), BytesView(v.data(), 32));
  }
}

}  // namespace

AffinePoint ScalarBaseMul(const U256& k) {
  return ToAffine(JacScalarMul(ToJacobian(kG), k % kN));
}

AffinePoint ScalarMul(const AffinePoint& pt, const U256& k) {
  return ToAffine(JacScalarMul(ToJacobian(pt), k % kN));
}

Result<Signature> Sign(const Hash32& digest, const PrivateKey& key) {
  U256 z = U256::FromBigEndianTruncating(BytesView(digest.data(), 32)) % kN;
  Signature sig;
  bool y_odd = false;

  Rfc6979Nonce(digest, key.scalar(), [&](const U256& k) {
    AffinePoint r_point = ScalarBaseMul(k);
    // Reject the (astronomically rare) r >= n case so the recovery id stays
    // in {0, 1} and v in {27, 28}, which is all Ethereum accepts.
    if (r_point.x >= kN) return false;
    U256 r = r_point.x;
    if (r.IsZero()) return false;
    U256 kinv = ModInverse(k, kN);
    U256 rd = U256::MulMod(r, key.scalar(), kN);
    U256 s = U256::MulMod(kinv, U256::AddMod(z, rd, kN), kN);
    if (s.IsZero()) return false;
    sig.r = r;
    sig.s = s;
    y_odd = r_point.y.Bit(0);
    return true;
  });

  // Enforce low-s (Ethereum/BIP-62); flipping s mirrors R, flipping parity.
  static const U256 kHalfN = kN >> 1;
  uint8_t recid = y_odd ? 1 : 0;
  if (sig.s > kHalfN) {
    sig.s = kN - sig.s;
    recid ^= 1;
  }
  sig.v = static_cast<uint8_t>(27 + recid);
  return sig;
}

bool Verify(const Hash32& digest, const Signature& sig,
            const AffinePoint& pub) {
  if (sig.r.IsZero() || sig.r >= kN || sig.s.IsZero() || sig.s >= kN) {
    return false;
  }
  if (!OnCurve(pub) || pub.infinity) return false;
  U256 z = U256::FromBigEndianTruncating(BytesView(digest.data(), 32)) % kN;
  U256 sinv = ModInverse(sig.s, kN);
  U256 u1 = U256::MulMod(z, sinv, kN);
  U256 u2 = U256::MulMod(sig.r, sinv, kN);
  AffinePoint res = DoubleScalarMul(u1, u2, pub);
  if (res.infinity) return false;
  return res.x % kN == sig.r;
}

Result<AffinePoint> Recover(const Hash32& digest, uint8_t v, const U256& r,
                            const U256& s) {
  if (v != 27 && v != 28) {
    return Status::VerificationFailed("recovery id must be 27 or 28");
  }
  if (r.IsZero() || r >= kN || s.IsZero() || s >= kN) {
    return Status::VerificationFailed("signature scalar out of range");
  }
  // R candidate: x = r (recid < 2), y parity chosen by v.
  U256 x = r;
  if (x >= kP) return Status::VerificationFailed("r exceeds field prime");
  U256 y2 = FieldAdd(FieldMul(FieldSqr(x), x), U256(7));
  U256 y = FieldSqrt(y2);
  if (FieldSqr(y) != y2) {
    return Status::VerificationFailed("r is not an x-coordinate on the curve");
  }
  bool want_odd = (v == 28);
  if (y.Bit(0) != want_odd) y = y.IsZero() ? y : kP - y;
  AffinePoint r_point{x, y, false};

  U256 z = U256::FromBigEndianTruncating(BytesView(digest.data(), 32)) % kN;
  U256 rinv = ModInverse(r, kN);
  // Q = r^{-1} (s*R - z*G)
  U256 u1 = U256::MulMod(kN - z % kN, rinv, kN);  // -z/r mod n
  U256 u2 = U256::MulMod(s, rinv, kN);
  AffinePoint pub = DoubleScalarMul(u1, u2, r_point);
  if (pub.infinity) {
    return Status::VerificationFailed("recovered point at infinity");
  }
  return pub;
}

}  // namespace onoff::secp256k1::oracle
