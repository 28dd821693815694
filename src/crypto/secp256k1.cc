#include "crypto/secp256k1.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "crypto/sha256.h"
#include "obs/metrics.h"

namespace onoff::secp256k1 {

namespace {

using u128 = unsigned __int128;
using i128 = __int128;

// p = 2^256 - 2^32 - 977
constexpr U256 kP(0xffffffffffffffffULL, 0xffffffffffffffffULL,
                  0xffffffffffffffffULL, 0xfffffffefffffc2fULL);
// n (group order)
constexpr U256 kN(0xffffffffffffffffULL, 0xfffffffffffffffeULL,
                  0xbaaedce6af48a03bULL, 0xbfd25e8cd0364141ULL);
// 2^256 - p, fits in one limb.
constexpr uint64_t kC = 0x1000003d1ULL;
// Low limb of p; the other three are all-ones, which the reduced-form
// checks below exploit.
constexpr uint64_t kP0 = 0xfffffffefffffc2fULL;

// ---- Shared multi-precision helpers ----

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

// (x + m) >> 1 handling the 257-bit intermediate.
U256 HalfMod(const U256& x, const U256& m) {
  if (!x.Bit(0)) return x >> 1;
  uint64_t out[4];
  uint64_t carry = AddLimbs(x, m, out);
  U256 sum = FromLimbs(out) >> 1;
  if (carry) sum.SetBit(255);
  return sum;
}

// a^{-1} mod m for odd m, gcd(a, m) = 1, via binary extended GCD: the slow,
// simple inverse that ModInverseDivsteps falls back to.
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

// ---- divsteps modular inverse (Bernstein–Yang, variable time) ----
//
// Instead of the ~700 single-bit iterations of the binary GCD above, the
// divstep recurrence is applied 62 steps at a time: the inner loop works
// only on the low 64 bits of (f, g) and accumulates the whole batch as a
// 2x2 signed transition matrix, which is then applied once to the full-size
// f, g (and, mod m, to the Bézout coefficients d, e). Roughly 10 batches
// converge for 256-bit inputs — about 5x faster than the bit-at-a-time GCD.
//
// Numbers are signed, little-endian, 62 bits per limb: every limb is in
// [0, 2^62) except the top one, which carries the sign.

struct Signed62 {
  int64_t v[5];
};

constexpr uint64_t kM62 = (uint64_t{1} << 62) - 1;

Signed62 Signed62FromU256(const U256& a) {
  return {{static_cast<int64_t>(a.limb(0) & kM62),
           static_cast<int64_t>(((a.limb(0) >> 62) | (a.limb(1) << 2)) & kM62),
           static_cast<int64_t>(((a.limb(1) >> 60) | (a.limb(2) << 4)) & kM62),
           static_cast<int64_t>(((a.limb(2) >> 58) | (a.limb(3) << 6)) & kM62),
           static_cast<int64_t>(a.limb(3) >> 56)}};
}

// Only valid for normalized non-negative values < 2^256.
U256 U256FromSigned62(const Signed62& a) {
  const uint64_t v0 = static_cast<uint64_t>(a.v[0]);
  const uint64_t v1 = static_cast<uint64_t>(a.v[1]);
  const uint64_t v2 = static_cast<uint64_t>(a.v[2]);
  const uint64_t v3 = static_cast<uint64_t>(a.v[3]);
  const uint64_t v4 = static_cast<uint64_t>(a.v[4]);
  return U256((v3 >> 6) | (v4 << 56), (v2 >> 4) | (v3 << 58),
              (v1 >> 2) | (v2 << 60), v0 | (v1 << 62));
}

bool Signed62IsZero(const Signed62& a) {
  return (a.v[0] | a.v[1] | a.v[2] | a.v[3] | a.v[4]) == 0;
}

// 62 divsteps on the low bits of (f, g). Writes the transition matrix
// t = [[u, v], [q, r]] (scaled by 2^62) such that the full-width update
// f' = (u*f + v*g) / 2^62, g' = (q*f + r*g) / 2^62 is exact, and returns
// the new delta. Runs of even g are consumed with one count-trailing-zeros.
int64_t Divsteps62(int64_t delta, uint64_t f0, uint64_t g0, int64_t t[4]) {
  int64_t u = 1, v = 0, q = 0, r = 1;
  uint64_t f = f0, g = g0;
  int i = 62;
  for (;;) {
    int zeros = g == 0 ? i : __builtin_ctzll(g);
    if (zeros > i) zeros = i;
    g >>= zeros;
    u <<= zeros;
    v <<= zeros;
    delta += zeros;
    i -= zeros;
    if (i == 0) break;
    // g is odd here.
    if (delta > 0) {
      // (delta, f, g) <- (1 - delta, g, (g - f) / 2).
      delta = 1 - delta;
      uint64_t tf = f;
      f = g;
      g = (g - tf) >> 1;
      int64_t tq = q, tr = r;
      q -= u;
      r -= v;
      u = tq << 1;
      v = tr << 1;
    } else {
      // (delta, f, g) <- (1 + delta, f, (g + f) / 2).
      delta = 1 + delta;
      g = (g + f) >> 1;
      q += u;
      r += v;
      u <<= 1;
      v <<= 1;
    }
    --i;
  }
  t[0] = u;
  t[1] = v;
  t[2] = q;
  t[3] = r;
  return delta;
}

// (f, g) <- (t * [f; g]) / 2^62, exactly (the matrix guarantees the low 62
// bits vanish).
void UpdateFg(Signed62& f, Signed62& g, const int64_t t[4]) {
  i128 cf = static_cast<i128>(t[0]) * f.v[0] + static_cast<i128>(t[1]) * g.v[0];
  i128 cg = static_cast<i128>(t[2]) * f.v[0] + static_cast<i128>(t[3]) * g.v[0];
  cf >>= 62;
  cg >>= 62;
  for (int i = 1; i < 5; ++i) {
    cf += static_cast<i128>(t[0]) * f.v[i] + static_cast<i128>(t[1]) * g.v[i];
    cg += static_cast<i128>(t[2]) * f.v[i] + static_cast<i128>(t[3]) * g.v[i];
    f.v[i - 1] = static_cast<int64_t>(static_cast<uint64_t>(cf) & kM62);
    g.v[i - 1] = static_cast<int64_t>(static_cast<uint64_t>(cg) & kM62);
    cf >>= 62;
    cg >>= 62;
  }
  f.v[4] = static_cast<int64_t>(cf);
  g.v[4] = static_cast<int64_t>(cg);
}

// Brings a into (-m, m) and then, if negative, into [0, m). The values
// produced by UpdateDe drift by at most a few multiples of m per batch, so
// the loops run O(1) times.
void Signed62ReduceMod(Signed62& a, const Signed62& m) {
  auto add = [&](int sign) {
    int64_t carry = 0;
    for (int i = 0; i < 5; ++i) {
      int64_t t = a.v[i] + sign * m.v[i] + carry;
      carry = t >> 62;  // arithmetic: keeps the sign for the top limb
      a.v[i] = t & static_cast<int64_t>(kM62);
    }
    a.v[4] |= carry << 62;  // re-attach the sign to the top limb
  };
  auto geq_m = [&]() {
    if (a.v[4] != m.v[4]) return a.v[4] > m.v[4];
    for (int i = 3; i >= 0; --i) {
      if (a.v[i] != m.v[i]) return a.v[i] > m.v[i];
    }
    return true;
  };
  while (a.v[4] < 0) add(+1);
  while (geq_m()) add(-1);
}

// (d, e) <- (t * [d; e]) / 2^62 mod m. The division is made exact by adding
// the unique multiple of m that clears the low 62 bits (m_inv62 is
// -1/m mod 2^62).
void UpdateDe(Signed62& d, Signed62& e, const int64_t t[4], const Signed62& m,
              uint64_t m_inv62) {
  i128 cd = static_cast<i128>(t[0]) * d.v[0] + static_cast<i128>(t[1]) * e.v[0];
  i128 ce = static_cast<i128>(t[2]) * d.v[0] + static_cast<i128>(t[3]) * e.v[0];
  const uint64_t md = (static_cast<uint64_t>(cd) * m_inv62) & kM62;
  const uint64_t me = (static_cast<uint64_t>(ce) * m_inv62) & kM62;
  cd += static_cast<i128>(md) * m.v[0];
  ce += static_cast<i128>(me) * m.v[0];
  cd >>= 62;
  ce >>= 62;
  for (int i = 1; i < 5; ++i) {
    cd += static_cast<i128>(t[0]) * d.v[i] + static_cast<i128>(t[1]) * e.v[i] +
          static_cast<i128>(md) * m.v[i];
    ce += static_cast<i128>(t[2]) * d.v[i] + static_cast<i128>(t[3]) * e.v[i] +
          static_cast<i128>(me) * m.v[i];
    d.v[i - 1] = static_cast<int64_t>(static_cast<uint64_t>(cd) & kM62);
    e.v[i - 1] = static_cast<int64_t>(static_cast<uint64_t>(ce) & kM62);
    cd >>= 62;
    ce >>= 62;
  }
  d.v[4] = static_cast<int64_t>(cd);
  e.v[4] = static_cast<int64_t>(ce);
  Signed62ReduceMod(d, m);
  Signed62ReduceMod(e, m);
}

// a^-1 mod m for odd m, variable time. Maintains f = m, g = a (mod 2^62
// scaled) with d, e tracking the Bézout coefficients mod m; when g reaches
// zero, f holds ±gcd and ±d is the inverse. Falls back to the generic GCD
// if convergence is not reached in the proven iteration bound (it always
// is; the fallback turns a would-be wrong answer into a slow one).
U256 ModInverseDivsteps(const U256& a, const U256& m_in) {
  U256 ar = a % m_in;
  if (ar.IsZero()) return U256(0);
  const Signed62 m = Signed62FromU256(m_in);
  // -1/m mod 2^64 by Newton iteration (m odd), then truncated to 62 bits.
  uint64_t inv = m_in.limb(0);
  for (int i = 0; i < 5; ++i) inv *= 2 - m_in.limb(0) * inv;
  const uint64_t m_inv62 = (0 - inv) & kM62;
  Signed62 f = m;
  Signed62 g = Signed62FromU256(ar);
  Signed62 d = {{0, 0, 0, 0, 0}};
  Signed62 e = {{1, 0, 0, 0, 0}};
  int64_t delta = 1;
  for (int batch = 0; batch < 12 && !Signed62IsZero(g); ++batch) {
    int64_t t[4];
    const uint64_t f0 =
        static_cast<uint64_t>(f.v[0]) | (static_cast<uint64_t>(f.v[1]) << 62);
    const uint64_t g0 =
        static_cast<uint64_t>(g.v[0]) | (static_cast<uint64_t>(g.v[1]) << 62);
    delta = Divsteps62(delta, f0, g0, t);
    UpdateFg(f, g, t);
    UpdateDe(d, e, t, m, m_inv62);
  }
  if (!Signed62IsZero(g)) return ModInverse(a, m_in);
  if (f.v[4] < 0) {
    // gcd came out as -1: negate d.
    for (int i = 0; i < 5; ++i) d.v[i] = -d.v[i];
    // Restore the limbs-in-[0, 2^62) form before the final reduction.
    int64_t carry = 0;
    for (int i = 0; i < 5; ++i) {
      int64_t t = d.v[i] + carry;
      carry = t >> 62;
      d.v[i] = t & static_cast<int64_t>(kM62);
    }
    d.v[4] |= carry << 62;
  }
  Signed62ReduceMod(d, m);
  return U256FromSigned62(d);
}

// ---- Fast field arithmetic mod p (unrolled comba + fold reduction) ----

U256 FieldAdd(const U256& a, const U256& b) {
  u128 t = static_cast<u128>(a.limb(0)) + b.limb(0);
  uint64_t s0 = static_cast<uint64_t>(t);
  t = static_cast<u128>(a.limb(1)) + b.limb(1) + static_cast<uint64_t>(t >> 64);
  uint64_t s1 = static_cast<uint64_t>(t);
  t = static_cast<u128>(a.limb(2)) + b.limb(2) + static_cast<uint64_t>(t >> 64);
  uint64_t s2 = static_cast<uint64_t>(t);
  t = static_cast<u128>(a.limb(3)) + b.limb(3) + static_cast<uint64_t>(t >> 64);
  uint64_t s3 = static_cast<uint64_t>(t);
  if (static_cast<uint64_t>(t >> 64) != 0) {
    // a + b - 2^256 + c == a + b - p, which is already < p.
    t = static_cast<u128>(s0) + kC;
    s0 = static_cast<uint64_t>(t);
    t = static_cast<u128>(s1) + static_cast<uint64_t>(t >> 64);
    s1 = static_cast<uint64_t>(t);
    t = static_cast<u128>(s2) + static_cast<uint64_t>(t >> 64);
    s2 = static_cast<uint64_t>(t);
    s3 += static_cast<uint64_t>(t >> 64);
    return U256(s3, s2, s1, s0);
  }
  // Any value in [p, 2^256) has its top three limbs all-ones.
  if ((s1 & s2 & s3) == ~uint64_t{0} && s0 >= kP0) {
    s0 -= kP0;
    s1 = s2 = s3 = 0;
  }
  return U256(s3, s2, s1, s0);
}

U256 FieldNeg(const U256& a) { return a.IsZero() ? a : kP - a; }

// 64x64 -> 128 multiply accumulated into a 192-bit column (c0, c1, c2).
inline void MulAdd(uint64_t a, uint64_t b, uint64_t& c0, uint64_t& c1,
                   uint64_t& c2) {
  u128 t = static_cast<u128>(a) * b;
  uint64_t tl = static_cast<uint64_t>(t);
  uint64_t th = static_cast<uint64_t>(t >> 64);  // <= 2^64 - 2: +1 is safe
  c0 += tl;
  th += c0 < tl ? 1 : 0;
  c1 += th;
  c2 += c1 < th ? 1 : 0;
}

// Accumulates 2*a*b — the doubled cross term of a squaring.
inline void MulAddTwice(uint64_t a, uint64_t b, uint64_t& c0, uint64_t& c1,
                        uint64_t& c2) {
  u128 t = static_cast<u128>(a) * b;
  uint64_t tl = static_cast<uint64_t>(t);
  uint64_t th = static_cast<uint64_t>(t >> 64);
  c2 += th >> 63;
  th = (th << 1) | (tl >> 63);
  tl <<= 1;
  c0 += tl;
  th += c0 < tl ? 1 : 0;
  c1 += th;
  c2 += c1 < th ? 1 : 0;
}

// Full 256x256 -> 512 product, column by column (comba). Fully unrolled:
// measured ~1.7x faster than the rolled operand-scanning loop the seed
// used (kept in the test oracle).
inline void MulWide(const U256& a, const U256& b, uint64_t f[8]) {
  const uint64_t a0 = a.limb(0), a1 = a.limb(1), a2 = a.limb(2),
                 a3 = a.limb(3);
  const uint64_t b0 = b.limb(0), b1 = b.limb(1), b2 = b.limb(2),
                 b3 = b.limb(3);
  uint64_t c0 = 0, c1 = 0, c2 = 0;
  MulAdd(a0, b0, c0, c1, c2);
  f[0] = c0; c0 = c1; c1 = c2; c2 = 0;
  MulAdd(a0, b1, c0, c1, c2);
  MulAdd(a1, b0, c0, c1, c2);
  f[1] = c0; c0 = c1; c1 = c2; c2 = 0;
  MulAdd(a0, b2, c0, c1, c2);
  MulAdd(a1, b1, c0, c1, c2);
  MulAdd(a2, b0, c0, c1, c2);
  f[2] = c0; c0 = c1; c1 = c2; c2 = 0;
  MulAdd(a0, b3, c0, c1, c2);
  MulAdd(a1, b2, c0, c1, c2);
  MulAdd(a2, b1, c0, c1, c2);
  MulAdd(a3, b0, c0, c1, c2);
  f[3] = c0; c0 = c1; c1 = c2; c2 = 0;
  MulAdd(a1, b3, c0, c1, c2);
  MulAdd(a2, b2, c0, c1, c2);
  MulAdd(a3, b1, c0, c1, c2);
  f[4] = c0; c0 = c1; c1 = c2; c2 = 0;
  MulAdd(a2, b3, c0, c1, c2);
  MulAdd(a3, b2, c0, c1, c2);
  f[5] = c0; c0 = c1; c1 = c2; c2 = 0;
  MulAdd(a3, b3, c0, c1, c2);
  f[6] = c0;
  f[7] = c1;
}

// Dedicated squaring: 6 doubled cross products + 4 squares instead of 16
// general partial products.
inline void SqrWide(const U256& a, uint64_t f[8]) {
  const uint64_t a0 = a.limb(0), a1 = a.limb(1), a2 = a.limb(2),
                 a3 = a.limb(3);
  uint64_t c0 = 0, c1 = 0, c2 = 0;
  MulAdd(a0, a0, c0, c1, c2);
  f[0] = c0; c0 = c1; c1 = c2; c2 = 0;
  MulAddTwice(a0, a1, c0, c1, c2);
  f[1] = c0; c0 = c1; c1 = c2; c2 = 0;
  MulAddTwice(a0, a2, c0, c1, c2);
  MulAdd(a1, a1, c0, c1, c2);
  f[2] = c0; c0 = c1; c1 = c2; c2 = 0;
  MulAddTwice(a0, a3, c0, c1, c2);
  MulAddTwice(a1, a2, c0, c1, c2);
  f[3] = c0; c0 = c1; c1 = c2; c2 = 0;
  MulAddTwice(a1, a3, c0, c1, c2);
  MulAdd(a2, a2, c0, c1, c2);
  f[4] = c0; c0 = c1; c1 = c2; c2 = 0;
  MulAddTwice(a2, a3, c0, c1, c2);
  f[5] = c0; c0 = c1; c1 = c2; c2 = 0;
  MulAdd(a3, a3, c0, c1, c2);
  f[6] = c0;
  f[7] = c1;
}

// 512-bit -> mod-p fold: value = high * 2^256 + low ≡ high * c + low, twice.
inline U256 ReduceWide(const uint64_t f[8]) {
  u128 t = static_cast<u128>(f[4]) * kC + f[0];
  uint64_t r0 = static_cast<uint64_t>(t);
  t = static_cast<u128>(f[5]) * kC + f[1] + static_cast<uint64_t>(t >> 64);
  uint64_t r1 = static_cast<uint64_t>(t);
  t = static_cast<u128>(f[6]) * kC + f[2] + static_cast<uint64_t>(t >> 64);
  uint64_t r2 = static_cast<uint64_t>(t);
  t = static_cast<u128>(f[7]) * kC + f[3] + static_cast<uint64_t>(t >> 64);
  uint64_t r3 = static_cast<uint64_t>(t);
  uint64_t r4 = static_cast<uint64_t>(t >> 64);  // < c
  t = static_cast<u128>(r4) * kC + r0;
  uint64_t s0 = static_cast<uint64_t>(t);
  t = static_cast<u128>(r1) + static_cast<uint64_t>(t >> 64);
  uint64_t s1 = static_cast<uint64_t>(t);
  t = static_cast<u128>(r2) + static_cast<uint64_t>(t >> 64);
  uint64_t s2 = static_cast<uint64_t>(t);
  t = static_cast<u128>(r3) + static_cast<uint64_t>(t >> 64);
  uint64_t s3 = static_cast<uint64_t>(t);
  if (static_cast<uint64_t>(t >> 64) != 0) {
    // Third fold. The overflowed value was < 2^256 + c^2, so what remains
    // after dropping 2^256 is tiny and adding c cannot ripple past s1.
    t = static_cast<u128>(s0) + kC;
    s0 = static_cast<uint64_t>(t);
    s1 += static_cast<uint64_t>(t >> 64);
    return U256(s3, s2, s1, s0);
  }
  if ((s1 & s2 & s3) == ~uint64_t{0} && s0 >= kP0) {
    s0 -= kP0;
    s1 = s2 = s3 = 0;
  }
  return U256(s3, s2, s1, s0);
}

U256 FieldMul(const U256& a, const U256& b) {
  uint64_t f[8];
  MulWide(a, b, f);
  return ReduceWide(f);
}

U256 FieldSqr(const U256& a) {
  uint64_t f[8];
  SqrWide(a, f);
  return ReduceWide(f);
}

// ---- Scalars mod n ----

// 2^256 - n, 129 bits: 2^256 ≡ this (mod n).
constexpr uint64_t kNC[3] = {0x402da1732fc9bebfULL, 0x4551231950b75fc4ULL,
                             1};

// a·b mod n for any 256-bit a and b. The 512-bit product is folded as
// lo + hi·(2^256 - n) until it fits 256 bits (512 → 386 → 260 → 256 bits,
// at most four rounds), as libsecp256k1's scalar reduction does; a value
// under 2^256 < 2n then needs at most one subtraction of n. Replaces the
// generic U256::MulMod, whose long division shifts one bit at a time.
U256 MulModN(const U256& a, const U256& b) {
  uint64_t v[8];
  MulWide(a, b, v);
  int len = 8;
  while (len > 4 && v[len - 1] == 0) --len;
  while (len > 4) {
    uint64_t out[8] = {v[0], v[1], v[2], v[3], 0, 0, 0, 0};
    for (int i = 0; i < len - 4; ++i) {
      uint64_t carry = 0;
      for (int j = 0; j < 3; ++j) {
        u128 t = static_cast<u128>(v[4 + i]) * kNC[j] + out[i + j] + carry;
        out[i + j] = static_cast<uint64_t>(t);
        carry = static_cast<uint64_t>(t >> 64);
      }
      for (int k = i + 3; carry != 0 && k < 8; ++k) {
        u128 t = static_cast<u128>(out[k]) + carry;
        out[k] = static_cast<uint64_t>(t);
        carry = static_cast<uint64_t>(t >> 64);
      }
    }
    std::memcpy(v, out, sizeof(out));
    len = 8;
    while (len > 4 && v[len - 1] == 0) --len;
  }
  U256 r(v[3], v[2], v[1], v[0]);
  return r >= kN ? r - kN : r;
}

// ---- 5x52 lazy-reduction field elements (point-arithmetic hot path) ----
//
// The Jacobian formulas below run on a radix-2^52 representation: five
// 64-bit limbs, value = sum n[i]*2^(52*i), top limb 48 bits when fully
// reduced. The ~12 spare bits per limb make addition and negation plain
// limb arithmetic with no carries or conditional subtractions at all; only
// multiplication and squaring renormalize. Each element carries an
// implicit *magnitude* bound (how far its limbs may exceed the reduced
// range, in units of 2^52): FeMul/FeSqr accept magnitudes up to 32 and
// produce magnitude 1, FeAdd sums magnitudes, FeNegate(a, m) maps
// magnitude <= m to 2(m+1), and FeMulInt scales it. The point formulas
// keep every multiplier input below the kernel bound and weak-normalize
// their stored outputs. The U256 comba kernels above remain the field API
// at module boundaries; conversion happens only when points enter or
// leave the Jacobian core.

struct Fe {
  uint64_t n[5];
};

constexpr uint64_t kM52 = 0xFFFFFFFFFFFFFULL;
constexpr uint64_t kM48 = 0xFFFFFFFFFFFFULL;
constexpr uint64_t kR32 = 0x1000003D1ULL;        // 2^256 mod p
constexpr uint64_t kR36 = 0x1000003D10ULL;       // 2^260 mod p
constexpr uint64_t kP52_0 = 0xFFFFEFFFFFC2FULL;  // p's low 52-bit digit

constexpr Fe kFeZero{{0, 0, 0, 0, 0}};
constexpr Fe kFeOne{{1, 0, 0, 0, 0}};

// Splices four 64-bit limbs into five 52-bit ones; canonical in, magnitude
// 1 out.
inline Fe FeFromU256(const U256& a) {
  return {{a.limb(0) & kM52,
           ((a.limb(0) >> 52) | (a.limb(1) << 12)) & kM52,
           ((a.limb(1) >> 40) | (a.limb(2) << 24)) & kM52,
           ((a.limb(2) >> 28) | (a.limb(3) << 36)) & kM52,
           a.limb(3) >> 16}};
}

// One carry-fold pass: limbs back under 52 bits (top under 48 plus the
// input magnitude), value unchanged mod p but possibly still >= p.
// Tolerates limbs up to ~2^62.
inline void FeNormalizeWeak(Fe& a) {
  uint64_t t0 = a.n[0], t1 = a.n[1], t2 = a.n[2], t3 = a.n[3], t4 = a.n[4];
  t0 += (t4 >> 48) * kR32;
  t4 &= kM48;
  t1 += t0 >> 52; t0 &= kM52;
  t2 += t1 >> 52; t1 &= kM52;
  t3 += t2 >> 52; t2 &= kM52;
  t4 += t3 >> 52; t3 &= kM52;
  a = {{t0, t1, t2, t3, t4}};
}

// Full canonical reduction to [0, p), variable time.
inline void FeNormalizeVar(Fe& a) {
  FeNormalizeWeak(a);
  uint64_t t0 = a.n[0], t1 = a.n[1], t2 = a.n[2], t3 = a.n[3], t4 = a.n[4];
  uint64_t x = t4 >> 48;
  if (x != 0) {  // the weak pass left at most one bit above 2^256
    t4 &= kM48;
    t0 += x * kR32;
    t1 += t0 >> 52; t0 &= kM52;
    t2 += t1 >> 52; t1 &= kM52;
    t3 += t2 >> 52; t2 &= kM52;
    t4 += t3 >> 52; t3 &= kM52;
  }
  if (t4 == kM48 && t3 == kM52 && t2 == kM52 && t1 == kM52 && t0 >= kP52_0) {
    t0 -= kP52_0;  // value was in [p, 2^256)
    t1 = t2 = t3 = t4 = 0;
  }
  a = {{t0, t1, t2, t3, t4}};
}

// Does the element represent 0 mod p? Variable time. One weak pass leaves
// a value < 2p, so zero means limbs exactly 0 or exactly p.
inline bool FeIsZeroVar(const Fe& a) {
  Fe t = a;
  FeNormalizeWeak(t);
  if ((t.n[0] | t.n[1] | t.n[2] | t.n[3] | t.n[4]) == 0) return true;
  return t.n[0] == kP52_0 && t.n[1] == kM52 && t.n[2] == kM52 &&
         t.n[3] == kM52 && t.n[4] == kM48;
}

inline U256 FeToU256(const Fe& a) {
  Fe t = a;
  FeNormalizeVar(t);
  return U256((t.n[3] >> 36) | (t.n[4] << 16),
              (t.n[2] >> 24) | (t.n[3] << 28),
              (t.n[1] >> 12) | (t.n[2] << 40),
              t.n[0] | (t.n[1] << 52));
}

inline Fe FeAdd(const Fe& a, const Fe& b) {
  return {{a.n[0] + b.n[0], a.n[1] + b.n[1], a.n[2] + b.n[2],
           a.n[3] + b.n[3], a.n[4] + b.n[4]}};
}

// 2(m+1)p - a == -a (mod p), underflow-free for magnitude <= m inputs.
inline Fe FeNegate(const Fe& a, uint64_t m) {
  return {{kP52_0 * 2 * (m + 1) - a.n[0], kM52 * 2 * (m + 1) - a.n[1],
           kM52 * 2 * (m + 1) - a.n[2], kM52 * 2 * (m + 1) - a.n[3],
           kM48 * 2 * (m + 1) - a.n[4]}};
}

inline Fe FeMulInt(const Fe& a, uint64_t k) {
  return {{a.n[0] * k, a.n[1] * k, a.n[2] * k, a.n[3] * k, a.n[4] * k}};
}

// Shared tail of FeMul/FeSqr: double-width columns c_k (weight 2^(52k))
// down to five magnitude-1 limbs, folding with 2^260 ≡ kR36 and
// 2^256 ≡ kR32.
inline Fe FeReduce(u128 c0, u128 c1, u128 c2, u128 c3, u128 c4, u128 c5,
                   u128 c6, u128 c7, u128 c8) {
  uint64_t h5 = static_cast<uint64_t>(c5) & kM52;
  c6 += c5 >> 52;
  uint64_t h6 = static_cast<uint64_t>(c6) & kM52;
  c7 += c6 >> 52;
  uint64_t h7 = static_cast<uint64_t>(c7) & kM52;
  c8 += c7 >> 52;
  uint64_t h8 = static_cast<uint64_t>(c8) & kM52;
  uint64_t h9 = static_cast<uint64_t>(c8 >> 52);
  c0 += static_cast<u128>(h5) * kR36;
  c1 += static_cast<u128>(h6) * kR36;
  c2 += static_cast<u128>(h7) * kR36;
  c3 += static_cast<u128>(h8) * kR36;
  c4 += static_cast<u128>(h9) * kR36;
  uint64_t r0 = static_cast<uint64_t>(c0) & kM52; c1 += c0 >> 52;
  uint64_t r1 = static_cast<uint64_t>(c1) & kM52; c2 += c1 >> 52;
  uint64_t r2 = static_cast<uint64_t>(c2) & kM52; c3 += c2 >> 52;
  uint64_t r3 = static_cast<uint64_t>(c3) & kM52; c4 += c3 >> 52;
  uint64_t r4 = static_cast<uint64_t>(c4) & kM48;
  u128 t = static_cast<u128>(r0) + (c4 >> 48) * static_cast<u128>(kR32);
  r0 = static_cast<uint64_t>(t) & kM52;
  t = static_cast<u128>(r1) + (t >> 52);
  r1 = static_cast<uint64_t>(t) & kM52;
  r2 += static_cast<uint64_t>(t >> 52);  // <= 1; cannot ripple further
  return {{r0, r1, r2, r3, r4}};
}

Fe FeMul(const Fe& a, const Fe& b) {
  const uint64_t a0 = a.n[0], a1 = a.n[1], a2 = a.n[2], a3 = a.n[3],
                 a4 = a.n[4];
  const uint64_t b0 = b.n[0], b1 = b.n[1], b2 = b.n[2], b3 = b.n[3],
                 b4 = b.n[4];
  return FeReduce(
      static_cast<u128>(a0) * b0,
      static_cast<u128>(a0) * b1 + static_cast<u128>(a1) * b0,
      static_cast<u128>(a0) * b2 + static_cast<u128>(a1) * b1 +
          static_cast<u128>(a2) * b0,
      static_cast<u128>(a0) * b3 + static_cast<u128>(a1) * b2 +
          static_cast<u128>(a2) * b1 + static_cast<u128>(a3) * b0,
      static_cast<u128>(a0) * b4 + static_cast<u128>(a1) * b3 +
          static_cast<u128>(a2) * b2 + static_cast<u128>(a3) * b1 +
          static_cast<u128>(a4) * b0,
      static_cast<u128>(a1) * b4 + static_cast<u128>(a2) * b3 +
          static_cast<u128>(a3) * b2 + static_cast<u128>(a4) * b1,
      static_cast<u128>(a2) * b4 + static_cast<u128>(a3) * b3 +
          static_cast<u128>(a4) * b2,
      static_cast<u128>(a3) * b4 + static_cast<u128>(a4) * b3,
      static_cast<u128>(a4) * b4);
}

Fe FeSqr(const Fe& a) {
  const uint64_t a0 = a.n[0], a1 = a.n[1], a2 = a.n[2], a3 = a.n[3],
                 a4 = a.n[4];
  const uint64_t d0 = a0 * 2, d1 = a1 * 2, d2 = a2 * 2, d3 = a3 * 2;
  return FeReduce(static_cast<u128>(a0) * a0,
                  static_cast<u128>(d0) * a1,
                  static_cast<u128>(d0) * a2 + static_cast<u128>(a1) * a1,
                  static_cast<u128>(d0) * a3 + static_cast<u128>(d1) * a2,
                  static_cast<u128>(d0) * a4 + static_cast<u128>(d1) * a3 +
                      static_cast<u128>(a2) * a2,
                  static_cast<u128>(d1) * a4 + static_cast<u128>(d2) * a3,
                  static_cast<u128>(d2) * a4 + static_cast<u128>(a3) * a3,
                  static_cast<u128>(d3) * a4,
                  static_cast<u128>(a4) * a4);
}

// x^(2^n) by n squarings. The square-root ladder below stays on the
// four-limb comba kernels rather than the 5x52 ones: an exponentiation is
// one long serial dependency chain, and the comba squaring has the shorter
// latency (the 5x52 representation wins on throughput, which only point
// formulas with several independent multiplications can exploit).
U256 SqrN(U256 x, int n) {
  for (int i = 0; i < n; ++i) x = FieldSqr(x);
  return x;
}

// The ladder of the square-root exponentiation: x<k> denotes a^(2^k - 1).
// p's binary form (223 ones, then structured low bits) makes (p+1)/4
// reachable from a^(2^223 - 1) with a handful of extra steps — the standard
// secp256k1 addition chain.
struct FermatLadder {
  U256 x2, x3, x22, x223;
};

FermatLadder BuildLadder(const U256& a) {
  FermatLadder l;
  l.x2 = FieldMul(FieldSqr(a), a);
  l.x3 = FieldMul(FieldSqr(l.x2), a);
  U256 x6 = FieldMul(SqrN(l.x3, 3), l.x3);
  U256 x9 = FieldMul(SqrN(x6, 3), l.x3);
  U256 x11 = FieldMul(SqrN(x9, 2), l.x2);
  l.x22 = FieldMul(SqrN(x11, 11), x11);
  U256 x44 = FieldMul(SqrN(l.x22, 22), l.x22);
  U256 x88 = FieldMul(SqrN(x44, 44), x44);
  U256 x176 = FieldMul(SqrN(x88, 88), x88);
  U256 x220 = FieldMul(SqrN(x176, 44), x44);
  l.x223 = FieldMul(SqrN(x220, 3), l.x3);
  return l;
}

// a^((p+1)/4) mod p — a square root when a is a quadratic residue; callers
// must verify the result squares back (non-residues return garbage).
U256 FieldSqrt(const U256& a) {
  FermatLadder l = BuildLadder(a);
  U256 t = FieldMul(SqrN(l.x223, 23), l.x22);
  t = FieldMul(SqrN(t, 6), l.x2);
  return SqrN(t, 2);
}

// ---- Jacobian point arithmetic (a = 0 curve), over 5x52 elements ----
//
// Coordinate magnitude invariants: x, y <= 1 after every formula below
// (outputs are weak-normalized), z <= 2 (the trailing doubling is stored
// as-is), and y <= 6 for the φ-table base point in JacScalarMulSplit (an
// unnormalized FeNegate) — every formula's multiplier inputs stay within
// the FeMul/FeSqr magnitude-32 bound under these.

struct Jacobian {
  Fe x;
  Fe y;
  Fe z;  // exact all-zero limbs mean infinity (see IsInfinity)

  // Formulas only ever produce z as a canonical zero (the explicit
  // infinity branches), so the exact-limb test is safe: a FeMul output
  // can represent 0 non-canonically only if an input was ≡ 0 mod p, and
  // the h ≡ 0 / y ≡ 0 cases are branched out first.
  bool IsInfinity() const {
    return (z.n[0] | z.n[1] | z.n[2] | z.n[3] | z.n[4]) == 0;
  }
};

// Affine (z = 1) table entry kept in the 5x52 representation, for mixed
// additions straight out of precomputed tables.
struct FeAffine {
  Fe x;
  Fe y;
};

constexpr Jacobian kJacInfinity{kFeOne, kFeOne, kFeZero};

Jacobian ToJacobian(const AffinePoint& p) {
  if (p.infinity) return kJacInfinity;
  return {FeFromU256(p.x), FeFromU256(p.y), kFeOne};
}

AffinePoint ToAffine(const Jacobian& p) {
  if (p.IsInfinity()) return {U256(), U256(), true};
  Fe zinv = FeFromU256(ModInverseDivsteps(FeToU256(p.z), kP));
  Fe zinv2 = FeSqr(zinv);
  Fe zinv3 = FeMul(zinv2, zinv);
  return {FeToU256(FeMul(p.x, zinv2)), FeToU256(FeMul(p.y, zinv3)), false};
}

// dbl-2009-l. A y ≡ 0 input would need a point of order 2, which a prime
// odd-order group has none of; z3 = 2yz still degrades to a canonical-zero
// z for an exact y = 0, keeping the identity representable.
Jacobian JacDouble(const Jacobian& p) {
  if (p.IsInfinity()) return kJacInfinity;
  Fe a = FeSqr(p.x);                            // A = X1^2
  Fe b = FeSqr(p.y);                            // B = Y1^2
  Fe c = FeSqr(b);                              // C = B^2
  Fe t = FeSqr(FeAdd(p.x, b));                  // (X1+B)^2
  Fe d = FeMulInt(FeAdd(FeAdd(t, FeNegate(a, 1)), FeNegate(c, 1)), 2);
  Fe e = FeMulInt(a, 3);                        // E = 3A
  Fe f = FeSqr(e);                              // F = E^2
  Fe x3 = FeAdd(f, FeNegate(FeMulInt(d, 2), 36));  // F - 2D
  FeNormalizeWeak(x3);
  Fe y3 = FeAdd(FeMul(e, FeAdd(d, FeNegate(x3, 1))),   // E(D - X3)
                FeNegate(FeMulInt(c, 8), 8));          // - 8C
  FeNormalizeWeak(y3);
  Fe z3 = FeMulInt(FeMul(p.y, p.z), 2);
  return {x3, y3, z3};
}

// add-2007-bl.
Jacobian JacAdd(const Jacobian& p, const Jacobian& q) {
  if (p.IsInfinity()) return q;
  if (q.IsInfinity()) return p;
  Fe z1z1 = FeSqr(p.z);
  Fe z2z2 = FeSqr(q.z);
  Fe u1 = FeMul(p.x, z2z2);
  Fe u2 = FeMul(q.x, z1z1);
  Fe s1 = FeMul(p.y, FeMul(z2z2, q.z));
  Fe s2 = FeMul(q.y, FeMul(z1z1, p.z));
  Fe h = FeAdd(u2, FeNegate(u1, 1));      // U2 - U1
  Fe sdiff = FeAdd(s2, FeNegate(s1, 1));  // S2 - S1
  if (FeIsZeroVar(h)) {
    if (!FeIsZeroVar(sdiff)) return kJacInfinity;  // P + (-P)
    return JacDouble(p);
  }
  Fe i = FeSqr(FeMulInt(h, 2));
  Fe j = FeMul(h, i);
  Fe r = FeMulInt(sdiff, 2);
  Fe v = FeMul(u1, i);
  Fe x3 = FeAdd(FeAdd(FeSqr(r), FeNegate(j, 1)),
                FeNegate(FeMulInt(v, 2), 2));
  FeNormalizeWeak(x3);
  Fe y3 = FeAdd(FeMul(r, FeAdd(v, FeNegate(x3, 1))),
                FeNegate(FeMulInt(FeMul(s1, j), 2), 2));
  FeNormalizeWeak(y3);
  Fe z3 = FeMulInt(FeMul(FeMul(p.z, q.z), h), 2);
  return {x3, y3, z3};
}

// Mixed addition p + q with q affine (z2 = 1): saves the z2 squaring/cubing
// of the general formula. Table entries are affine precisely for this.
Jacobian JacAddMixed(const Jacobian& p, const FeAffine& q) {
  if (p.IsInfinity()) return {q.x, q.y, kFeOne};
  Fe z1z1 = FeSqr(p.z);
  Fe u2 = FeMul(q.x, z1z1);
  Fe s2 = FeMul(q.y, FeMul(z1z1, p.z));
  Fe h = FeAdd(u2, FeNegate(p.x, 2));      // U2 - X1
  Fe sdiff = FeAdd(s2, FeNegate(p.y, 6));  // S2 - Y1
  if (FeIsZeroVar(h)) {
    if (!FeIsZeroVar(sdiff)) return kJacInfinity;  // P + (-P)
    return JacDouble(p);
  }
  Fe i = FeSqr(FeMulInt(h, 2));
  Fe j = FeMul(h, i);
  Fe r = FeMulInt(sdiff, 2);
  Fe v = FeMul(p.x, i);
  Fe x3 = FeAdd(FeAdd(FeSqr(r), FeNegate(j, 1)),
                FeNegate(FeMulInt(v, 2), 2));
  FeNormalizeWeak(x3);
  Fe y3 = FeAdd(FeMul(r, FeAdd(v, FeNegate(x3, 1))),
                FeNegate(FeMulInt(FeMul(p.y, j), 2), 2));
  FeNormalizeWeak(y3);
  Fe z3 = FeMulInt(FeMul(p.z, h), 2);
  return {x3, y3, z3};
}

Jacobian JacNeg(const Jacobian& p) {
  Fe y = FeNegate(p.y, 6);  // 6 covers every stored-y magnitude in this file
  FeNormalizeWeak(y);
  return {p.x, y, p.z};
}

const AffinePoint kG = {
    U256(0x79be667ef9dcbbacULL, 0x55a06295ce870b07ULL, 0x029bfcdb2dce28d9ULL,
         0x59f2815b16f81798ULL),
    U256(0x483ada7726a3c465ULL, 0x5da4fbfc0e1108a8ULL, 0xfd17b448a6855419ULL,
         0x9c47d08ffb10d4b8ULL),
    false};

// ---- Scalar multiplication: comb/wNAF tables + GLV ----

// Normalizes a batch of (non-infinity) Jacobian points with one inversion
// (Montgomery's trick) — used to build affine precomputation tables.
std::vector<FeAffine> BatchToAffine(const std::vector<Jacobian>& pts) {
  std::vector<Fe> prefix(pts.size());
  Fe acc = kFeOne;
  for (size_t i = 0; i < pts.size(); ++i) {
    assert(!pts[i].IsInfinity());
    prefix[i] = acc;                 // z_0 * ... * z_{i-1}
    acc = FeMul(acc, pts[i].z);
  }
  // 1 / (z_0 * ... * z_{n-1})
  Fe inv = FeFromU256(ModInverseDivsteps(FeToU256(acc), kP));
  std::vector<FeAffine> out(pts.size());
  for (size_t i = pts.size(); i-- > 0;) {
    Fe zinv = FeMul(inv, prefix[i]);  // 1 / z_i
    inv = FeMul(inv, pts[i].z);
    Fe zinv2 = FeSqr(zinv);
    out[i] = {FeMul(pts[i].x, zinv2),
              FeMul(pts[i].y, FeMul(zinv2, zinv))};
  }
  return out;
}

// Fixed-base comb for G: table[w][d-1] = d * 2^(8w) * G for d in 1..255,
// w in 0..31. k*G is then at most 32 mixed additions and zero doublings.
// No entry is ever the identity: d * 2^(8w) < 2^256 is never a multiple of
// the (prime, odd, > 2^255) group order. The table is ~574 KiB, built once
// on first use (8k additions + one batched inversion).
constexpr int kCombWindows = 32;
constexpr int kCombDigits = 255;

struct FixedBaseTable {
  FeAffine pts[kCombWindows][kCombDigits];
};

const FixedBaseTable* BuildFixedBaseTable() {
  auto* table = new FixedBaseTable;
  std::vector<Jacobian> jac;
  jac.reserve(kCombWindows * kCombDigits);
  Jacobian base = ToJacobian(kG);
  for (int w = 0; w < kCombWindows; ++w) {
    Jacobian cur = base;
    for (int d = 1; d <= kCombDigits; ++d) {
      jac.push_back(cur);
      if (d < kCombDigits) cur = JacAdd(cur, base);
    }
    for (int i = 0; i < 8; ++i) base = JacDouble(base);  // base *= 256
  }
  std::vector<FeAffine> affine = BatchToAffine(jac);
  for (int w = 0; w < kCombWindows; ++w) {
    for (int d = 0; d < kCombDigits; ++d) {
      table->pts[w][d] = affine[w * kCombDigits + d];
    }
  }
  return table;
}

const FixedBaseTable& GetFixedBaseTable() {
  static const FixedBaseTable* table = BuildFixedBaseTable();
  return *table;
}

// k*G via the comb table; k must already be reduced mod n.
Jacobian JacScalarBaseMul(const U256& k) {
  const FixedBaseTable& table = GetFixedBaseTable();
  Jacobian acc = kJacInfinity;
  for (int w = 0; w < kCombWindows; ++w) {
    uint32_t digit =
        static_cast<uint32_t>(k.limb(w / 8) >> ((w % 8) * 8)) & 0xFF;
    if (digit != 0) acc = JacAddMixed(acc, table.pts[w][digit - 1]);
  }
  return acc;
}

// Width-5 wNAF: little-endian signed digits, each odd in [-15, 15] or zero.
constexpr int kWnafWidth = 5;
constexpr int kWnafTableSize = 1 << (kWnafWidth - 2);  // 8 odd multiples
// A 256-bit scalar emits at most 257 digits (the +15 adjustment can carry
// one bit past the top).
constexpr int kWnafMaxDigits = 258;

// Digits into a caller-provided buffer, raw-limb (no U256 temporaries, no
// heap): returns the digit count.
int Wnaf(const U256& k, int8_t out[kWnafMaxDigits]) {
  uint64_t w[5] = {k.limb(0), k.limb(1), k.limb(2), k.limb(3), 0};
  int n = 0;
  while ((w[0] | w[1] | w[2] | w[3] | w[4]) != 0) {
    int digit = 0;
    if (w[0] & 1) {
      digit = static_cast<int>(w[0] & 31);
      if (digit > 16) digit -= 32;
      if (digit > 0) {
        uint64_t d = static_cast<uint64_t>(digit);
        uint64_t borrow = w[0] < d ? 1 : 0;
        w[0] -= d;
        for (int i = 1; borrow != 0 && i < 5; ++i) {
          borrow = w[i] == 0 ? 1 : 0;
          --w[i];
        }
      } else {
        uint64_t d = static_cast<uint64_t>(-digit);
        uint64_t before = w[0];
        w[0] += d;
        uint64_t carry = w[0] < before ? 1 : 0;
        for (int i = 1; carry != 0 && i < 5; ++i) {
          ++w[i];
          carry = w[i] == 0 ? 1 : 0;
        }
      }
    }
    out[n++] = static_cast<int8_t>(digit);
    w[0] = (w[0] >> 1) | (w[1] << 63);
    w[1] = (w[1] >> 1) | (w[2] << 63);
    w[2] = (w[2] >> 1) | (w[3] << 63);
    w[3] = (w[3] >> 1) | (w[4] << 63);
    w[4] >>= 1;
  }
  return n;
}

// JacAdd with the result's z-ratio exposed: *zr = z3 / z1. Only valid when
// neither operand is infinity and p != ±q — which the table construction
// below guarantees (every scalar involved is far below the group order).
Jacobian JacAddWithRatio(const Jacobian& p, const Jacobian& q, Fe* zr) {
  Fe z1z1 = FeSqr(p.z);
  Fe z2z2 = FeSqr(q.z);
  Fe u1 = FeMul(p.x, z2z2);
  Fe u2 = FeMul(q.x, z1z1);
  Fe s1 = FeMul(p.y, FeMul(z2z2, q.z));
  Fe s2 = FeMul(q.y, FeMul(z1z1, p.z));
  Fe h = FeAdd(u2, FeNegate(u1, 1));
  Fe sdiff = FeAdd(s2, FeNegate(s1, 1));
  Fe i = FeSqr(FeMulInt(h, 2));
  Fe j = FeMul(h, i);
  Fe r = FeMulInt(sdiff, 2);
  Fe v = FeMul(u1, i);
  Fe x3 = FeAdd(FeAdd(FeSqr(r), FeNegate(j, 1)),
                FeNegate(FeMulInt(v, 2), 2));
  FeNormalizeWeak(x3);
  Fe y3 = FeAdd(FeMul(r, FeAdd(v, FeNegate(x3, 1))),
                FeNegate(FeMulInt(FeMul(s1, j), 2), 2));
  FeNormalizeWeak(y3);
  *zr = FeMulInt(FeMul(q.z, h), 2);  // z3 = z1 * (2 * z2 * h)
  Fe z3 = FeMul(p.z, *zr);
  return {x3, y3, z3};
}

// Odd multiples 1P, 3P, ..., 15P expressed against one shared denominator
// ("effective affine"): out[i] holds affine coordinates of (2i+1)P under
// the curve isomorphism (x, y) -> (x Z^2, y Z^3) for the returned Z. The
// a = 0 Jacobian formulas never touch the curve constant, so mixed-adding
// these entries into an accumulator computes the right group operation on
// the isomorphic curve; the caller repairs the final point with a single
// z *= Z. That turns every table addition in the wNAF loop into the
// cheaper mixed form, at the cost of one inversion-free rescale pass here.
Fe BuildOddMultiplesEffAffine(const Jacobian& p,
                              FeAffine out[kWnafTableSize]) {
  Jacobian jac[kWnafTableSize];
  Fe zr[kWnafTableSize];  // zr[i] = z_i / z_{i-1}
  jac[0] = p;
  Jacobian twop = JacDouble(p);
  for (int i = 1; i < kWnafTableSize; ++i) {
    jac[i] = JacAddWithRatio(jac[i - 1], twop, &zr[i]);
  }
  constexpr int kLast = kWnafTableSize - 1;
  out[kLast] = {jac[kLast].x, jac[kLast].y};
  Fe zs = zr[kLast];  // accumulates Z / z_i as the walk descends
  for (int i = kLast; i-- > 0;) {
    Fe zs2 = FeSqr(zs);
    out[i] = {FeMul(jac[i].x, zs2), FeMul(jac[i].y, FeMul(zs2, zs))};
    if (i > 0) zs = FeMul(zs, zr[i]);
  }
  return jac[kLast].z;
}

FeAffine NegAffine(const FeAffine& a) { return {a.x, FeNegate(a.y, 1)}; }

// A scalar as ±k1 ± k2·λ (mod n), both halves in [0, n/2] (see the GLV
// section below). {.k1 = k} with k2 = 0 is the unsplit scalar.
struct GlvSplit {
  U256 k1;
  U256 k2{};
  bool neg1 = false;
  bool neg2 = false;
  bool ok = false;  // set by GlvDecompose when the split passed its checks
};

// ±k1·P ± k2·φ(P) over one shared doubling chain: width-5 wNAF digits
// mixed-added from effective-affine odd-multiple tables, the φ table
// derived from the first with β. This is the only variable-point loop; an
// unsplit scalar (k2 = 0, β unused) runs it without the endomorphism.
Jacobian JacScalarMulSplit(const Jacobian& p, const GlvSplit& split,
                           const U256& beta) {
  int8_t naf1[kWnafMaxDigits];
  int8_t naf2[kWnafMaxDigits];
  int len1 = split.k1.IsZero() ? 0 : Wnaf(split.k1, naf1);
  int len2 = split.k2.IsZero() ? 0 : Wnaf(split.k2, naf2);
  FeAffine odd1[kWnafTableSize];
  FeAffine odd2[kWnafTableSize];
  // Both tables share one global Z: φ only scales x by β, leaving every
  // entry's denominator — and therefore the isomorphism — unchanged.
  Fe globalz = kFeOne;
  if (len1 > 0) {
    globalz = BuildOddMultiplesEffAffine(split.neg1 ? JacNeg(p) : p, odd1);
  }
  if (len2 > 0) {
    const Fe beta_fe = FeFromU256(beta);
    if (len1 > 0) {
      // φ(d·P1) = d·φ(P1): (βx, y). A sign flip on y reconciles the two
      // halves' negations.
      bool flip = split.neg1 != split.neg2;
      for (int i = 0; i < kWnafTableSize; ++i) {
        Fe y = odd1[i].y;
        if (flip) {
          y = FeNegate(y, 1);
          FeNormalizeWeak(y);
        }
        odd2[i] = {FeMul(beta_fe, odd1[i].x), y};
      }
    } else {
      Jacobian base = {FeMul(beta_fe, p.x),
                       split.neg2 ? FeNegate(p.y, 2) : p.y, p.z};
      globalz = BuildOddMultiplesEffAffine(base, odd2);
    }
  }
  Jacobian acc = kJacInfinity;
  for (int i = std::max(len1, len2); i-- > 0;) {
    acc = JacDouble(acc);
    if (i < len1) {
      int d = naf1[i];
      if (d > 0) {
        acc = JacAddMixed(acc, odd1[(d - 1) / 2]);
      } else if (d < 0) {
        acc = JacAddMixed(acc, NegAffine(odd1[(-d - 1) / 2]));
      }
    }
    if (i < len2) {
      int d = naf2[i];
      if (d > 0) {
        acc = JacAddMixed(acc, odd2[(d - 1) / 2]);
      } else if (d < 0) {
        acc = JacAddMixed(acc, NegAffine(odd2[(-d - 1) / 2]));
      }
    }
  }
  // Undo the table isomorphism. An all-zero z stays all-zero, so the
  // identity survives the rescale.
  acc.z = FeMul(acc.z, globalz);
  return acc;
}

// ---- GLV endomorphism ----
//
// secp256k1 has an efficient endomorphism φ(x, y) = (βx, y) acting as
// multiplication by λ, where λ³ ≡ 1 (mod n) and β³ ≡ 1 (mod p). Splitting
// k ≡ k1 + k2·λ (mod n) with |k1|, |k2| ≈ √n halves the doubling count of
// a variable-point multiplication: two ~129-bit wNAF scalars share one
// doubling chain, and the second table is φ of the first (one field
// multiplication per entry).
//
// The lattice basis (a1, b1), (a2, b2) below is the classical one for
// secp256k1 (b1 is negative; |b1| is stored). The division estimates
// g_i = floor(2^384 * b_i / n) are not hard-coded: they are re-derived at
// startup by exact long division. Every constant is then verified (λ and β
// are cube roots of unity, a_i + b_i·λ ≡ 0 mod n, and φ(G) = λ·G against
// the unsplit loop); each decomposition is also checked to recompose. Any
// mismatch disables the context and the loop runs on the unsplit scalar —
// wrong constants can cost speed, never correctness.

// floor((num << 384) / den) for den > 2^255, by bit-at-a-time long division
// with a 257-bit remainder tracked as (high, rem). The quotient must fit in
// 256 bits; returns 0 (a harmless "no adjustment" estimate) if it would not.
U256 DivShifted384(const U256& num, const U256& den) {
  U256 q(0);
  U256 rem(0);
  for (int i = 512; i >= 0; --i) {
    bool high = rem.Bit(255);
    rem = rem << 1;
    int src = i - 384;
    if (src >= 0 && num.Bit(src)) rem.SetBit(0);
    if (high || rem >= den) {
      rem = high ? rem + (U256(0) - den) : rem - den;
      if (i >= 256) return U256(0);
      q.SetBit(i);
    }
  }
  return q;
}

// round((a * b) / 2^384) via the full 512-bit product.
U256 MulShift384Round(const U256& a, const U256& b) {
  uint64_t f[8];
  MulWide(a, b, f);
  u128 t = static_cast<u128>(f[6]) + (f[5] >> 63);
  uint64_t lo = static_cast<uint64_t>(t);
  uint64_t hi = f[7] + static_cast<uint64_t>(t >> 64);
  return U256(0, 0, hi, lo);
}

struct GlvContext {
  bool ok = false;
  U256 lambda, beta;
  U256 a1, b1, a2, b2;  // b1 holds |b1|; the sign is folded into the algebra
  U256 g1, g2;          // floor(2^384 * b2 / n), floor(2^384 * |b1| / n)
};

const GlvContext& GetGlv() {
  static const GlvContext ctx = [] {
    GlvContext g;
    g.lambda = U256(0x5363ad4cc05c30e0ULL, 0xa5261c028812645aULL,
                    0x122e22ea20816678ULL, 0xdf02967c1b23bd72ULL);
    g.beta = U256(0x7ae96a2b657c0710ULL, 0x6e64479eac3434e9ULL,
                  0x9cf0497512f58995ULL, 0xc1396c28719501eeULL);
    g.a1 = U256(0, 0, 0x3086d221a7d46bcdULL, 0xe86c90e49284eb15ULL);
    g.b1 = U256(0, 0, 0xe4437ed6010e8828ULL, 0x6f547fa90abfe4c3ULL);
    g.a2 = U256(0, 1, 0x14ca50f7a8e2f3f6ULL, 0x57c1108d9d44cfd8ULL);
    g.b2 = g.a1;
    g.g1 = DivShifted384(g.b2, kN);
    g.g2 = DivShifted384(g.b1, kN);
    // λ³ ≡ 1 (mod n), λ ≠ 1.
    U256 l2 = MulModN(g.lambda, g.lambda);
    if (MulModN(l2, g.lambda) != U256(1) || g.lambda == U256(1)) {
      return g;
    }
    // β³ ≡ 1 (mod p), β ≠ 1.
    U256 b2sq = FieldMul(g.beta, g.beta);
    if (FieldMul(b2sq, g.beta) != U256(1) || g.beta == U256(1)) return g;
    // Basis vectors lie in the lattice: a_i + b_i·λ ≡ 0 (mod n).
    if (MulModN(g.b1, g.lambda) != g.a1) return g;  // b1 < 0
    if (U256::AddMod(g.a2, MulModN(g.b2, g.lambda), kN) != U256()) {
      return g;
    }
    // φ(G) must equal λ·G, computed by the unsplit loop directly
    // (JacScalarMul would re-enter GetGlv during this initialization).
    AffinePoint lg = ToAffine(
        JacScalarMulSplit(ToJacobian(kG), GlvSplit{.k1 = g.lambda}, g.beta));
    if (lg.infinity || lg.x != FieldMul(g.beta, kG.x) || lg.y != kG.y) {
      return g;
    }
    g.ok = true;
    return g;
  }();
  return ctx;
}

inline U256 SubModN(const U256& a, const U256& b) {  // both already < n
  return a >= b ? a - b : a + (kN - b);
}

GlvSplit GlvDecompose(const U256& k, const GlvContext& g) {
  GlvSplit s;
  U256 c1 = MulShift384Round(k, g.g1);
  U256 c2 = MulShift384Round(k, g.g2);
  U256 t = U256::AddMod(MulModN(c1, g.a1), MulModN(c2, g.a2), kN);
  s.k1 = SubModN(k % kN, t);
  // k2 = -(c1*b1 + c2*b2) = c1*|b1| - c2*b2 (mod n).
  s.k2 = SubModN(MulModN(c1, g.b1), MulModN(c2, g.b2));
  // The split must recompose before sign-normalization: k1 + k2·λ ≡ k.
  if (U256::AddMod(s.k1, MulModN(s.k2, g.lambda), kN) != k % kN) {
    return s;
  }
  static const U256 kHalfN = kN >> 1;
  if (s.k1 > kHalfN) {
    s.k1 = kN - s.k1;
    s.neg1 = true;
  }
  if (s.k2 > kHalfN) {
    s.k2 = kN - s.k2;
    s.neg2 = true;
  }
  // Both halves should be ~129 bits; anything larger means the rounding
  // estimates are off, and the unsplit scalar is the better choice.
  s.ok = s.k1.BitLength() <= 160 && s.k2.BitLength() <= 160;
  return s;
}

// Variable-point multiplication; k must be reduced mod n. Runs the GLV
// split when the constants and this scalar's split pass their checks, and
// the unsplit scalar otherwise.
Jacobian JacScalarMul(const Jacobian& p, const U256& k) {
  if (k.IsZero() || p.IsInfinity()) return kJacInfinity;
  const GlvContext& glv = GetGlv();
  GlvSplit split;
  if (glv.ok) split = GlvDecompose(k, glv);
  if (!split.ok) split = GlvSplit{.k1 = k};
  return JacScalarMulSplit(p, split, glv.beta);
}

// u1*G + u2*P — the whole cost of a verify/recover. The variable point
// takes the GLV path (~129 shared doublings); G's contribution then folds
// into the same accumulator through the fixed-base comb, which needs no
// doublings at all.
Jacobian DoubleScalarMul(const U256& u1, const U256& u2, const Jacobian& p) {
  Jacobian acc = JacScalarMul(p, u2);
  if (!u1.IsZero()) {
    const FixedBaseTable& table = GetFixedBaseTable();
    for (int w = 0; w < kCombWindows; ++w) {
      uint32_t digit =
          static_cast<uint32_t>(u1.limb(w / 8) >> ((w % 8) * 8)) & 0xFF;
      if (digit != 0) acc = JacAddMixed(acc, table.pts[w][digit - 1]);
    }
  }
  return acc;
}

}  // namespace

namespace internal {

U256 FieldMul(const U256& a, const U256& b) {
  return onoff::secp256k1::FieldMul(a, b);
}
U256 FieldSqr(const U256& a) { return onoff::secp256k1::FieldSqr(a); }
U256 FieldInv(const U256& a) { return ModInverseDivsteps(a, kP); }
U256 FieldSqrt(const U256& a) { return onoff::secp256k1::FieldSqrt(a); }
U256 ScalarInv(const U256& a) { return ModInverseDivsteps(a, kN); }
U256 ScalarMulMod(const U256& a, const U256& b) { return MulModN(a, b); }
bool GlvEnabled() { return GetGlv().ok; }

}  // namespace internal

const U256& FieldPrime() {
  static const U256 p = kP;
  return p;
}

const U256& GroupOrder() {
  static const U256 n = kN;
  return n;
}

const AffinePoint& Generator() { return kG; }

bool IsOnCurve(const AffinePoint& pt) {
  if (pt.infinity) return true;
  if (pt.x >= kP || pt.y >= kP) return false;
  U256 lhs = FieldSqr(pt.y);
  U256 rhs = FieldAdd(FieldMul(FieldSqr(pt.x), pt.x), U256(7));
  return lhs == rhs;
}

AffinePoint Add(const AffinePoint& a, const AffinePoint& b) {
  return ToAffine(JacAdd(ToJacobian(a), ToJacobian(b)));
}

AffinePoint ScalarMul(const AffinePoint& pt, const U256& scalar) {
  return ToAffine(JacScalarMul(ToJacobian(pt), scalar % kN));
}

AffinePoint ScalarBaseMul(const U256& k) {
  return ToAffine(JacScalarBaseMul(k % kN));
}

Bytes Signature::Serialize() const {
  Bytes out = r.ToBytes();
  Bytes sb = s.ToBytes();
  Append(out, sb);
  out.push_back(v);
  return out;
}

Result<Signature> Signature::Deserialize(BytesView data) {
  if (data.size() != 65) {
    return Status::InvalidArgument("signature must be 65 bytes (r||s||v)");
  }
  Signature sig;
  sig.r = U256::FromBigEndianTruncating(data.subspan(0, 32));
  sig.s = U256::FromBigEndianTruncating(data.subspan(32, 32));
  sig.v = data[64];
  return sig;
}

Result<PrivateKey> PrivateKey::FromScalar(const U256& d) {
  if (d.IsZero() || d >= kN) {
    return Status::InvalidArgument("private key scalar out of range [1, n-1]");
  }
  return PrivateKey(d);
}

Result<PrivateKey> PrivateKey::FromHex(std::string_view hex) {
  ONOFF_ASSIGN_OR_RETURN(U256 d, U256::FromHex(hex));
  return FromScalar(d);
}

PrivateKey PrivateKey::FromSeed(std::string_view seed) {
  Bytes material = BytesOf(seed);
  for (;;) {
    Hash32 h = Keccak256(material);
    U256 d = U256::FromBigEndianTruncating(BytesView(h.data(), h.size()));
    if (!d.IsZero() && d < kN) return PrivateKey(d);
    material.assign(h.begin(), h.end());
  }
}

AffinePoint PrivateKey::PublicKey() const { return ScalarBaseMul(d_); }

Address PrivateKey::EthAddress() const {
  return PublicKeyToAddress(PublicKey());
}

Bytes SerializePoint(const AffinePoint& pt, bool compressed) {
  Bytes out;
  if (compressed) {
    out.push_back(pt.y.Bit(0) ? 0x03 : 0x02);
    Bytes x = pt.x.ToBytes();
    Append(out, x);
  } else {
    out.push_back(0x04);
    Bytes x = pt.x.ToBytes();
    Bytes y = pt.y.ToBytes();
    Append(out, x);
    Append(out, y);
  }
  return out;
}

Result<AffinePoint> ParsePoint(BytesView data) {
  if (data.size() == 65 && data[0] == 0x04) {
    AffinePoint pt;
    pt.x = U256::FromBigEndianTruncating(data.subspan(1, 32));
    pt.y = U256::FromBigEndianTruncating(data.subspan(33, 32));
    if (!IsOnCurve(pt)) {
      return Status::VerificationFailed("point not on curve");
    }
    return pt;
  }
  if (data.size() == 33 && (data[0] == 0x02 || data[0] == 0x03)) {
    AffinePoint pt;
    pt.x = U256::FromBigEndianTruncating(data.subspan(1, 32));
    if (pt.x >= kP) {
      return Status::VerificationFailed("x exceeds field prime");
    }
    U256 y2 = FieldAdd(FieldMul(FieldSqr(pt.x), pt.x), U256(7));
    U256 y = FieldSqrt(y2);
    if (FieldSqr(y) != y2) {
      return Status::VerificationFailed("x is not on the curve");
    }
    bool want_odd = data[0] == 0x03;
    pt.y = (y.Bit(0) == want_odd) ? y : FieldNeg(y);
    return pt;
  }
  return Status::VerificationFailed("malformed SEC1 point encoding");
}

Address PublicKeyToAddress(const AffinePoint& pub) {
  Bytes xy = pub.x.ToBytes();
  Bytes yb = pub.y.ToBytes();
  Append(xy, yb);
  Hash32 h = Keccak256(xy);
  Address out;
  auto r = Address::FromBytes(BytesView(h.data() + 12, 20));
  assert(r.ok());
  return *r;
}

namespace {

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

Result<Signature> Sign(const Hash32& digest, const PrivateKey& key) {
  static obs::Counter* sign_ops = obs::GetCounterOrNull("crypto.sign_ops");
  if (sign_ops != nullptr) sign_ops->Inc();
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
    U256 kinv = ModInverseDivsteps(k, kN);
    U256 rd = MulModN(r, key.scalar());
    U256 s = MulModN(kinv, U256::AddMod(z, rd, kN));
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
  static obs::Counter* verify_ops = obs::GetCounterOrNull("crypto.verify_ops");
  if (verify_ops != nullptr) verify_ops->Inc();
  if (sig.r.IsZero() || sig.r >= kN || sig.s.IsZero() || sig.s >= kN) {
    return false;
  }
  if (!IsOnCurve(pub) || pub.infinity) return false;
  U256 z = U256::FromBigEndianTruncating(BytesView(digest.data(), 32)) % kN;
  U256 sinv = ModInverseDivsteps(sig.s, kN);
  U256 u1 = MulModN(z, sinv);
  U256 u2 = MulModN(sig.r, sinv);
  AffinePoint res = ToAffine(DoubleScalarMul(u1, u2, ToJacobian(pub)));
  if (res.infinity) return false;
  return res.x % kN == sig.r;
}

Result<AffinePoint> Recover(const Hash32& digest, uint8_t v, const U256& r,
                            const U256& s) {
  static obs::Counter* recover_ops =
      obs::GetCounterOrNull("crypto.recover_ops");
  if (recover_ops != nullptr) recover_ops->Inc();
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
  if (y.Bit(0) != want_odd) y = FieldNeg(y);
  AffinePoint r_point{x, y, false};

  U256 z = U256::FromBigEndianTruncating(BytesView(digest.data(), 32)) % kN;
  U256 rinv = ModInverseDivsteps(r, kN);
  // Q = r^{-1} (s*R - z*G)
  U256 u1 = MulModN(kN - z % kN, rinv);  // -z/r mod n
  U256 u2 = MulModN(s, rinv);
  AffinePoint pub = ToAffine(DoubleScalarMul(u1, u2, ToJacobian(r_point)));
  if (pub.infinity) {
    return Status::VerificationFailed("recovered point at infinity");
  }
  return pub;
}

Result<Address> RecoverAddress(const Hash32& digest, uint8_t v, const U256& r,
                               const U256& s) {
  ONOFF_ASSIGN_OR_RETURN(AffinePoint pub, Recover(digest, v, r, s));
  return PublicKeyToAddress(pub);
}

}  // namespace onoff::secp256k1
