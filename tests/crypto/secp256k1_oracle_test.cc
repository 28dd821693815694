// Differential tests pinning the library's secp256k1 path (wNAF windows,
// fixed-base comb, addition-chain inverses) bit-for-bit to the seed
// implementation kept as a test-only oracle, community known-answer vectors
// for RFC 6979 signing, and a seeded mutational fuzz of the signature and
// SEC1 point decoders against the oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "crypto/keccak.h"
#include "crypto/secp256k1.h"
#include "crypto/secp256k1_oracle.h"
#include "crypto/sha256.h"
#include "support/bytes.h"

namespace onoff::secp256k1 {
namespace {

Hash32 DigestOf(std::string_view msg) { return Keccak256(BytesOf(msg)); }

// Deterministic xorshift64* stream so failures reproduce exactly.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    state_ ^= state_ >> 12;
    state_ ^= state_ << 25;
    state_ ^= state_ >> 27;
    return state_ * 0x2545f4914f6cdd1dULL;
  }
  U256 NextU256() { return U256(Next(), Next(), Next(), Next()); }
  // A uniform-ish field element in [0, p).
  U256 NextFieldElement() { return NextU256() % FieldPrime(); }
  // A valid scalar in [1, n-1].
  U256 NextScalar() {
    U256 k = NextU256() % GroupOrder();
    return k.IsZero() ? U256(1) : k;
  }

 private:
  uint64_t state_;
};

// Scalars that exercise wNAF / comb table corner cases: tiny values, the
// order boundary, single bits (window-aligned and not), and dense patterns.
std::vector<U256> EdgeScalars() {
  std::vector<U256> edges = {
      U256(1),
      U256(2),
      U256(3),
      U256(15),
      U256(16),
      U256(17),
      GroupOrder() - U256(1),
      GroupOrder() - U256(2),
      (GroupOrder() >> 1),
      (GroupOrder() >> 1) + U256(1),
      U256(0xaaaaaaaaaaaaaaaaULL, 0xaaaaaaaaaaaaaaaaULL,
           0xaaaaaaaaaaaaaaaaULL, 0xaaaaaaaaaaaaaaaaULL) % GroupOrder(),
      U256(0x5555555555555555ULL, 0x5555555555555555ULL,
           0x5555555555555555ULL, 0x5555555555555555ULL) % GroupOrder(),
  };
  for (int bit = 0; bit < 256; bit += 31) {  // crosses every window width
    U256 k;
    k.SetBit(bit);
    edges.push_back(k % GroupOrder());
  }
  return edges;
}

TEST(Secp256k1OracleTest, FieldKernelsAgreeOnEdgeValues) {
  const U256& p = FieldPrime();
  std::vector<U256> edges = {U256(1), U256(2), U256(3), p - U256(1),
                             p - U256(2), (p >> 1), (p >> 1) + U256(1),
                             U256(0x1000003d1ULL)};  // the reduction constant
  for (const U256& a : edges) {
    EXPECT_EQ(internal::FieldSqr(a), oracle::FieldSqr(a)) << a.ToHexFull();
    EXPECT_EQ(internal::FieldInv(a), oracle::FieldInv(a)) << a.ToHexFull();
    EXPECT_EQ(internal::FieldSqrt(a), oracle::FieldSqrt(a)) << a.ToHexFull();
  }
  // Squaring zero is zero; the square root of zero is degenerate but must
  // still agree with the oracle.
  EXPECT_EQ(internal::FieldSqr(U256()), U256());
  EXPECT_EQ(internal::FieldSqrt(U256()), oracle::FieldSqrt(U256()));
}

TEST(Secp256k1OracleTest, FieldKernelsAgreeOnRandomValues) {
  Rng rng(0x5ecf1e1d);
  for (int i = 0; i < 1000; ++i) {
    U256 a = rng.NextFieldElement();
    if (a.IsZero()) a = U256(1);
    ASSERT_EQ(internal::FieldSqr(a), oracle::FieldSqr(a))
        << "case " << i << ": " << a.ToHexFull();
    ASSERT_EQ(internal::FieldSqrt(a), oracle::FieldSqrt(a))
        << "case " << i << ": " << a.ToHexFull();
    // Inversion is the slow oracle op; sample it more sparsely.
    if (i % 4 == 0) {
      ASSERT_EQ(internal::FieldInv(a), oracle::FieldInv(a))
          << "case " << i << ": " << a.ToHexFull();
      ASSERT_EQ(internal::FieldMul(a, internal::FieldInv(a)), U256(1))
          << "case " << i << ": " << a.ToHexFull();
    }
  }
}

TEST(Secp256k1OracleTest, ScalarBaseMulAgreesOnEdgeScalars) {
  for (const U256& k : EdgeScalars()) {
    AffinePoint lib = ScalarBaseMul(k);
    ASSERT_EQ(lib, oracle::ScalarBaseMul(k)) << "k=" << k.ToHexFull();
    ASSERT_TRUE(IsOnCurve(lib)) << "k=" << k.ToHexFull();
  }
  // n*G and 0*G are the identity in both.
  EXPECT_TRUE(ScalarBaseMul(GroupOrder()).infinity);
  EXPECT_TRUE(ScalarBaseMul(U256()).infinity);
  EXPECT_TRUE(oracle::ScalarBaseMul(GroupOrder()).infinity);
  EXPECT_TRUE(oracle::ScalarBaseMul(U256()).infinity);
}

TEST(Secp256k1OracleTest, ScalarBaseMulAgreesOnRandomScalars) {
  Rng rng(0xba5eba11);
  for (int i = 0; i < 1000; ++i) {
    U256 k = rng.NextScalar();
    ASSERT_EQ(ScalarBaseMul(k), oracle::ScalarBaseMul(k))
        << "case " << i << ": k=" << k.ToHexFull();
  }
}

TEST(Secp256k1OracleTest, VariablePointScalarMulAgrees) {
  Rng rng(0xdeadbeef);
  std::vector<U256> edge = EdgeScalars();
  for (int i = 0; i < 250; ++i) {
    AffinePoint p = ScalarBaseMul(rng.NextScalar());
    U256 k = i < int(edge.size()) ? edge[i] : rng.NextScalar();
    if (k.IsZero()) k = U256(1);
    ASSERT_EQ(ScalarMul(p, k), oracle::ScalarMul(p, k))
        << "case " << i << ": k=" << k.ToHexFull();
  }
}

TEST(Secp256k1OracleTest, SignaturesMatchOracle) {
  for (int i = 0; i < 50; ++i) {
    auto key = PrivateKey::FromSeed("backend-sign-" + std::to_string(i));
    Hash32 digest = DigestOf("backend-msg-" + std::to_string(i));
    auto lib = Sign(digest, key);
    auto ref = oracle::Sign(digest, key);
    ASSERT_TRUE(lib.ok());
    ASSERT_TRUE(ref.ok());
    ASSERT_EQ(*lib, *ref) << "case " << i;
  }
}

TEST(Secp256k1OracleTest, RecoverAgreesWithOracle) {
  Rng rng(0x12345678);
  for (int i = 0; i < 250; ++i) {
    auto key = PrivateKey::FromScalar(rng.NextScalar());
    ASSERT_TRUE(key.ok());
    Hash32 digest = DigestOf("recover-case-" + std::to_string(i));
    auto sig = Sign(digest, *key);
    ASSERT_TRUE(sig.ok());
    auto lib = RecoverAddress(digest, sig->v, sig->r, sig->s);
    auto ref = oracle::Recover(digest, sig->v, sig->r, sig->s);
    ASSERT_TRUE(lib.ok()) << "case " << i;
    ASSERT_TRUE(ref.ok()) << "case " << i;
    ASSERT_EQ(*lib, PublicKeyToAddress(*ref)) << "case " << i;
    ASSERT_EQ(*lib, key->EthAddress()) << "case " << i;
  }
}

TEST(Secp256k1OracleTest, VerifyAgreesWithOracleOnInvalidInputs) {
  auto key = PrivateKey::FromSeed("verify-diff");
  Hash32 digest = DigestOf("verify-msg");
  auto sig = Sign(digest, key);
  ASSERT_TRUE(sig.ok());
  Signature bad_r = *sig;
  bad_r.r += U256(1);
  Signature bad_s = *sig;
  bad_s.s += U256(1);
  const AffinePoint pub = key.PublicKey();
  EXPECT_TRUE(Verify(digest, *sig, pub));
  EXPECT_FALSE(Verify(digest, bad_r, pub));
  EXPECT_FALSE(Verify(digest, bad_s, pub));
  EXPECT_FALSE(Verify(DigestOf("other"), *sig, pub));
  EXPECT_TRUE(oracle::Verify(digest, *sig, pub));
  EXPECT_FALSE(oracle::Verify(digest, bad_r, pub));
  EXPECT_FALSE(oracle::Verify(digest, bad_s, pub));
  EXPECT_FALSE(oracle::Verify(DigestOf("other"), *sig, pub));
}

// Community-standard RFC 6979 secp256k1 vectors (sha256 digests), signed by
// BOTH the library and the oracle: the known answers pin correctness, the
// pairing pins agreement on real signing inputs.
struct Rfc6979Vector {
  const char* key_hex;
  const char* msg;
  const char* r_hex;
  const char* s_hex;
};

TEST(Secp256k1OracleTest, Rfc6979KnownAnswerVectors) {
  const Rfc6979Vector kVectors[] = {
      {"0000000000000000000000000000000000000000000000000000000000000001",
       "All those moments will be lost in time, like tears in rain. Time to "
       "die...",
       "8600dbd41e348fe5c9465ab92d23e3db8b98b873beecd930736488696438cb6b",
       "547fe64427496db33bf66019dacbf0039c04199abb0122918601db38a72cfc21"},
      {"fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140",
       "Satoshi Nakamoto",
       "fd567d121db66e382991534ada77a6bd3106f0a1098c231e47993447cd6af2d0",
       "6b39cd0eb1bc8603e159ef5c20a5c8ad685a45b06ce9bebed3f153d10d93bed5"},
      {"f8b8af8ce3c7cca5e300d33939540c10d45ce001b8f252bfbc57ba0342904181",
       "Alan Turing",
       "7063ae83e7f62bbb171798131b4a0564b956930092b33b07b395615d9ec7e15c",
       "58dfcc1e00a35e1572f366ffe34ba0fc47db1e7189759b9fb233c5b05ab388ea"},
  };
  for (const auto& vec : kVectors) {
    auto key = PrivateKey::FromHex(vec.key_hex);
    ASSERT_TRUE(key.ok()) << vec.msg;
    Hash32 digest = Sha256(BytesOf(vec.msg));
    for (bool use_oracle : {false, true}) {
      auto sig = use_oracle ? oracle::Sign(digest, *key) : Sign(digest, *key);
      ASSERT_TRUE(sig.ok()) << vec.msg;
      EXPECT_EQ(sig->r.ToHexFull(), vec.r_hex) << vec.msg;
      EXPECT_EQ(sig->s.ToHexFull(), vec.s_hex) << vec.msg;
      bool verified = use_oracle ? oracle::Verify(digest, *sig, key->PublicKey())
                                 : Verify(digest, *sig, key->PublicKey());
      EXPECT_TRUE(verified) << vec.msg;
    }
  }
}

// The GLV split-scalar path must have passed its startup self-checks — the
// unsplit fallback would stay correct but silently forfeit the endomorphism
// speedup. The φ(G) = λ·G check runs the unsplit loop, so a broken unsplit
// run fails here too.
TEST(Secp256k1OracleTest, GlvEndomorphismIsActive) {
  EXPECT_TRUE(internal::GlvEnabled());
}

// The divsteps scalar inverse (mod n) against the oracle's binary GCD, plus
// the ring identity a * a^{-1} ≡ 1.
TEST(Secp256k1OracleTest, ScalarInverseAgreesAndInverts) {
  Rng rng(0x5ca1a12d00dULL);
  for (int i = 0; i < 500; ++i) {
    U256 a = rng.NextScalar();
    U256 lib = internal::ScalarInv(a);
    ASSERT_EQ(lib, oracle::ScalarInv(a)) << "case " << i;
    ASSERT_EQ(U256::MulMod(a, lib, GroupOrder()), U256(1)) << "case " << i;
  }
}

// Field multiplication against the generic U256 modular multiply — an
// oracle that shares no code with either fold reduction.
TEST(Secp256k1OracleTest, FieldMulMatchesGenericModularMultiply) {
  Rng rng(0x0dd5eedf00dULL);
  for (int i = 0; i < 500; ++i) {
    U256 a = rng.NextFieldElement();
    U256 b = rng.NextFieldElement();
    ASSERT_EQ(internal::FieldMul(a, b), U256::MulMod(a, b, FieldPrime()))
        << "case " << i;
    ASSERT_EQ(internal::FieldSqr(a), U256::MulMod(a, a, FieldPrime()))
        << "case " << i;
  }
}

// Scalar multiplication mod n against the generic U256 modular multiply,
// unreduced operands included: Recover passes n itself when z ≡ 0.
TEST(Secp256k1OracleTest, ScalarMulModMatchesGenericModularMultiply) {
  const U256 n = GroupOrder();
  const U256 all_ones = U256() - U256(1);  // 2^256 - 1
  std::vector<U256> values = {U256(),          U256(1),      U256(2),
                              n - U256(1),     n,            n + U256(1),
                              all_ones,        all_ones - n, n >> 1,
                              all_ones - U256(1)};
  for (const U256& a : values) {
    for (const U256& b : values) {
      ASSERT_EQ(internal::ScalarMulMod(a, b), U256::MulMod(a, b, n))
          << a.ToHexFull() << " * " << b.ToHexFull();
    }
  }
  Rng rng(0x5ca1a2f01dULL);
  for (int i = 0; i < 2000; ++i) {
    const U256 a = rng.NextU256();
    const U256 b = i % 2 == 0 ? rng.NextU256() : rng.NextScalar();
    ASSERT_EQ(internal::ScalarMulMod(a, b), U256::MulMod(a, b, n))
        << "case " << i;
    ASSERT_EQ(internal::ScalarMulMod(a, values[i % values.size()]),
              U256::MulMod(a, values[i % values.size()], n))
        << "case " << i;
  }
}

// ---- Mutational differential fuzz at the signature trust boundary ----

// Writes `v` as 32 big-endian bytes at `pos`.
void PutScalar(Bytes& data, size_t pos, const U256& v) {
  Bytes b = v.ToBytes();
  std::copy(b.begin(), b.end(), data.begin() + static_cast<ptrdiff_t>(pos));
}

// One random edit: a bit flip, a 0x00 or 0xff byte, or one of `boundary`
// written over a 32-byte field starting at one of `fields`.
void Mutate(Bytes& data, Rng& rng, const std::vector<U256>& boundary,
            const std::vector<size_t>& fields) {
  size_t at = rng.Next() % data.size();
  switch (rng.Next() % 4) {
    case 0:
      data[at] ^= static_cast<uint8_t>(1u << (rng.Next() % 8));
      break;
    case 1:
      data[at] = 0x00;
      break;
    case 2:
      data[at] = 0xff;
      break;
    default:
      PutScalar(data, fields[rng.Next() % fields.size()],
                boundary[rng.Next() % boundary.size()]);
      break;
  }
}

// Mutated 65-byte r || s || v signatures go through Signature::Deserialize
// and then recovery and verification; the library and the oracle must agree
// on every verdict and every recovered address.
TEST(Secp256k1OracleTest, MutatedSignaturesAgreeWithOracle) {
  const U256& n = GroupOrder();
  const std::vector<U256> boundary = {U256(0),        U256(1),
                                      n >> 1,         (n >> 1) + U256(1),
                                      n - U256(1),    n,
                                      FieldPrime() - U256(1)};
  std::vector<PrivateKey> keys;
  std::vector<AffinePoint> pubs;
  for (int i = 0; i < 8; ++i) {
    keys.push_back(PrivateKey::FromSeed("fuzz-key-" + std::to_string(i)));
    pubs.push_back(keys.back().PublicKey());
  }
  Rng rng(0x519f022e);
  constexpr int kCases = 600;
  int recovered = 0;
  int rejected = 0;
  for (int i = 0; i < kCases; ++i) {
    const PrivateKey& key = keys[i % keys.size()];
    Hash32 digest = DigestOf("fuzz-msg-" + std::to_string(i));
    auto sig = Sign(digest, key);
    ASSERT_TRUE(sig.ok());
    Bytes wire = sig->Serialize();
    int edits = 1 + static_cast<int>(rng.Next() % 3);
    for (int e = 0; e < edits; ++e) Mutate(wire, rng, boundary, {0, 32});

    // Any other length is rejected before a scalar is read.
    Bytes resized = wire;
    resized.resize(rng.Next() % 2 == 0 ? rng.Next() % 65 : 66);
    ASSERT_FALSE(Signature::Deserialize(resized).ok()) << "case " << i;

    auto parsed = Signature::Deserialize(wire);
    ASSERT_TRUE(parsed.ok()) << "case " << i;
    ASSERT_EQ(parsed->Serialize(), wire) << "case " << i;
    auto lib = RecoverAddress(digest, parsed->v, parsed->r, parsed->s);
    auto ref = oracle::Recover(digest, parsed->v, parsed->r, parsed->s);
    ASSERT_EQ(lib.ok(), ref.ok()) << "case " << i << ": " << ToHex(wire);
    if (lib.ok()) {
      ASSERT_EQ(*lib, PublicKeyToAddress(*ref)) << "case " << i;
      ++recovered;
    } else {
      ++rejected;
    }
    const AffinePoint& pub = pubs[i % keys.size()];
    ASSERT_EQ(Verify(digest, *parsed, pub), oracle::Verify(digest, *parsed, pub))
        << "case " << i << ": " << ToHex(wire);
  }
  // The corpus must reach both verdicts in quantity.
  EXPECT_GT(recovered, kCases / 10);
  EXPECT_GT(rejected, kCases / 10);
}

// y^2 == x^3 + 7 (mod p), through the generic U256 modular routines only.
bool OnCurveGeneric(const U256& x, const U256& y) {
  const U256& p = FieldPrime();
  U256 x3 = U256::MulMod(U256::MulMod(x, x, p), x, p);
  return U256::MulMod(y, y, p) == U256::AddMod(x3, U256(7), p);
}

// Mutated 33- and 65-byte SEC1 encodings: ParsePoint must accept exactly
// when the encoding names coordinates in [0, p) on the curve, as judged by
// U256::MulMod / AddMod (a compressed x by whether the oracle's square root
// of x^3 + 7 squares back).
TEST(Secp256k1OracleTest, MutatedSec1PointsParseExactlyWhenOnCurve) {
  const U256& p = FieldPrime();
  const std::vector<U256> boundary = {U256(0), U256(1), p - U256(1), p,
                                      ~U256(0)};
  Rng rng(0x5ec1f022);
  constexpr int kCases = 2000;
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < kCases; ++i) {
    bool compressed = i % 2 == 1;
    Bytes enc = SerializePoint(ScalarBaseMul(rng.NextScalar()), compressed);
    int edits = 1 + static_cast<int>(rng.Next() % 2);
    for (int e = 0; e < edits; ++e) {
      switch (rng.Next() % 4) {
        case 0:  // retag, e.g. a compressed tag on an uncompressed body
          enc[0] = static_cast<uint8_t>(rng.Next() % 6);
          break;
        case 1:  // switch forms by truncating or zero-extending
          enc.resize(enc.size() == 33 ? 65 : 33);
          break;
        default:
          Mutate(enc, rng, boundary,
                 enc.size() == 65 ? std::vector<size_t>{1, 33}
                                  : std::vector<size_t>{1});
          break;
      }
    }

    bool expect = false;
    U256 x = U256::FromBigEndianTruncating(BytesView(enc).subspan(1, 32));
    U256 y;
    if (enc.size() == 65 && enc[0] == 0x04) {
      y = U256::FromBigEndianTruncating(BytesView(enc).subspan(33, 32));
      expect = x < p && y < p && OnCurveGeneric(x, y);
    } else if (enc.size() == 33 && (enc[0] == 0x02 || enc[0] == 0x03)) {
      if (x < p) {
        U256 rhs = U256::AddMod(
            U256::MulMod(U256::MulMod(x, x, p), x, p), U256(7), p);
        expect = OnCurveGeneric(x, oracle::FieldSqrt(rhs));
      }
    }

    auto parsed = ParsePoint(enc);
    ASSERT_EQ(parsed.ok(), expect) << "case " << i << ": " << ToHex(enc);
    if (!parsed.ok()) {
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_EQ(parsed->x, x) << "case " << i;
    ASSERT_TRUE(parsed->y < p) << "case " << i;
    ASSERT_TRUE(OnCurveGeneric(parsed->x, parsed->y)) << "case " << i;
    if (enc.size() == 65) {
      ASSERT_EQ(parsed->y, y) << "case " << i;
    } else {
      ASSERT_EQ(parsed->y.Bit(0), enc[0] == 0x03) << "case " << i;
    }
  }
  EXPECT_GT(accepted, kCases / 10);
  EXPECT_GT(rejected, kCases / 10);
}

}  // namespace
}  // namespace onoff::secp256k1
