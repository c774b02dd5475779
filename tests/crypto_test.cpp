#include <gtest/gtest.h>

#include "crypto/biguint.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "crypto/ed25519.hpp"
#include "crypto/fe25519.hpp"
#include "crypto/hmac.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sign.hpp"
#include "util/rng.hpp"

namespace psf::crypto {
namespace {

using util::Bytes;
using util::from_hex;
using util::to_bytes;
using util::to_hex;

std::string hex_of(const Digest256& d) {
  return to_hex(Bytes(d.begin(), d.end()));
}

// ---------------------------------------------------------------- SHA-256

TEST(Sha256, Fips180EmptyString) {
  EXPECT_EQ(hex_of(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Fips180Abc) {
  EXPECT_EQ(hex_of(sha256(to_bytes("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, Fips180TwoBlocks) {
  EXPECT_EQ(hex_of(sha256(to_bytes(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_of(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const Bytes msg = to_bytes("incremental hashing must match one-shot");
  Sha256 h;
  for (std::size_t i = 0; i < msg.size(); ++i) h.update(&msg[i], 1);
  EXPECT_EQ(h.finish(), sha256(msg));
}

// ------------------------------------------------------------------ HMAC

TEST(Hmac, Rfc4231Case1) {
  const Bytes key(20, 0x0b);
  EXPECT_EQ(hex_of(hmac_sha256(key, to_bytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(hex_of(hmac_sha256(to_bytes("Jefe"),
                               to_bytes("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes msg(50, 0xdd);
  EXPECT_EQ(hex_of(hmac_sha256(key, msg)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, LongKeyIsHashedFirst) {
  const Bytes key(131, 0xaa);
  EXPECT_EQ(
      hex_of(hmac_sha256(
          key, to_bytes("Test Using Larger Than Block-Size Key - Hash Key First"))),
      "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

// --------------------------------------------------------------- ChaCha20

TEST(ChaCha20, Rfc8439BlockVector) {
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x09, 0x00, 0x00,
                       0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const auto block = chacha20_block(key, nonce, 1);
  EXPECT_EQ(to_hex(Bytes(block.begin(), block.end())),
            "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
            "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e");
}

TEST(ChaCha20, Rfc8439EncryptionVector) {
  ChaChaKey key;
  for (int i = 0; i < 32; ++i) key[i] = static_cast<std::uint8_t>(i);
  ChaChaNonce nonce = {0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                       0x00, 0x4a, 0x00, 0x00, 0x00, 0x00};
  const Bytes plaintext = to_bytes(
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.");
  const Bytes ciphertext = chacha20_xor(key, nonce, 1, plaintext);
  EXPECT_EQ(to_hex(ciphertext).substr(0, 64),
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b");
  // Symmetric: decrypting recovers the plaintext.
  EXPECT_EQ(chacha20_xor(key, nonce, 1, ciphertext), plaintext);
}

TEST(ChaCha20, DifferentNonceDifferentStream) {
  ChaChaKey key{};
  ChaChaNonce n1{}, n2{};
  n2[0] = 1;
  const Bytes msg(64, 0);
  EXPECT_NE(chacha20_xor(key, n1, 0, msg), chacha20_xor(key, n2, 0, msg));
}

// ---------------------------------------------------------------- BigUInt

TEST(BigUInt, ByteRoundTrip) {
  Bytes le(32, 0);
  le[0] = 0xef;
  le[31] = 0x12;
  const BigUInt a = BigUInt::from_le_bytes(le);
  EXPECT_EQ(a.to_le_bytes32(), le);
}

TEST(BigUInt, AddSubInverse) {
  util::Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    const BigUInt a = BigUInt::from_le_bytes(rng.next_bytes(32));
    const BigUInt b = BigUInt::from_le_bytes(rng.next_bytes(32));
    const BigUInt sum = BigUInt::add(a, b);
    EXPECT_EQ(BigUInt::sub(sum, b), a);
    EXPECT_EQ(BigUInt::sub(sum, a), b);
  }
}

TEST(BigUInt, MulMatchesRepeatedAdd) {
  const BigUInt a(123456789);
  BigUInt acc;
  for (int i = 0; i < 37; ++i) acc = BigUInt::add(acc, a);
  EXPECT_EQ(BigUInt::mul256(a, BigUInt(37)), acc);
}

TEST(BigUInt, ModBasics) {
  const BigUInt m(97);
  EXPECT_EQ(BigUInt::mod(BigUInt(100), m), BigUInt(3));
  EXPECT_EQ(BigUInt::mod(BigUInt(97), m), BigUInt(0));
  EXPECT_EQ(BigUInt::mod(BigUInt(5), m), BigUInt(5));
}

TEST(BigUInt, BitLength) {
  EXPECT_EQ(BigUInt(0).bit_length(), 0u);
  EXPECT_EQ(BigUInt(1).bit_length(), 1u);
  EXPECT_EQ(BigUInt(255).bit_length(), 8u);
  EXPECT_EQ(BigUInt(256).bit_length(), 9u);
}

// ---------------------------------------------------------------- fe25519

TEST(Fe25519, ByteRoundTrip) {
  util::Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    Bytes b = rng.next_bytes(32);
    b[31] &= 0x7f;  // clear the ignored top bit
    // Values >= p are not canonical; skip them by clearing more top bits.
    b[31] &= 0x3f;
    const Fe f = fe_from_bytes(b);
    EXPECT_EQ(fe_to_bytes(f), b) << "iteration " << i;
  }
}

TEST(Fe25519, AddSubInverse) {
  util::Rng rng(4);
  for (int i = 0; i < 50; ++i) {
    Bytes ab = rng.next_bytes(32);
    ab[31] &= 0x3f;
    Bytes bb = rng.next_bytes(32);
    bb[31] &= 0x3f;
    const Fe a = fe_from_bytes(ab);
    const Fe b = fe_from_bytes(bb);
    EXPECT_TRUE(fe_equal(fe_sub(fe_add(a, b), b), a));
  }
}

TEST(Fe25519, MulCommutativeAssociative) {
  util::Rng rng(8);
  for (int i = 0; i < 20; ++i) {
    Bytes ab = rng.next_bytes(32); ab[31] &= 0x3f;
    Bytes bb = rng.next_bytes(32); bb[31] &= 0x3f;
    Bytes cb = rng.next_bytes(32); cb[31] &= 0x3f;
    const Fe a = fe_from_bytes(ab), b = fe_from_bytes(bb), c = fe_from_bytes(cb);
    EXPECT_TRUE(fe_equal(fe_mul(a, b), fe_mul(b, a)));
    EXPECT_TRUE(fe_equal(fe_mul(fe_mul(a, b), c), fe_mul(a, fe_mul(b, c))));
  }
}

TEST(Fe25519, InvertIsInverse) {
  util::Rng rng(9);
  for (int i = 0; i < 10; ++i) {
    Bytes ab = rng.next_bytes(32);
    ab[31] &= 0x3f;
    ab[0] |= 1;  // ensure nonzero
    const Fe a = fe_from_bytes(ab);
    EXPECT_TRUE(fe_equal(fe_mul(a, fe_invert(a)), fe_one()));
  }
}

TEST(Fe25519, SqrtMinusOneSquaresToMinusOne) {
  const Fe i = fe_sqrt_m1();
  EXPECT_TRUE(fe_equal(fe_sq(i), fe_neg(fe_one())));
}

TEST(Fe25519, SqrtOfSquares) {
  util::Rng rng(10);
  for (int i = 0; i < 10; ++i) {
    Bytes ab = rng.next_bytes(32);
    ab[31] &= 0x3f;
    const Fe a = fe_from_bytes(ab);
    const Fe a2 = fe_sq(a);
    Fe root;
    ASSERT_TRUE(fe_sqrt(a2, root));
    EXPECT_TRUE(fe_equal(fe_sq(root), a2));
  }
}

TEST(Fe25519, NonResidueHasNoRoot) {
  // 2 is a non-residue mod p iff sqrt fails; check consistency instead:
  // for u = 2, either sqrt succeeds and root^2 == 2, or it fails.
  Fe root;
  const Fe two = fe_from_u64(2);
  if (fe_sqrt(two, root)) {
    EXPECT_TRUE(fe_equal(fe_sq(root), two));
  } else {
    SUCCEED();
  }
}

// ---------------------------------------------------------------- Ed25519

TEST(Ed25519, BasePointOnCurve) {
  EXPECT_TRUE(point_on_curve(point_base()));
}

TEST(Ed25519, BasePointMatchesRfc8032Encoding) {
  // The standard compressed base point; this cross-checks our derived
  // constants against the published curve.
  EXPECT_EQ(to_hex(point_encode(point_base())),
            "5866666666666666666666666666666666666666666666666666666666666666");
}

TEST(Ed25519, IdentityIsNeutral) {
  const Point b = point_base();
  EXPECT_TRUE(point_equal(point_add(b, point_identity()), b));
  EXPECT_TRUE(point_equal(point_add(point_identity(), b), b));
}

TEST(Ed25519, AdditionCommutes) {
  const Point b = point_base();
  const Point b2 = point_double(b);
  EXPECT_TRUE(point_equal(point_add(b, b2), point_add(b2, b)));
}

TEST(Ed25519, AdditionAssociates) {
  const Point b = point_base();
  const Point p = point_mul(BigUInt(7), b);
  const Point q = point_mul(BigUInt(11), b);
  const Point r = point_mul(BigUInt(13), b);
  EXPECT_TRUE(point_equal(point_add(point_add(p, q), r),
                          point_add(p, point_add(q, r))));
}

TEST(Ed25519, NegationCancels) {
  const Point p = point_mul(BigUInt(42), point_base());
  EXPECT_TRUE(point_is_identity(point_add(p, point_neg(p))));
}

TEST(Ed25519, ScalarMulDistributes) {
  const Point b = point_base();
  // (7 + 11) * B == 7*B + 11*B
  EXPECT_TRUE(point_equal(point_mul(BigUInt(18), b),
                          point_add(point_mul(BigUInt(7), b),
                                    point_mul(BigUInt(11), b))));
}

TEST(Ed25519, GroupOrderAnnihilatesBase) {
  EXPECT_TRUE(point_is_identity(point_mul(group_order(), point_base())));
}

TEST(Ed25519, OrderMinusOneGivesNegation) {
  const BigUInt l_minus_1 = BigUInt::sub(group_order(), BigUInt(1));
  EXPECT_TRUE(point_equal(point_mul(l_minus_1, point_base()),
                          point_neg(point_base())));
}

TEST(Ed25519, FixedBaseTableMatchesGenericMul) {
  util::Rng rng(77);
  // Edge scalars plus random ones.
  std::vector<BigUInt> scalars = {BigUInt(0), BigUInt(1), BigUInt(15),
                                  BigUInt(16), BigUInt(255),
                                  BigUInt::sub(group_order(), BigUInt(1))};
  for (int i = 0; i < 20; ++i) {
    scalars.push_back(scalar_from_wide_bytes(rng.next_bytes(64)));
  }
  for (const auto& k : scalars) {
    EXPECT_TRUE(point_equal(point_mul_base(k), point_mul(k, point_base())))
        << k.to_hex();
  }
}

TEST(Ed25519, EncodeDecodeRoundTrip) {
  util::Rng rng(12);
  for (int i = 0; i < 10; ++i) {
    const BigUInt k = scalar_from_wide_bytes(rng.next_bytes(64));
    const Point p = point_mul(k, point_base());
    Point decoded;
    ASSERT_TRUE(point_decode(point_encode(p), decoded));
    EXPECT_TRUE(point_equal(p, decoded));
  }
}

TEST(Ed25519, DecodeRejectsGarbage) {
  Point p;
  EXPECT_FALSE(point_decode(Bytes(31, 0xab), p));  // wrong length
}

// ------------------------------------------------------------- Signatures

TEST(Sign, RoundTrip) {
  util::Rng rng(100);
  const KeyPair kp = generate_keypair(rng);
  const Bytes msg = to_bytes("credential payload");
  const Signature sig = sign(kp, msg);
  EXPECT_TRUE(verify(kp.public_key, msg, sig));
}

TEST(Sign, RejectsTamperedMessage) {
  util::Rng rng(101);
  const KeyPair kp = generate_keypair(rng);
  const Bytes msg = to_bytes("credential payload");
  const Signature sig = sign(kp, msg);
  Bytes tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(verify(kp.public_key, tampered, sig));
}

TEST(Sign, RejectsTamperedSignature) {
  util::Rng rng(102);
  const KeyPair kp = generate_keypair(rng);
  const Bytes msg = to_bytes("credential payload");
  Signature sig = sign(kp, msg);
  for (std::size_t i = 0; i < sig.bytes.size(); i += 7) {
    Signature bad = sig;
    bad.bytes[i] ^= 0x40;
    EXPECT_FALSE(verify(kp.public_key, msg, bad)) << "flip at byte " << i;
  }
}

TEST(Sign, RejectsWrongKey) {
  util::Rng rng(103);
  const KeyPair kp1 = generate_keypair(rng);
  const KeyPair kp2 = generate_keypair(rng);
  const Bytes msg = to_bytes("credential payload");
  EXPECT_FALSE(verify(kp2.public_key, msg, sign(kp1, msg)));
}

TEST(Sign, DeterministicNonce) {
  util::Rng rng(104);
  const KeyPair kp = generate_keypair(rng);
  const Bytes msg = to_bytes("same message");
  EXPECT_EQ(sign(kp, msg).bytes, sign(kp, msg).bytes);
}

TEST(Sign, FingerprintStable) {
  util::Rng rng(105);
  const KeyPair kp = generate_keypair(rng);
  EXPECT_EQ(kp.public_key.fingerprint().size(), 16u);
  EXPECT_EQ(kp.public_key.fingerprint(), kp.public_key.fingerprint());
}

// -------------------------------------------------------------------- DH

TEST(Dh, SharedSecretAgrees) {
  util::Rng rng(200);
  const DhKeyPair a = dh_generate(rng);
  const DhKeyPair b = dh_generate(rng);
  Bytes sa, sb;
  ASSERT_TRUE(dh_shared_secret(a, b.public_point, sa));
  ASSERT_TRUE(dh_shared_secret(b, a.public_point, sb));
  EXPECT_EQ(sa, sb);
}

TEST(Dh, DifferentPeersDifferentSecret) {
  util::Rng rng(201);
  const DhKeyPair a = dh_generate(rng);
  const DhKeyPair b = dh_generate(rng);
  const DhKeyPair c = dh_generate(rng);
  Bytes sab, sac;
  ASSERT_TRUE(dh_shared_secret(a, b.public_point, sab));
  ASSERT_TRUE(dh_shared_secret(a, c.public_point, sac));
  EXPECT_NE(sab, sac);
}

TEST(Dh, RejectsGarbagePeerKey) {
  util::Rng rng(202);
  const DhKeyPair a = dh_generate(rng);
  Bytes out;
  EXPECT_FALSE(dh_shared_secret(a, Bytes(5, 1), out));
}

TEST(Dh, DerivedKeysDifferByLabel) {
  util::Rng rng(203);
  const DhKeyPair a = dh_generate(rng);
  const DhKeyPair b = dh_generate(rng);
  Bytes secret;
  ASSERT_TRUE(dh_shared_secret(a, b.public_point, secret));
  EXPECT_NE(derive_channel_key(secret, "c2s"), derive_channel_key(secret, "s2c"));
}

// --------------------------------------------------------- Pinned verdicts
// Known answers and accept/reject decisions recorded from the arithmetic as
// it stood before the field, point and scalar layers were rewritten; a
// rewrite that changes any of them fails here instead of silently.

// Small-order and malformed point encodings (32 bytes, little-endian y,
// top bit the sign of x).
constexpr const char* kIdentityEnc =  // (0, 1), order 1
    "0100000000000000000000000000000000000000000000000000000000000000";
constexpr const char* kOrder2Enc =  // (0, -1)
    "ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f";
constexpr const char* kOrder4Enc =  // (sqrt(-1), 0)
    "0000000000000000000000000000000000000000000000000000000000000000";
constexpr const char* kOrder8Enc =
    "26e8958fc2b227b045c3f489f2ef98f0d5dfac05d3c63339b13802886d53fc05";
constexpr const char* kNegativeZeroXEnc =  // y = 1 with the sign bit set
    "0100000000000000000000000000000000000000000000000000000000000080";
// y = 2, for which (y^2 - 1) / (d y^2 + 1) is a non-residue.
constexpr const char* kNonResidueYEnc =
    "0200000000000000000000000000000000000000000000000000000000000000";

// The challenge e = H(R || A || m) mod L, as sign.cpp derives it.
BigUInt challenge_of(const Bytes& r_enc, const Bytes& a_enc, const Bytes& msg) {
  Bytes data = r_enc;
  util::append(data, a_enc);
  util::append(data, msg);
  Bytes wide = sha256_bytes(data);
  data.push_back(0x01);
  util::append(wide, sha256_bytes(data));
  return scalar_from_wide_bytes(wide);
}

Signature make_sig(const Bytes& r_enc, const BigUInt& s) {
  Signature sig;
  sig.bytes = r_enc;
  util::append(sig.bytes, s.to_le_bytes32());
  return sig;
}

struct PinnedVector {
  std::string name;
  PublicKey key;
  Bytes message;
  Signature sig;
  bool verdict;
};

std::vector<PinnedVector> pinned_vectors() {
  util::Rng rng(300);
  const KeyPair kp = generate_keypair(rng);
  const Bytes msg = to_bytes("pinned verify vectors");
  const Signature good = sign(kp, msg);
  const Bytes r_good(good.bytes.begin(), good.bytes.begin() + 32);
  const BigUInt s_good =
      BigUInt::from_le_bytes(Bytes(good.bytes.begin() + 32, good.bytes.end()));
  const BigUInt& l = group_order();
  // A forger's pair for any key: R = r B, s = r. The cofactorless check
  // s B == R + e A accepts it exactly when e A is the identity.
  const BigUInt r = scalar_from_wide_bytes(rng.next_bytes(64));
  const Bytes r_b = point_encode(point_mul_base(r));
  const auto forged = [&](const char* key_hex) {
    return PinnedVector{"", PublicKey{from_hex(key_hex)}, msg,
                        make_sig(r_b, r), false};
  };
  // The signer's own s = e x for a chosen R encoding: accepted exactly when
  // R is the identity.
  const auto with_r = [&](const char* r_hex) {
    const Bytes r_enc = from_hex(r_hex);
    const BigUInt e = challenge_of(r_enc, kp.public_key.encoded, msg);
    const BigUInt s = BigUInt::mod(BigUInt::mul256(e, kp.private_scalar), l);
    return PinnedVector{"", kp.public_key, msg, make_sig(r_enc, s), false};
  };
  const auto named = [](PinnedVector v, const char* name, bool verdict) {
    v.name = name;
    v.verdict = verdict;
    return v;
  };

  std::vector<PinnedVector> out;
  out.push_back({"valid", kp.public_key, msg, good, true});
  out.push_back({"s = L", kp.public_key, msg, make_sig(r_good, l), false});
  out.push_back({"s = L + 1", kp.public_key, msg,
                 make_sig(r_good, BigUInt::add(l, BigUInt(1))), false});
  out.push_back({"s + L", kp.public_key, msg,
                 make_sig(r_good, BigUInt::add(s_good, l)), false});
  // Small-order public keys are not rejected: the verdict is whether e
  // (which hashes A too) is a multiple of the key's order. Here e is odd
  // for the order-2 key, 2 mod 4 for the order-4 key, 0 mod 8 for the
  // order-8 key.
  out.push_back(named(forged(kIdentityEnc), "A identity", true));
  out.push_back(named(forged(kOrder2Enc), "A order 2", false));
  out.push_back(named(forged(kOrder4Enc), "A order 4", false));
  out.push_back(named(forged(kOrder8Enc), "A order 8", true));
  out.push_back(named(with_r(kIdentityEnc), "R identity", true));
  out.push_back(named(with_r(kOrder2Enc), "R order 2", false));
  out.push_back(named(with_r(kOrder4Enc), "R order 4", false));
  out.push_back(named(with_r(kOrder8Enc), "R order 8", false));
  out.push_back(named(forged(kNegativeZeroXEnc), "A x = 0, sign bit", false));
  out.push_back(named(with_r(kNegativeZeroXEnc), "R x = 0, sign bit", false));
  out.push_back(named(forged(kNonResidueYEnc), "A non-residue y", false));
  out.push_back(named(with_r(kNonResidueYEnc), "R non-residue y", false));
  return out;
}

std::vector<VerifyJob> jobs_of(const std::vector<PinnedVector>& vectors) {
  std::vector<VerifyJob> jobs;
  for (const auto& v : vectors) jobs.push_back({&v.key, &v.message, &v.sig});
  return jobs;
}

TEST(Pinned, KnownAnswers) {
  util::Rng rng(42);
  const KeyPair kp = generate_keypair(rng);
  EXPECT_EQ(to_hex(kp.public_key.encoded),
            "354194b05bfeb14f73a38e3db0af63611deaddae33da8e34c7abb871d3c4698b");
  EXPECT_EQ(to_hex(sign(kp, to_bytes("known answer")).bytes),
            "df6e3d5cffc4b8456a263eeb9da0cb3c24e6019e09e4ddcd74ef9061e5c233aa"
            "4014f699f75751a9a912d2572dd79988fedf40620bee431e0b77daee2bd5a200");
  const DhKeyPair a = dh_generate(rng);
  const DhKeyPair b = dh_generate(rng);
  Bytes secret;
  ASSERT_TRUE(dh_shared_secret(a, b.public_point, secret));
  EXPECT_EQ(to_hex(secret),
            "c9b8e1a0b5f77ed0de9954bae2f7d3b26df5ad9813fee1e2d8aa9f6f587dd1bb");
}

TEST(Pinned, SmallOrderEncodingsHaveTheirOrder) {
  const std::pair<const char*, std::uint64_t> points[] = {
      {kIdentityEnc, 1}, {kOrder2Enc, 2}, {kOrder4Enc, 4}, {kOrder8Enc, 8}};
  for (const auto& [hex, order] : points) {
    Point p;
    ASSERT_TRUE(point_decode(from_hex(hex), p)) << hex;
    EXPECT_TRUE(point_is_identity(point_mul(BigUInt(order), p))) << hex;
    if (order > 1) {
      EXPECT_FALSE(point_is_identity(point_mul(BigUInt(order / 2), p))) << hex;
    }
  }
  Point p;
  EXPECT_FALSE(point_decode(from_hex(kNegativeZeroXEnc), p));
  EXPECT_FALSE(point_decode(from_hex(kNonResidueYEnc), p));
}

TEST(Pinned, VerifyVerdictsSerialAndPooled) {
  const std::vector<PinnedVector> vectors = pinned_vectors();
  std::vector<std::uint8_t> expected;
  for (const auto& v : vectors) {
    EXPECT_EQ(verify(v.key, v.message, v.sig), v.verdict) << v.name;
    expected.push_back(v.verdict ? 1 : 0);
  }
  const std::vector<VerifyJob> jobs = jobs_of(vectors);
  EXPECT_EQ(verify_batch(jobs), expected);
  util::ThreadPool pool(3);
  EXPECT_EQ(verify_batch(jobs, &pool), expected);
}

TEST(Pinned, BatchWithOneBadSignature) {
  util::Rng rng(301);
  constexpr std::size_t kJobs = 7, kBad = 4;
  std::vector<PinnedVector> vectors;
  for (std::size_t i = 0; i < kJobs; ++i) {
    const KeyPair kp = generate_keypair(rng);
    const Bytes msg = to_bytes("batch message " + std::to_string(i));
    vectors.push_back({"", kp.public_key, msg, sign(kp, msg), i != kBad});
  }
  vectors[kBad].message[0] ^= 1;
  const std::vector<VerifyJob> jobs = jobs_of(vectors);
  util::ThreadPool pool(3);
  for (const auto& results : {verify_batch(jobs), verify_batch(jobs, &pool)}) {
    ASSERT_EQ(results.size(), kJobs);
    for (std::size_t i = 0; i < kJobs; ++i) {
      EXPECT_EQ(results[i], i == kBad ? 0 : 1) << "job " << i;
    }
  }
}


// ------------------------------------------------------ Strict decoding

// The 19 encodings of y in [p, 2^255): y - p in [0, 19).
Bytes non_canonical_y(std::uint8_t y_minus_p, bool sign_bit) {
  Bytes enc(32, 0xff);
  enc[0] = static_cast<std::uint8_t>(0xed + y_minus_p);
  enc[31] = sign_bit ? 0xff : 0x7f;
  return enc;
}

TEST(Ed25519, DecodeRejectsNonCanonicalY) {
  for (std::uint8_t k = 0; k < 19; ++k) {
    for (const bool sign_bit : {false, true}) {
      const Bytes enc = non_canonical_y(k, sign_bit);
      EXPECT_FALSE(fe_bytes_canonical(enc)) << to_hex(enc);
      Point p;
      EXPECT_FALSE(point_decode(enc, p)) << to_hex(enc);
    }
  }
  // The canonical encodings of the same y values: y = 0 and y = 1 are
  // points, and p - 1 is the largest canonical y.
  Point p;
  EXPECT_TRUE(point_decode(from_hex(kOrder4Enc), p));
  EXPECT_TRUE(point_decode(from_hex(kIdentityEnc), p));
  EXPECT_TRUE(fe_bytes_canonical(from_hex(kOrder2Enc)));
  EXPECT_TRUE(point_decode(from_hex(kOrder2Enc), p));
}

TEST(Sign, RejectsNonCanonicalEncodings) {
  util::Rng rng(302);
  const KeyPair kp = generate_keypair(rng);
  const Bytes msg = to_bytes("non-canonical encodings");
  const Bytes identity_plus_p = non_canonical_y(1, false);  // y = p + 1
  // The forger's pair (R = r B, s = r) under the identity key: accepted
  // with the canonical encoding (pinned above), rejected with y = p + 1.
  const BigUInt r = scalar_from_wide_bytes(rng.next_bytes(64));
  const Signature forged = make_sig(point_encode(point_mul_base(r)), r);
  EXPECT_TRUE(verify(PublicKey{from_hex(kIdentityEnc)}, msg, forged));
  EXPECT_FALSE(verify(PublicKey{identity_plus_p}, msg, forged));
  // The signer's s = e x with R the identity, encoded canonically and not.
  for (const Bytes& r_enc : {from_hex(kIdentityEnc), identity_plus_p}) {
    const BigUInt e = challenge_of(r_enc, kp.public_key.encoded, msg);
    const BigUInt s = scalar_reduce(BigUInt::mul256(e, kp.private_scalar));
    const Signature sig = make_sig(r_enc, s);
    EXPECT_EQ(verify(kp.public_key, msg, sig), r_enc != identity_plus_p);
  }
}

// ------------------------------------------------- Differential oracles
// The arithmetic as it stood before the layer-by-layer rewrite, kept as
// test-only reference code: square-and-multiply over a byte exponent for
// inversion and square roots, unified addition for doubling, plain
// double-and-add scalar multiplication, and bit-serial reduction mod L.

Bytes exponent_le(std::uint8_t low, std::uint8_t high) {
  Bytes e(32, 0xff);
  e[0] = low;
  e[31] = high;
  return e;
}

Fe ref_pow(const Fe& a, const Bytes& exponent) {
  Fe result = fe_one();
  Fe base = a;
  for (std::size_t i = 0; i < exponent.size() * 8; ++i) {
    if ((exponent[i / 8] >> (i % 8)) & 1) result = fe_mul(result, base);
    base = fe_mul(base, base);
  }
  return result;
}

Fe ref_invert(const Fe& a) {
  return ref_pow(a, exponent_le(0xeb, 0x7f));  // p - 2
}

Fe ref_pow22523(const Fe& a) {
  return ref_pow(a, exponent_le(0xfd, 0x0f));  // (p - 5) / 8
}

Fe ref_sqrt_m1() { return ref_pow(fe_from_u64(2), exponent_le(0xfb, 0x1f)); }

bool ref_sqrt(const Fe& a, Fe& out) {
  const Fe x = ref_pow(a, exponent_le(0xfe, 0x0f));  // (p + 3) / 8
  const Fe x2 = fe_mul(x, x);
  if (fe_equal(x2, a)) {
    out = x;
    return true;
  }
  if (fe_equal(x2, fe_neg(a))) {
    out = fe_mul(x, ref_sqrt_m1());
    return true;
  }
  return false;
}

Point ref_mul(const BigUInt& scalar, const Point& p) {
  Point result = point_identity();
  for (std::size_t i = 256; i-- > 0;) {
    result = point_add(result, result);
    if (scalar.bit(i)) result = point_add(result, p);
  }
  return result;
}

BigUInt ref_mod_l(const BigUInt& x) { return BigUInt::mod(x, group_order()); }

// p = 2^255 - 19; kOrder2Enc is the encoding of y = p - 1.
BigUInt field_prime() {
  return BigUInt::add(BigUInt::from_le_bytes(from_hex(kOrder2Enc)), BigUInt(1));
}

// The integer an Fe's limbs denote (not reduced).
BigUInt value_of(const Fe& a) {
  BigUInt acc;
  for (int i = 4; i >= 0; --i) {
    for (int bit = 0; bit < 51; ++bit) acc.shl1();
    acc = BigUInt::add(acc, BigUInt(a.v[i]));
  }
  return acc;
}

// Random and edge field elements: 255-bit values (some >= p, so some
// non-canonical), 0, 1, p - 1, p itself, and limbs at the documented
// bound 2^51 + 2^7 - 1.
std::vector<Fe> field_samples(std::uint64_t seed, int random_count) {
  util::Rng rng(seed);
  std::vector<Fe> out = {fe_zero(), fe_one(),
                         fe_from_bytes(from_hex(kOrder2Enc)),
                         fe_from_bytes(non_canonical_y(0, false)),
                         fe_from_bytes(non_canonical_y(18, false))};
  const std::uint64_t top = (1ULL << 51) + 127;
  out.push_back(Fe{{top, top, top, top, top}});
  for (int i = 0; i < random_count; ++i) {
    out.push_back(fe_from_bytes(rng.next_bytes(32)));
  }
  return out;
}

TEST(CryptoDiff, FieldMulAndSqMatchExactProduct) {
  const BigUInt p = field_prime();
  const std::vector<Fe> samples = field_samples(400, 24);
  const auto within_bound = [](const Fe& f) {
    for (std::uint64_t limb : f.v) {
      if (limb >= (1ULL << 51) + 128) return false;
    }
    return true;
  };
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Fe& a = samples[i];
    const Fe& b = samples[(i * 7 + 3) % samples.size()];
    const Fe ab = fe_mul(a, b);
    const Fe aa = fe_sq(a);
    const BigUInt exact =
        BigUInt::mod(BigUInt::mul256(value_of(a), value_of(b)), p);
    EXPECT_EQ(fe_to_bytes(ab), exact.to_le_bytes32()) << "sample " << i;
    EXPECT_EQ(fe_to_bytes(aa), fe_to_bytes(fe_mul(a, a))) << "sample " << i;
    EXPECT_TRUE(within_bound(ab) && within_bound(aa)) << "sample " << i;
    EXPECT_TRUE(within_bound(fe_add(a, b)) && within_bound(fe_sub(a, b)))
        << "sample " << i;
  }
}

TEST(CryptoDiff, InvertAndPowChainsMatchSquareAndMultiply) {
  for (const Fe& a : field_samples(401, 12)) {
    EXPECT_EQ(fe_to_bytes(fe_invert(a)), fe_to_bytes(ref_invert(a)));
    EXPECT_EQ(fe_to_bytes(fe_pow22523(a)), fe_to_bytes(ref_pow22523(a)));
  }
}

TEST(CryptoDiff, SqrtMatchesPowReference) {
  EXPECT_TRUE(fe_equal(fe_sqrt_m1(), ref_sqrt_m1()));
  for (const Fe& a : field_samples(402, 12)) {
    for (const Fe& x : {a, fe_sq(a)}) {  // arbitrary values and squares
      Fe root, ref_root;
      const bool ok = fe_sqrt(x, root);
      ASSERT_EQ(ok, ref_sqrt(x, ref_root)) << to_hex(fe_to_bytes(x));
      if (ok) {
        EXPECT_TRUE(fe_equal(root, ref_root)) << to_hex(fe_to_bytes(x));
      }
    }
  }
}

std::vector<Point> point_samples(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Point> out = {point_identity(), point_base()};
  for (const char* hex : {kOrder2Enc, kOrder4Enc, kOrder8Enc}) {
    Point p;
    EXPECT_TRUE(point_decode(from_hex(hex), p));
    out.push_back(p);
  }
  for (int i = 0; i < 4; ++i) {
    // Sums leave Z != 1, as inside a scalar multiplication.
    const Point p = point_mul_base(scalar_from_wide_bytes(rng.next_bytes(64)));
    out.push_back(point_add(p, out[2 + i % 3]));
  }
  return out;
}

TEST(CryptoDiff, DoublingMatchesUnifiedAdd) {
  for (const Point& p : point_samples(403)) {
    const Point d = point_double(p);
    EXPECT_TRUE(point_equal(d, point_add(p, p)));
    EXPECT_TRUE(point_on_curve(d));
    // The extended coordinate the next addition reads: T Z == X Y.
    EXPECT_TRUE(fe_equal(fe_mul(d.t, d.z), fe_mul(d.x, d.y)));
  }
}

TEST(CryptoDiff, ScalarMulMatchesDoubleAndAdd) {
  util::Rng rng(404);
  const BigUInt& l = group_order();
  std::vector<BigUInt> scalars = {
      BigUInt(0), BigUInt(1), BigUInt::sub(l, BigUInt(1)), l,
      BigUInt::from_le_bytes(Bytes(64, 0xff))};
  for (int i = 0; i < 4; ++i) {
    scalars.push_back(BigUInt::from_le_bytes(rng.next_bytes(32)));
  }
  const std::vector<Point> points = point_samples(405);
  for (const BigUInt& k : scalars) {
    EXPECT_TRUE(point_equal(point_mul_base(k), ref_mul(k, point_base())))
        << k.to_hex();
    for (std::size_t i = 2; i < points.size(); i += 3) {
      EXPECT_TRUE(point_equal(point_mul(k, points[i]), ref_mul(k, points[i])))
          << k.to_hex() << " point " << i;
    }
  }
}

TEST(CryptoDiff, ScalarReductionMatchesBitSerialMod) {
  util::Rng rng(406);
  const BigUInt& l = group_order();
  const BigUInt l_minus_1 = BigUInt::sub(l, BigUInt(1));
  std::vector<BigUInt> inputs = {BigUInt(0),
                                 BigUInt(1),
                                 l_minus_1,
                                 l,
                                 BigUInt::add(l, BigUInt(1)),
                                 BigUInt::add(l, l),
                                 BigUInt::mul256(l, l),
                                 BigUInt::mul256(l_minus_1, l_minus_1),
                                 BigUInt::from_le_bytes(Bytes(32, 0xff)),
                                 BigUInt::from_le_bytes(Bytes(40, 0xff)),
                                 BigUInt::from_le_bytes(Bytes(64, 0xff))};
  for (int i = 0; i < 200; ++i) {
    inputs.push_back(BigUInt::from_le_bytes(rng.next_bytes(64)));
  }
  for (const BigUInt& x : inputs) {
    EXPECT_EQ(scalar_reduce(x), ref_mod_l(x)) << x.to_hex();
  }
  for (int i = 0; i < 20; ++i) {
    const Bytes wide = rng.next_bytes(64);
    EXPECT_EQ(scalar_from_wide_bytes(wide),
              ref_mod_l(BigUInt::from_le_bytes(wide)));
  }
}

TEST(CryptoDiff, BarrettMatchesModForOtherModuli) {
  util::Rng rng(407);
  const BigUInt two_192_plus_1 =
      BigUInt::add(BigUInt::from_le_bytes(Bytes(24, 0xff)), BigUInt(2));
  const BigUInt moduli[] = {field_prime(),
                            BigUInt::from_le_bytes(Bytes(32, 0xff)),
                            two_192_plus_1};
  for (const BigUInt& m : moduli) {
    const BigUInt mu = BigUInt::barrett_mu(m);
    for (int i = 0; i < 50; ++i) {
      const BigUInt x = BigUInt::from_le_bytes(rng.next_bytes(64));
      EXPECT_EQ(BigUInt::mod_barrett(x, m, mu), BigUInt::mod(x, m))
          << m.to_hex();
    }
    const BigUInt all_ones = BigUInt::from_le_bytes(Bytes(64, 0xff));
    EXPECT_EQ(BigUInt::mod_barrett(all_ones, m, mu), BigUInt::mod(all_ones, m));
  }
  EXPECT_THROW(BigUInt::barrett_mu(BigUInt(97)), std::invalid_argument);
}

}  // namespace
}  // namespace psf::crypto
