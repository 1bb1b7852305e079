// Unit tests for the crypto substrate: digests against published test
// vectors, bignum arithmetic properties, RSA round-trips and tamper
// rejection, HMAC vectors, signed-envelope chains, and the verify memo
// (byte-equal hits, its byte budget and eviction) under concurrent callers.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <iterator>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "crypto/biguint.hpp"
#include "crypto/envelope.hpp"
#include "crypto/hmac.hpp"
#include "crypto/keys.hpp"
#include "crypto/md5.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "crypto/sha256_kernels.hpp"

namespace failsig::crypto {
namespace {

Bytes B(std::string_view s) { return bytes_of(s); }

// ---------------------------------------------------------------------------
// MD5 (RFC 1321 test suite)
// ---------------------------------------------------------------------------

TEST(Md5, EmptyString) { EXPECT_EQ(to_hex(md5(B(""))), "d41d8cd98f00b204e9800998ecf8427e"); }

TEST(Md5, Abc) { EXPECT_EQ(to_hex(md5(B("abc"))), "900150983cd24fb0d6963f7d28e17f72"); }

TEST(Md5, MessageDigest) {
    EXPECT_EQ(to_hex(md5(B("message digest"))), "f96b697d7cb7938d525a2f31aaf161d0");
}

TEST(Md5, Alphabet) {
    EXPECT_EQ(to_hex(md5(B("abcdefghijklmnopqrstuvwxyz"))), "c3fcd3d76192e4007dfb496cca67e13b");
}

TEST(Md5, AlphaNum) {
    EXPECT_EQ(to_hex(md5(B("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789"))),
              "d174ab98d277d9f5a5611c2c9f419d9f");
}

TEST(Md5, EightyDigits) {
    EXPECT_EQ(to_hex(md5(B("1234567890123456789012345678901234567890123456789012345678901234"
                           "5678901234567890"))),
              "57edf4a22be3c955ac49da2e2107b67a");
}

TEST(Md5, IncrementalMatchesOneShot) {
    const Bytes data = B("the quick brown fox jumps over the lazy dog repeatedly and often");
    Md5 h;
    // Feed in awkward chunk sizes straddling block boundaries.
    std::size_t pos = 0;
    const std::size_t chunks[] = {1, 7, 13, 64, 3, 100};
    for (const auto c : chunks) {
        if (pos >= data.size()) break;
        const std::size_t take = std::min(c, data.size() - pos);
        h.update(std::span(data).subspan(pos, take));
        pos += take;
    }
    if (pos < data.size()) h.update(std::span(data).subspan(pos));
    const auto incremental = h.finish();
    EXPECT_EQ(to_hex(incremental), to_hex(Md5::hash(data)));
}

TEST(Md5, ExactBlockBoundary) {
    const Bytes data(64, 0x61);  // exactly one block of 'a'
    const Bytes data2(128, 0x61);
    EXPECT_NE(to_hex(Md5::hash(data)), to_hex(Md5::hash(data2)));
    // Spot value: md5 of 64 'a's.
    EXPECT_EQ(to_hex(md5(data)), "014842d480b571495a4a0363793f7367");
}

TEST(Md5, ResetReusesHasher) {
    Md5 h;
    h.update(B("garbage that must not leak into the second digest"));
    (void)h.finish();
    h.reset();
    h.update(B("abc"));
    const auto digest = h.finish();
    EXPECT_EQ(to_hex(Bytes(digest.begin(), digest.end())), "900150983cd24fb0d6963f7d28e17f72");
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 vectors)
// ---------------------------------------------------------------------------

TEST(Sha256, EmptyString) {
    EXPECT_EQ(to_hex(sha256(B(""))),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
    EXPECT_EQ(to_hex(sha256(B("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
    EXPECT_EQ(to_hex(sha256(B("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
    const Bytes data(1000000, 0x61);
    EXPECT_EQ(to_hex(sha256(data)),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
    Bytes data(777);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 31);
    Sha256 h;
    h.update(std::span(data).subspan(0, 100));
    h.update(std::span(data).subspan(100, 500));
    h.update(std::span(data).subspan(600));
    const auto digest = h.finish();
    EXPECT_EQ(to_hex(Bytes(digest.begin(), digest.end())), to_hex(sha256(data)));
}

TEST(Sha256, PaddingAroundTheLengthField) {
    // finish() writes the padding in place; these lengths put the 0x80 byte
    // just before, on, and just past the 8-byte length field, and at the
    // start of a fresh block (digests from an independent implementation).
    const std::pair<std::size_t, const char*> cases[] = {
        {55, "e7313d333c272e639f790978283f9eb392e843d0f29b7016828bb1daa4aac70b"},
        {56, "4324d65f3c103567f5589c710bc08f8523f929a9272e3af36fc968e52abc6c27"},
        {57, "35df609437dcfea3279283ab79fd554e2bf78f8f7ae2de532d8ee300b09e8f73"},
        {63, "81c80242132f230c3bd41b3e63bbcff16107339549214a99614ff26664625055"},
        {64, "39e3d7b6b5d075d37d053ad89b24b41bef4f3c29760c84447cab3f3be1882241"},
        {119, "9ce7368e4daf32341631b492e80359dc9f594b48453cd0dd5bf0b19279cc177e"},
        {120, "7836b787757e95e58b3ca5aec90b1b004e8deba1e50e9675af9cabf1a13a04b5"},
    };
    for (const auto& [len, want] : cases) {
        Bytes data(len);
        for (std::size_t i = 0; i < len; ++i) data[i] = static_cast<std::uint8_t>(i * 7 + 3);
        EXPECT_EQ(to_hex(sha256(data)), want) << "length " << len;
    }
}

// ---------------------------------------------------------------------------
// HMAC (RFC 4231 / RFC 2202 vectors)
// ---------------------------------------------------------------------------

TEST(Hmac, Sha256Rfc4231Case1) {
    const Bytes key(20, 0x0b);
    EXPECT_EQ(to_hex(hmac_sha256(key, B("Hi There"))),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Sha256Rfc4231Case2) {
    EXPECT_EQ(to_hex(hmac_sha256(B("Jefe"), B("what do ya want for nothing?"))),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Sha256LongKeyIsHashedFirst) {
    const Bytes key(131, 0xaa);
    EXPECT_EQ(to_hex(hmac_sha256(key, B("Test Using Larger Than Block-Size Key - Hash Key First"))),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, PrecomputedKeyIsReusable) {
    // One HmacSha256Key tags many messages: tag() copies the absorbed pad
    // states and never disturbs them.
    const Bytes raw(20, 0x0b);
    const HmacSha256Key key(raw);
    for (int i = 0; i < 3; ++i) {
        const auto tag = key.tag(B("Hi There"));
        EXPECT_EQ(to_hex(Bytes(tag.begin(), tag.end())),
                  "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
        const auto other = key.tag(B("other"));
        EXPECT_EQ(Bytes(other.begin(), other.end()), hmac_sha256(raw, B("other")));
    }
}

TEST(Hmac, DifferentKeysDifferentTags) {
    const Bytes k1(32, 0x01), k2(32, 0x02);
    EXPECT_NE(to_hex(hmac_sha256(k1, B("m"))), to_hex(hmac_sha256(k2, B("m"))));
}

// ---------------------------------------------------------------------------
// SHA-256 compression kernels, each run directly
// ---------------------------------------------------------------------------

constexpr std::uint32_t kSha256Iv[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// SHA-256 of `data` through one kernel, with the FIPS 180-4 padding written
// out here rather than taken from Sha256::finish.
Bytes digest_with(detail::CompressFn compress, std::span<const std::uint8_t> data) {
    Bytes padded(data.begin(), data.end());
    padded.push_back(0x80);
    while (padded.size() % 64 != 56) padded.push_back(0);
    const std::uint64_t bits = static_cast<std::uint64_t>(data.size()) * 8;
    for (int i = 7; i >= 0; --i) padded.push_back(static_cast<std::uint8_t>(bits >> (8 * i)));

    std::uint32_t state[8];
    std::copy(std::begin(kSha256Iv), std::end(kSha256Iv), state);
    compress(state, padded.data(), padded.size() / 64);

    Bytes out;
    for (const std::uint32_t word : state) {
        for (int shift = 24; shift >= 0; shift -= 8) {
            out.push_back(static_cast<std::uint8_t>(word >> shift));
        }
    }
    return out;
}

// HMAC-SHA256 (RFC 2104) through one kernel.
Bytes hmac_with(detail::CompressFn compress, Bytes key, std::span<const std::uint8_t> data) {
    if (key.size() > 64) key = digest_with(compress, key);
    key.resize(64, 0);
    Bytes inner(key), outer(key);
    for (auto& b : inner) b ^= 0x36;
    for (auto& b : outer) b ^= 0x5c;
    inner.insert(inner.end(), data.begin(), data.end());
    const Bytes inner_digest = digest_with(compress, inner);
    outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
    return digest_with(compress, outer);
}

// Parameterized on the kernel's name; the SHA-NI instance skips on hosts
// without the SHA extensions.
class Sha256Kernel : public ::testing::TestWithParam<std::string> {
protected:
    void SetUp() override {
        if (GetParam() == "sha-ni" && !detail::shani_available()) {
            GTEST_SKIP() << "this CPU lacks the SHA extensions or SSE4.1";
        }
    }

    detail::CompressFn kernel() const {
        return GetParam() == "sha-ni" ? detail::compress_shani : detail::compress_portable;
    }
};

TEST_P(Sha256Kernel, Fips180Vectors) {
    EXPECT_EQ(to_hex(digest_with(kernel(), B(""))),
              "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(to_hex(digest_with(kernel(), B("abc"))),
              "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(to_hex(digest_with(kernel(),
                                 B("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
              "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(to_hex(digest_with(kernel(), Bytes(1000000, 0x61))),
              "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST_P(Sha256Kernel, Rfc4231Vectors) {
    EXPECT_EQ(to_hex(hmac_with(kernel(), Bytes(20, 0x0b), B("Hi There"))),
              "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    EXPECT_EQ(to_hex(hmac_with(kernel(), B("Jefe"), B("what do ya want for nothing?"))),
              "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    EXPECT_EQ(to_hex(hmac_with(kernel(), Bytes(131, 0xaa),
                               B("Test Using Larger Than Block-Size Key - Hash Key First"))),
              "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

INSTANTIATE_TEST_SUITE_P(Kernels, Sha256Kernel, ::testing::Values("portable", "sha-ni"),
                         [](const auto& info) {
                             return info.param == "sha-ni" ? std::string("ShaNi")
                                                           : std::string("Portable");
                         });

TEST(Sha256Kernels, ShaNiMatchesPortableOnRandomStatesAndRuns) {
    if (!detail::shani_available()) {
        GTEST_SKIP() << "this CPU lacks the SHA extensions or SSE4.1";
    }
    Rng rng(2024);
    Bytes buffer(8 * 64 + 15);
    for (int trial = 0; trial < 4000; ++trial) {
        std::uint32_t start[8];
        for (auto& word : start) word = static_cast<std::uint32_t>(rng.next());
        for (auto& b : buffer) b = static_cast<std::uint8_t>(rng.next());
        const std::size_t blocks = 1 + rng.uniform(8);
        // Misaligned starts too: the SIMD kernel must not assume alignment.
        const std::uint8_t* data = buffer.data() + rng.uniform(16);

        std::uint32_t portable[8], shani[8];
        std::copy(std::begin(start), std::end(start), portable);
        std::copy(std::begin(start), std::end(start), shani);
        detail::compress_portable(portable, data, blocks);
        detail::compress_shani(shani, data, blocks);
        ASSERT_TRUE(std::equal(std::begin(portable), std::end(portable), std::begin(shani)))
            << "trial " << trial << ", " << blocks << " block(s)";
    }
}

TEST(Sha256Kernels, KernelNameMatchesTheCpu) {
    EXPECT_STREQ(Sha256::kernel_name(), detail::shani_available() ? "sha-ni" : "portable");
}

TEST(Sha256, EverySplitOfAnUpdateMatchesTheOneShotDigest) {
    // update() hands each contiguous run of whole blocks to the kernel in one
    // call; a split anywhere must leave the digest unchanged.
    Bytes data(300);
    for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 13 + 5);
    for (std::size_t len = 1; len <= data.size(); ++len) {
        const auto message = std::span<const std::uint8_t>(data).first(len);
        const auto one_shot = Sha256::hash(message);
        for (std::size_t split = 0; split <= len; ++split) {
            Sha256 h;
            h.update(message.first(split));
            h.update(message.subspan(split));
            ASSERT_EQ(h.finish(), one_shot) << "length " << len << ", split at " << split;
        }
    }
}

// ---------------------------------------------------------------------------
// BigUint arithmetic
// ---------------------------------------------------------------------------

TEST(BigUint, ZeroProperties) {
    const BigUint z;
    EXPECT_TRUE(z.is_zero());
    EXPECT_EQ(z.bit_length(), 0u);
    EXPECT_EQ(z.to_hex(), "0");
    EXPECT_EQ(z + z, z);
    EXPECT_EQ(z * BigUint{12345}, z);
}

TEST(BigUint, HexRoundTrip) {
    const auto v = BigUint::from_hex("deadbeefcafebabe0123456789abcdef00ff");
    EXPECT_EQ(v.to_hex(), "deadbeefcafebabe0123456789abcdef00ff");
}

TEST(BigUint, BytesRoundTrip) {
    Bytes b = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09};
    const auto v = BigUint::from_bytes_be(b);
    EXPECT_EQ(v.to_bytes_be(9), b);
    // Padding grows on the left.
    Bytes padded = v.to_bytes_be(12);
    EXPECT_EQ(padded.size(), 12u);
    EXPECT_EQ(padded[0], 0);
    EXPECT_EQ(padded[3], 0x01);
}

TEST(BigUint, AddSubInverse) {
    Rng rng(42);
    for (int i = 0; i < 50; ++i) {
        Bytes ab(1 + rng.uniform(40)), bb(1 + rng.uniform(40));
        for (auto& x : ab) x = static_cast<std::uint8_t>(rng.next());
        for (auto& x : bb) x = static_cast<std::uint8_t>(rng.next());
        const auto a = BigUint::from_bytes_be(ab);
        const auto b = BigUint::from_bytes_be(bb);
        EXPECT_EQ((a + b) - b, a);
        EXPECT_EQ((a + b) - a, b);
    }
}

TEST(BigUint, SubUnderflowThrows) {
    EXPECT_THROW(BigUint{1} - BigUint{2}, std::underflow_error);
}

TEST(BigUint, MulDivProperty) {
    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
        Bytes ab(1 + rng.uniform(32)), bb(1 + rng.uniform(16));
        for (auto& x : ab) x = static_cast<std::uint8_t>(rng.next());
        for (auto& x : bb) x = static_cast<std::uint8_t>(rng.next());
        const auto a = BigUint::from_bytes_be(ab);
        const auto b = BigUint::from_bytes_be(bb);
        if (b.is_zero()) continue;
        const auto [q, r] = a.divmod(b);
        EXPECT_EQ(q * b + r, a);
        EXPECT_LT(r, b);
    }
}

TEST(BigUint, DivByZeroThrows) {
    EXPECT_THROW(BigUint{5}.divmod(BigUint{}), std::domain_error);
}

TEST(BigUint, ShiftRoundTrip) {
    const auto v = BigUint::from_hex("123456789abcdef0fedcba9876543210");
    for (std::size_t s : {1u, 7u, 63u, 64u, 65u, 130u}) {
        EXPECT_EQ((v << s) >> s, v) << "shift " << s;
    }
}

TEST(BigUint, KnownMultiplication) {
    // 0xffffffffffffffff^2 = 0xfffffffffffffffe0000000000000001
    const auto v = BigUint::from_hex("ffffffffffffffff");
    EXPECT_EQ((v * v).to_hex(), "fffffffffffffffe0000000000000001");
}

TEST(BigUint, Comparison) {
    EXPECT_LT(BigUint{1}, BigUint{2});
    EXPECT_LT(BigUint::from_hex("ffffffffffffffff"), BigUint::from_hex("10000000000000000"));
    EXPECT_EQ(BigUint{7}, BigUint{7});
}

TEST(BigUint, ModInverse) {
    // 3 * 4 = 12 = 1 mod 11
    EXPECT_EQ(mod_inverse(BigUint{3}, BigUint{11}), BigUint{4});
    EXPECT_THROW(mod_inverse(BigUint{6}, BigUint{9}), std::domain_error);
}

TEST(BigUint, ModInverseLarge) {
    Rng rng(99);
    const BigUint m = BigUint::from_hex("fffffffffffffffffffffffffffffffeffffffffffffffff");
    for (int i = 0; i < 10; ++i) {
        Bytes ab(20);
        for (auto& x : ab) x = static_cast<std::uint8_t>(rng.next());
        const auto a = BigUint::from_bytes_be(ab);
        if (a.is_zero()) continue;
        BigUint inv;
        try {
            inv = mod_inverse(a, m);
        } catch (const std::domain_error&) {
            continue;
        }
        EXPECT_EQ((a * inv).mod(m), BigUint{1});
    }
}

// ---------------------------------------------------------------------------
// Montgomery modexp
// ---------------------------------------------------------------------------

TEST(Montgomery, SmallKnownValues) {
    const Montgomery m(BigUint{97});
    EXPECT_EQ(m.modexp(BigUint{5}, BigUint{3}), BigUint{125 % 97});
    EXPECT_EQ(m.modexp(BigUint{2}, BigUint{96}), BigUint{1});  // Fermat
    EXPECT_EQ(m.modexp(BigUint{7}, BigUint{0}), BigUint{1});
}

TEST(Montgomery, EvenModulusRejected) {
    EXPECT_THROW(Montgomery(BigUint{10}), std::domain_error);
    EXPECT_THROW(Montgomery(BigUint{1}), std::domain_error);
}

TEST(Montgomery, MatchesNaiveForRandomInputs) {
    Rng rng(1234);
    for (int trial = 0; trial < 20; ++trial) {
        // Random odd modulus up to 128 bits.
        Bytes mb(16);
        for (auto& x : mb) x = static_cast<std::uint8_t>(rng.next());
        mb.back() |= 1;
        mb.front() |= 0x80;
        const auto mod = BigUint::from_bytes_be(mb);
        const Montgomery mont(mod);

        Bytes ab(8), eb(2);
        for (auto& x : ab) x = static_cast<std::uint8_t>(rng.next());
        for (auto& x : eb) x = static_cast<std::uint8_t>(rng.next());
        const auto base = BigUint::from_bytes_be(ab);
        const auto exp = BigUint::from_bytes_be(eb);

        // Naive square-and-multiply using divmod.
        BigUint naive{1};
        for (std::size_t i = exp.bit_length(); i-- > 0;) {
            naive = (naive * naive).mod(mod);
            if (exp.bit(i)) naive = (naive * base).mod(mod);
        }
        EXPECT_EQ(mont.modexp(base, exp), naive) << "trial " << trial;
    }
}

TEST(Montgomery, ModMul) {
    const Montgomery m(BigUint::from_hex("100000000000000000000000000000001"));  // odd? ends in 1
    const auto a = BigUint::from_hex("fedcba9876543210");
    const auto b = BigUint::from_hex("123456789abcdef");
    EXPECT_EQ(m.modmul(a, b), (a * b).mod(m.modulus()));
}

// ---------------------------------------------------------------------------
// Primality and RSA
// ---------------------------------------------------------------------------

TEST(Prime, KnownSmallPrimes) {
    Rng rng(5);
    for (std::uint64_t p : {2ull, 3ull, 5ull, 101ull, 65537ull, 2147483647ull}) {
        EXPECT_TRUE(is_probable_prime(BigUint{p}, rng)) << p;
    }
}

TEST(Prime, KnownComposites) {
    Rng rng(6);
    for (std::uint64_t c : {1ull, 4ull, 100ull, 65535ull, 561ull /*Carmichael*/,
                            341ull /*pseudoprime base 2*/}) {
        EXPECT_FALSE(is_probable_prime(BigUint{c}, rng)) << c;
    }
}

TEST(Prime, MersennePrime127) {
    Rng rng(7);
    const auto m127 = (BigUint{1} << 127) - BigUint{1};
    EXPECT_TRUE(is_probable_prime(m127, rng));
    const auto m128 = (BigUint{1} << 128) - BigUint{1};
    EXPECT_FALSE(is_probable_prime(m128, rng));
}

TEST(Rsa, GenerateSignVerify512) {
    Rng rng(2026);
    const auto kp = rsa_generate(512, rng);
    EXPECT_EQ(kp.pub.bits, 512u);
    EXPECT_EQ(kp.pub.n.bit_length(), 512u);

    const Bytes msg = B("total order is announced");
    const Bytes sig = rsa_sign(kp.priv, msg);
    EXPECT_EQ(sig.size(), 64u);
    EXPECT_TRUE(rsa_verify(kp.pub, msg, sig));
}

TEST(Rsa, TamperedMessageRejected) {
    Rng rng(2027);
    const auto kp = rsa_generate(512, rng);
    const Bytes msg = B("pay 100 to carol");
    const Bytes sig = rsa_sign(kp.priv, msg);
    Bytes tampered = msg;
    tampered[4] ^= 0x01;
    EXPECT_FALSE(rsa_verify(kp.pub, tampered, sig));
}

TEST(Rsa, TamperedSignatureRejected) {
    Rng rng(2028);
    const auto kp = rsa_generate(512, rng);
    const Bytes msg = B("view change 7");
    Bytes sig = rsa_sign(kp.priv, msg);
    sig[10] ^= 0x80;
    EXPECT_FALSE(rsa_verify(kp.pub, msg, sig));
}

TEST(Rsa, WrongKeyRejected) {
    Rng rng(2029);
    const auto kp1 = rsa_generate(512, rng);
    const auto kp2 = rsa_generate(512, rng);
    const Bytes msg = B("m");
    const Bytes sig = rsa_sign(kp1.priv, msg);
    EXPECT_FALSE(rsa_verify(kp2.pub, msg, sig));
}

TEST(Rsa, Sha256DigestModeWorks) {
    Rng rng(2030);
    const auto kp = rsa_generate(512, rng);
    const Bytes msg = B("sha mode");
    const Bytes sig = rsa_sign(kp.priv, msg, DigestAlgorithm::kSha256);
    EXPECT_TRUE(rsa_verify(kp.pub, msg, sig, DigestAlgorithm::kSha256));
    // Digest algorithm is bound into the padding: cross-verification fails.
    EXPECT_FALSE(rsa_verify(kp.pub, msg, sig, DigestAlgorithm::kMd5));
}

TEST(Rsa, WrongSizeSignatureRejected) {
    Rng rng(2031);
    const auto kp = rsa_generate(512, rng);
    EXPECT_FALSE(rsa_verify(kp.pub, B("m"), Bytes(63, 0)));
    EXPECT_FALSE(rsa_verify(kp.pub, B("m"), Bytes(65, 0)));
    EXPECT_FALSE(rsa_verify(kp.pub, B("m"), Bytes{}));
}

TEST(Rsa, DifferentBitsizes) {
    Rng rng(2032);
    for (const std::size_t bits : {256u, 384u, 768u}) {
        const auto kp = rsa_generate(bits, rng);
        EXPECT_EQ(kp.pub.n.bit_length(), bits);
        const Bytes msg = B("size sweep");
        EXPECT_TRUE(rsa_verify(kp.pub, msg, rsa_sign(kp.priv, msg)));
    }
}

// ---------------------------------------------------------------------------
// KeyService & SignedEnvelope
// ---------------------------------------------------------------------------

class KeyServiceTest : public ::testing::TestWithParam<crypto::KeyService::Backend> {};

TEST_P(KeyServiceTest, SignVerifyRoundTrip) {
    KeyService keys(GetParam(), 512, 1);
    keys.register_principal("FSO:1");
    const Bytes msg = B("hello");
    const Bytes sig = keys.signer("FSO:1").sign(msg);
    EXPECT_TRUE(keys.verifier("FSO:1").verify(msg, sig));
    Bytes bad = msg;
    bad[0] ^= 1;
    EXPECT_FALSE(keys.verifier("FSO:1").verify(bad, sig));
}

TEST_P(KeyServiceTest, PrincipalsAreIsolated) {
    KeyService keys(GetParam(), 512, 2);
    keys.register_principal("a");
    keys.register_principal("b");
    const Bytes msg = B("m");
    const Bytes sig_a = keys.signer("a").sign(msg);
    EXPECT_FALSE(keys.verifier("b").verify(msg, sig_a));
}

TEST_P(KeyServiceTest, RegisterIsIdempotent) {
    KeyService keys(GetParam(), 512, 3);
    keys.register_principal("x");
    const Bytes sig1 = keys.signer("x").sign(B("m"));
    keys.register_principal("x");  // must not rotate the key
    EXPECT_TRUE(keys.verifier("x").verify(B("m"), sig1));
}

TEST_P(KeyServiceTest, UnknownPrincipalThrows) {
    KeyService keys(GetParam(), 512, 4);
    EXPECT_THROW((void)keys.signer("ghost"), std::out_of_range);
    EXPECT_FALSE(keys.has_principal("ghost"));
}

INSTANTIATE_TEST_SUITE_P(Backends, KeyServiceTest,
                         ::testing::Values(crypto::KeyService::Backend::kHmac,
                                           crypto::KeyService::Backend::kRsa),
                         [](const auto& info) {
                             return info.param == crypto::KeyService::Backend::kHmac ? "Hmac"
                                                                                     : "Rsa";
                         });

TEST(KeyService, VerifyCachedIsSafeAcrossThreads) {
    // One KeyService is shared by every executor thread of a TCP
    // deployment, so the verify memo and its counters see concurrent
    // lookups and inserts. Four threads verify overlapping (message,
    // signature) pairs, genuine and mismatched: every verdict must be right
    // and every call must land in exactly one counter. Build with
    // -DFAILSIG_SANITIZE=thread to have a data race reported here.
    KeyService keys(KeyService::Backend::kHmac, 512, 5);
    keys.register_principal("GC:0");
    constexpr int kThreads = 4;
    constexpr int kMessages = 64;
    constexpr int kRounds = 8;
    std::vector<Bytes> msgs;
    std::vector<Bytes> sigs;
    for (int i = 0; i < kMessages; ++i) {
        msgs.push_back(B("m" + std::to_string(i)));
        sigs.push_back(keys.signer("GC:0").sign(msgs.back()));
    }

    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                for (int i = 0; i < kMessages; ++i) {
                    const auto m = static_cast<std::size_t>((i + 16 * t) % kMessages);
                    const auto other = (m + 1) % kMessages;
                    if (!keys.verify_cached("GC:0", msgs[m], sigs[m])) ++wrong;
                    if (keys.verify_cached("GC:0", msgs[m], sigs[other])) ++wrong;
                }
            }
        });
    }
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(wrong.load(), 0);
    const std::uint64_t calls = 2ULL * kThreads * kRounds * kMessages;
    EXPECT_EQ(keys.verify_ops() + keys.verify_cache_hits(), calls);
    // Each distinct pair is verified at least once and at most once per
    // thread (concurrent first misses may both run the verifier).
    EXPECT_GE(keys.verify_ops(), 2ULL * kMessages);
    EXPECT_LE(keys.verify_ops(), 2ULL * kMessages * kThreads);
}

// A pair whose memo key is `len` bytes: 8 bytes of length prefixes, a
// 32-byte HMAC tag and the message.
Bytes message_of_key_size(std::size_t len, std::uint32_t tag) {
    Bytes msg(len - 8 - 32, 0);
    for (std::size_t i = 0; i < 4; ++i) msg[i] = static_cast<std::uint8_t>(tag >> (8 * i));
    return msg;
}

TEST(KeyService, MemoHitNeedsByteEqualMessageAndSignature) {
    // A memoized (m, s) must not answer for (m', s) or (m, s') that differ
    // in one byte at equal length: the verifier runs again and rejects.
    KeyService keys(KeyService::Backend::kHmac, 512, 6);
    keys.register_principal("A");
    const Bytes msg = B("memo key must be the bytes, not a hash of them");
    const Bytes sig = keys.signer("A").sign(msg);
    ASSERT_TRUE(keys.verify_cached("A", msg, sig));
    ASSERT_TRUE(keys.verify_cached("A", msg, sig));

    Bytes msg2 = msg;
    msg2[msg2.size() / 2] ^= 0x01;
    auto ops = keys.verify_ops();
    EXPECT_FALSE(keys.verify_cached("A", msg2, sig));
    EXPECT_EQ(keys.verify_ops(), ops + 1);

    Bytes sig2 = sig;
    sig2.back() ^= 0x80;
    ops = keys.verify_ops();
    EXPECT_FALSE(keys.verify_cached("A", msg, sig2));
    EXPECT_EQ(keys.verify_ops(), ops + 1);

    EXPECT_EQ(keys.verify_cache_hits(), 1u);
}

TEST(KeyService, MemoBucketCollisionStillComparesEveryByte) {
    // The memo's bucket hash reads only the signature and the message
    // length, so a forged pair that reuses a memoized signature over a
    // same-length message lands in the genuine pair's bucket. It must miss
    // and verify false; the genuine pair must still hit.
    KeyService keys(KeyService::Backend::kHmac, 512, 16);
    keys.register_principal("A");
    Bytes msg(1024);
    for (std::size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<std::uint8_t>(i * 7);
    const Bytes sig = keys.signer("A").sign(msg);
    ASSERT_TRUE(keys.verify_cached("A", msg, sig));

    Bytes forged = msg;
    forged[forged.size() / 2] ^= 0x01;
    const auto ops = keys.verify_ops();
    const auto hits = keys.verify_cache_hits();
    EXPECT_FALSE(keys.verify_cached("A", forged, sig));
    EXPECT_EQ(keys.verify_ops(), ops + 1);
    EXPECT_EQ(keys.verify_cache_hits(), hits);

    EXPECT_TRUE(keys.verify_cached("A", msg, sig));
    EXPECT_FALSE(keys.verify_cached("A", forged, sig));  // its own verdict, memoized
    EXPECT_EQ(keys.verify_ops(), ops + 1);
    EXPECT_EQ(keys.verify_cache_hits(), hits + 2);
}

TEST(KeyService, MessagePartsAreTheirConcatenation) {
    // A message handed over in parts is the same pair as the joined bytes,
    // for the signer, the verifier and the memo alike; a split that moves
    // bytes from the message into the signature is a different pair.
    KeyService keys(KeyService::Backend::kHmac, 512, 17);
    keys.register_principal("A");
    const Bytes msg = B("a region handed over as three parts");
    const std::span<const std::uint8_t> whole(msg);
    const std::array<std::span<const std::uint8_t>, 4> parts{
        whole.first(4), whole.subspan(4, 0), whole.subspan(4, 20), whole.subspan(24)};
    const Bytes sig = keys.signer("A").sign(ByteParts(parts));
    EXPECT_EQ(sig, keys.signer("A").sign(msg));
    EXPECT_TRUE(keys.verifier("A").verify(ByteParts(parts), sig));

    ASSERT_TRUE(keys.verify_cached("A", msg, sig));
    EXPECT_TRUE(keys.verify_cached("A", ByteParts(parts), sig));
    EXPECT_EQ(keys.verify_ops(), 1u);
    EXPECT_EQ(keys.verify_cache_hits(), 1u);

    Bytes longer = msg;
    longer.push_back(sig.front());
    EXPECT_FALSE(keys.verify_cached("A", longer, std::span(sig).subspan(1)));
    EXPECT_EQ(keys.verify_ops(), 2u);
}

TEST(KeyService, MemoStaysWithinItsBudgetAndEvictsOldestFirst) {
    KeyService keys(KeyService::Backend::kHmac, 512, 7);
    keys.register_principal("A");
    keys.register_principal("B");
    constexpr std::size_t kKey = 1024;
    constexpr std::size_t kFit = KeyService::kMemoBudgetBytes / kKey;

    // One genuine and one forged pair, memoized first so they are the
    // oldest and go first.
    const Bytes good = message_of_key_size(kKey, 0xffffffffu);
    const Bytes good_sig = keys.signer("A").sign(good);
    const Bytes forged_sig = keys.signer("B").sign(good);
    ASSERT_TRUE(keys.verify_cached("A", good, good_sig));
    ASSERT_FALSE(keys.verify_cached("A", good, forged_sig));
    EXPECT_EQ(keys.memo_bytes("A"), 2 * kKey);

    // Fill well past the budget under the one principal.
    for (std::size_t i = 0; i < 3 * kFit; ++i) {
        const Bytes msg = message_of_key_size(kKey, static_cast<std::uint32_t>(i));
        ASSERT_TRUE(keys.verify_cached("A", msg, keys.signer("A").sign(msg)));
        ASSERT_LE(keys.memo_bytes("A"), KeyService::kMemoBudgetBytes);
    }
    EXPECT_EQ(keys.memo_bytes("A"), kFit * kKey);
    EXPECT_EQ(keys.memo_evictions(), 2 + 2 * kFit);
    EXPECT_EQ(keys.memo_bytes("B"), 0u);
    EXPECT_EQ(keys.memo_bytes("ghost"), 0u);

    // The two evicted pairs are verified again and keep their verdicts.
    auto ops = keys.verify_ops();
    EXPECT_TRUE(keys.verify_cached("A", good, good_sig));
    EXPECT_EQ(keys.verify_ops(), ops + 1);
    ops = keys.verify_ops();
    EXPECT_FALSE(keys.verify_cached("A", good, forged_sig));
    EXPECT_EQ(keys.verify_ops(), ops + 1);
    // ...and are memoized again.
    EXPECT_TRUE(keys.verify_cached("A", good, good_sig));
    EXPECT_FALSE(keys.verify_cached("A", good, forged_sig));
    EXPECT_EQ(keys.verify_ops(), ops + 1);
    EXPECT_LE(keys.memo_bytes("A"), KeyService::kMemoBudgetBytes);
}

TEST(KeyService, PairLargerThanTheBudgetIsVerifiedButNotMemoized) {
    KeyService keys(KeyService::Backend::kHmac, 512, 8);
    keys.register_principal("A");
    const Bytes huge = message_of_key_size(KeyService::kMemoBudgetBytes + 1, 0);
    const Bytes sig = keys.signer("A").sign(huge);
    EXPECT_TRUE(keys.verify_cached("A", huge, sig));
    EXPECT_TRUE(keys.verify_cached("A", huge, sig));
    EXPECT_EQ(keys.verify_ops(), 2u);
    EXPECT_EQ(keys.memo_bytes("A"), 0u);
    EXPECT_EQ(keys.memo_evictions(), 0u);
}

TEST(KeyService, VerifyCachedEvictsSafelyAcrossThreads) {
    // The eviction path under contention: four threads verify a key set
    // twice the budget, so inserts and evictions interleave with lookups.
    // Build with -DFAILSIG_SANITIZE=thread to have a data race reported here.
    KeyService keys(KeyService::Backend::kHmac, 512, 9);
    keys.register_principal("GC:0");
    constexpr int kThreads = 4;
    constexpr std::size_t kKey = 1024;
    constexpr int kMessages = static_cast<int>(2 * KeyService::kMemoBudgetBytes / kKey);
    constexpr int kRounds = 3;
    std::vector<Bytes> msgs;
    std::vector<Bytes> sigs;
    for (int i = 0; i < kMessages; ++i) {
        msgs.push_back(message_of_key_size(kKey, static_cast<std::uint32_t>(i)));
        sigs.push_back(keys.signer("GC:0").sign(msgs.back()));
    }

    std::atomic<int> wrong{0};
    std::atomic<std::size_t> max_bytes{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int round = 0; round < kRounds; ++round) {
                for (int i = 0; i < kMessages; ++i) {
                    const auto m = static_cast<std::size_t>((i + 32 * t) % kMessages);
                    const auto other = (m + 1) % kMessages;
                    if (!keys.verify_cached("GC:0", msgs[m], sigs[m])) ++wrong;
                    if (keys.verify_cached("GC:0", msgs[m], sigs[other])) ++wrong;
                    const std::size_t bytes = keys.memo_bytes("GC:0");
                    std::size_t seen = max_bytes.load();
                    while (bytes > seen && !max_bytes.compare_exchange_weak(seen, bytes)) {
                    }
                }
            }
        });
    }
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(wrong.load(), 0);
    const std::uint64_t calls = 2ULL * kThreads * kRounds * kMessages;
    EXPECT_EQ(keys.verify_ops() + keys.verify_cache_hits(), calls);
    EXPECT_GT(keys.memo_evictions(), 0u);
    EXPECT_LE(max_bytes.load(), KeyService::kMemoBudgetBytes);
    EXPECT_LE(keys.memo_bytes("GC:0"), KeyService::kMemoBudgetBytes);
}

TEST(SignedEnvelope, DoubleSignedValidation) {
    KeyService keys(KeyService::Backend::kHmac, 512, 10);
    keys.register_principal("Compare");
    keys.register_principal("Compare'");

    SignedEnvelope env(B("output of p"));
    env.add_signature(keys.signer("Compare"));
    env.add_signature(keys.signer("Compare'"));

    EXPECT_TRUE(env.verify_chain(keys));
    EXPECT_TRUE(env.is_valid_double_signed(keys, "Compare", "Compare'"));
    // Order-agnostic: both (leader-first) and (follower-first) are valid.
    EXPECT_TRUE(env.is_valid_double_signed(keys, "Compare'", "Compare"));
}

TEST(SignedEnvelope, SingleSignatureIsNotDoubleSigned) {
    KeyService keys(KeyService::Backend::kHmac, 512, 11);
    keys.register_principal("Compare");
    SignedEnvelope env(B("x"));
    env.add_signature(keys.signer("Compare"));
    EXPECT_TRUE(env.verify_chain(keys));
    EXPECT_FALSE(env.is_valid_double_signed(keys, "Compare", "Compare'"));
}

TEST(SignedEnvelope, WrongPrincipalsRejected) {
    KeyService keys(KeyService::Backend::kHmac, 512, 12);
    keys.register_principal("a");
    keys.register_principal("b");
    keys.register_principal("c");
    SignedEnvelope env(B("x"));
    env.add_signature(keys.signer("a"));
    env.add_signature(keys.signer("c"));
    EXPECT_FALSE(env.is_valid_double_signed(keys, "a", "b"));
}

TEST(SignedEnvelope, EncodeDecodeRoundTrip) {
    KeyService keys(KeyService::Backend::kHmac, 512, 13);
    keys.register_principal("p1");
    keys.register_principal("p2");
    SignedEnvelope env(B("payload bytes"));
    env.add_signature(keys.signer("p1"));
    env.add_signature(keys.signer("p2"));

    const Bytes wire = env.encode();
    const auto decoded = SignedEnvelope::decode(wire);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded.value().payload(), env.payload());
    EXPECT_TRUE(decoded.value().verify_chain(keys));
}

TEST(SignedEnvelope, PayloadTamperBreaksChain) {
    KeyService keys(KeyService::Backend::kHmac, 512, 14);
    keys.register_principal("p1");
    SignedEnvelope env(B("honest"));
    env.add_signature(keys.signer("p1"));
    Bytes wire = env.encode();
    wire[5] ^= 0xff;  // flip a payload byte
    const auto decoded = SignedEnvelope::decode(wire);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_FALSE(decoded.value().verify_chain(keys));
}

TEST(SignedEnvelope, CountersignatureCoversFirstSignature) {
    // Swapping the first signature after countersigning must invalidate the
    // chain, because signature 2 covers signature block 1.
    KeyService keys(KeyService::Backend::kHmac, 512, 15);
    keys.register_principal("p1");
    keys.register_principal("p2");

    SignedEnvelope a(B("m"));
    a.add_signature(keys.signer("p1"));
    a.add_signature(keys.signer("p2"));

    SignedEnvelope b(B("m"));
    b.add_signature(keys.signer("p2"));  // different first signer
    ASSERT_TRUE(a.verify_chain(keys));

    // Graft b's first block onto a's second block via wire surgery:
    SignedEnvelope franken(B("m"));
    franken.add_signature(keys.signer("p2"));
    // now append a's second signature block verbatim by decoding a's wire
    Bytes wire_a = a.encode();
    auto decoded_a = SignedEnvelope::decode(wire_a);
    ASSERT_TRUE(decoded_a.has_value());
    // Rebuild manually: payload + [b's block, a's second block]
    ByteWriter w;
    w.bytes(B("m"));
    w.u32(2);
    w.str(franken.signatures()[0].principal);
    w.bytes(franken.signatures()[0].signature);
    w.str(decoded_a.value().signatures()[1].principal);
    w.bytes(decoded_a.value().signatures()[1].signature);
    const auto grafted = SignedEnvelope::decode(w.view());
    ASSERT_TRUE(grafted.has_value());
    EXPECT_FALSE(grafted.value().verify_chain(keys));
}

TEST(SignedEnvelope, EncodeSignedMatchesAddSignatureThenEncode) {
    KeyService keys(KeyService::Backend::kHmac, 512, 18);
    keys.register_principal("p1");
    const Bytes payload = B("signed straight onto the wire");
    SignedEnvelope env(payload);
    env.add_signature(keys.signer("p1"));
    EXPECT_EQ(SignedEnvelope::encode_signed(payload, keys.signer("p1")), env.encode());
}

TEST(SignedEnvelope, VerifyChainIsSafeAcrossThreads) {
    // Every executor thread of a TCP deployment verifies envelopes against
    // one KeyService. Four threads verify one shared double-signed 8 KiB
    // envelope (and a forged copy): each builds its signed regions on its
    // own stack, the memo is shared. Build with -DFAILSIG_SANITIZE=thread
    // to have a data race reported here.
    KeyService keys(KeyService::Backend::kHmac, 512, 19);
    keys.register_principal("Compare");
    keys.register_principal("Compare'");
    SignedEnvelope env(Bytes(8 * 1024, 0x5a));
    env.add_signature(keys.signer("Compare"));
    env.add_signature(keys.signer("Compare'"));
    Bytes wire = env.encode();
    wire[4 + 4096] ^= 0x01;  // one payload byte
    const auto forged = SignedEnvelope::decode(wire);
    ASSERT_TRUE(forged.has_value());

    constexpr int kThreads = 4;
    constexpr int kRounds = 64;
    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&] {
            for (int round = 0; round < kRounds; ++round) {
                if (!env.verify_chain(keys)) ++wrong;
                if (!env.is_valid_double_signed(keys, "Compare'", "Compare")) ++wrong;
                if (forged.value().verify_chain(keys)) ++wrong;
            }
        });
    }
    for (auto& thread : threads) thread.join();

    EXPECT_EQ(wrong.load(), 0);
    // Two regions per genuine chain walk, one for the forged copy (its first
    // block already fails).
    EXPECT_EQ(keys.verify_ops() + keys.verify_cache_hits(), 5ULL * kThreads * kRounds);
    EXPECT_GE(keys.verify_ops(), 3u);
    EXPECT_LE(keys.verify_ops(), 3u * kThreads);
}

TEST(SignedEnvelope, DecodeRejectsGarbage) {
    EXPECT_FALSE(SignedEnvelope::decode(Bytes{1, 2, 3}).has_value());
    EXPECT_FALSE(SignedEnvelope::decode(Bytes{}).has_value());
    // Implausible signature count.
    ByteWriter w;
    w.bytes(Bytes{});
    w.u32(1000000);
    EXPECT_FALSE(SignedEnvelope::decode(w.view()).has_value());
}

}  // namespace
}  // namespace failsig::crypto
