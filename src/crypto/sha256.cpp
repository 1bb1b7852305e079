#include "crypto/sha256.hpp"

#include <cmath>
#include <cstring>

#include "crypto/sha256_kernels.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define FAILSIG_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace failsig::crypto {

namespace {

// Round constants: first 32 bits of the fractional parts of the cube roots of
// the first 64 primes; initial state: fractional parts of the square roots of
// the first 8 primes. Generated at start-up from the definition to avoid
// transcription errors; verified against FIPS test vectors in the test suite.
const std::uint32_t* primes64() {
    static const auto table = [] {
        std::array<std::uint32_t, 64> p{};
        std::uint32_t count = 0;
        for (std::uint32_t n = 2; count < 64; ++n) {
            bool prime = true;
            for (std::uint32_t d = 2; d * d <= n; ++d) {
                if (n % d == 0) {
                    prime = false;
                    break;
                }
            }
            if (prime) p[count++] = n;
        }
        return p;
    }();
    return table.data();
}

std::uint32_t frac_bits(long double v) {
    return static_cast<std::uint32_t>(
        static_cast<std::uint64_t>((v - std::floor(v)) * 4294967296.0L));
}

const std::array<std::uint32_t, 64>& k_table() {
    static const auto table = [] {
        std::array<std::uint32_t, 64> k{};
        for (int i = 0; i < 64; ++i) {
            k[static_cast<std::size_t>(i)] =
                frac_bits(std::cbrt(static_cast<long double>(primes64()[i])));
        }
        return k;
    }();
    return table;
}

const std::array<std::uint32_t, 8>& h_init() {
    static const auto table = [] {
        std::array<std::uint32_t, 8> h{};
        for (int i = 0; i < 8; ++i) {
            h[static_cast<std::size_t>(i)] =
                frac_bits(std::sqrt(static_cast<long double>(primes64()[i])));
        }
        return h;
    }();
    return table;
}

std::uint32_t rotr(std::uint32_t x, int c) { return (x >> c) | (x << (32 - c)); }

}  // namespace

namespace detail {

void compress_portable(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n) {
    const auto& k = k_table();
    for (; n > 0; --n, blocks += 64) {
        std::uint32_t w[64];
        for (int i = 0; i < 16; ++i) {
            w[i] = (static_cast<std::uint32_t>(blocks[i * 4]) << 24) |
                   (static_cast<std::uint32_t>(blocks[i * 4 + 1]) << 16) |
                   (static_cast<std::uint32_t>(blocks[i * 4 + 2]) << 8) |
                   static_cast<std::uint32_t>(blocks[i * 4 + 3]);
        }
        for (int i = 16; i < 64; ++i) {
            const std::uint32_t s0 =
                rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
            const std::uint32_t s1 =
                rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16] + s0 + w[i - 7] + s1;
        }

        std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
        std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
        for (int i = 0; i < 64; ++i) {
            const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
            const std::uint32_t ch = (e & f) ^ (~e & g);
            const std::uint32_t t1 = h + s1 + ch + k[static_cast<std::size_t>(i)] + w[i];
            const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
            const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
            const std::uint32_t t2 = s0 + maj;
            h = g;
            g = f;
            f = e;
            e = d + t1;
            d = c;
            c = b;
            b = a;
            a = t1 + t2;
        }

        state[0] += a;
        state[1] += b;
        state[2] += c;
        state[3] += d;
        state[4] += e;
        state[5] += f;
        state[6] += g;
        state[7] += h;
    }
}

#ifdef FAILSIG_SHA256_X86

bool shani_available() {
    unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
    if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
    const bool sse41 = (ecx & (1u << 19)) != 0;
    if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
    const bool sha = (ebx & (1u << 29)) != 0;
    return sse41 && sha;
}

// SHA-256 with the x86 SHA extensions. The state lives in two registers in
// the order sha256rnds2 wants (ABEF and CDGH); each sha256rnds2 does two
// rounds, so a group of four message words takes two of them. The message
// schedule rolls through four registers: sha256msg1 and sha256msg2 build the
// words of group g + 1 from groups g - 3 .. g. The 16-group loop is fully
// unrolled, which turns `m[g % 4]` into fixed registers.
__attribute__((target("sha,sse4.1"))) void compress_shani(std::uint32_t* state,
                                                          const std::uint8_t* blocks,
                                                          std::size_t n) {
    const auto* k = reinterpret_cast<const __m128i*>(k_table().data());
    // Byte-swaps each 32-bit word: message words are big-endian.
    const __m128i bswap = _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

    // Lanes are listed highest first. state[0..7] = A..H becomes
    // abef = {A, B, E, F} and cdgh = {C, D, G, H}.
    __m128i tmp = _mm_shuffle_epi32(_mm_loadu_si128(reinterpret_cast<const __m128i*>(state)),
                                    0xB1);  // {C, D, A, B}
    __m128i cdgh = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);  // {E, F, G, H}
    __m128i abef = _mm_alignr_epi8(tmp, cdgh, 8);
    cdgh = _mm_blend_epi16(cdgh, tmp, 0xF0);

    for (; n > 0; --n, blocks += 64) {
        const __m128i abef_in = abef;
        const __m128i cdgh_in = cdgh;
        __m128i m[4];
#pragma GCC unroll 16
        for (int g = 0; g < 16; ++g) {
            if (g < 4) {
                m[g] = _mm_shuffle_epi8(
                    _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * g)), bswap);
            }
            __m128i wk = _mm_add_epi32(m[g % 4], _mm_loadu_si128(k + g));
            cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
            if (g >= 3 && g < 15) {
                __m128i& next = m[(g + 1) % 4];
                next = _mm_add_epi32(next, _mm_alignr_epi8(m[g % 4], m[(g + 3) % 4], 4));
                next = _mm_sha256msg2_epu32(next, m[g % 4]);
            }
            wk = _mm_shuffle_epi32(wk, 0x0E);
            abef = _mm_sha256rnds2_epu32(abef, cdgh, wk);
            if (g >= 1 && g < 13) {
                m[(g + 3) % 4] = _mm_sha256msg1_epu32(m[(g + 3) % 4], m[g % 4]);
            }
        }
        abef = _mm_add_epi32(abef, abef_in);
        cdgh = _mm_add_epi32(cdgh, cdgh_in);
    }

    tmp = _mm_shuffle_epi32(abef, 0x1B);   // {F, E, B, A}
    cdgh = _mm_shuffle_epi32(cdgh, 0xB1);  // {D, C, H, G}
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                     _mm_blend_epi16(tmp, cdgh, 0xF0));  // {D, C, B, A}
    _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                     _mm_alignr_epi8(cdgh, tmp, 8));  // {H, G, F, E}
}

#else

bool shani_available() { return false; }

// Never called: shani_available() is false off x86. Defined so the kernel
// tests link everywhere; they skip the SHA-NI half on such hosts.
void compress_shani(std::uint32_t* state, const std::uint8_t* blocks, std::size_t n) {
    compress_portable(state, blocks, n);
}

#endif

}  // namespace detail

namespace {

// The kernel for this process, chosen on first use. A function-local static,
// so no static initializer can run a hash before the choice is made.
detail::CompressFn kernel() {
    static const detail::CompressFn chosen =
        detail::shani_available() ? detail::compress_shani : detail::compress_portable;
    return chosen;
}

}  // namespace

Sha256::Sha256() { reset(); }

void Sha256::reset() {
    const auto& h = h_init();
    for (int i = 0; i < 8; ++i) state_[i] = h[static_cast<std::size_t>(i)];
    total_len_ = 0;
    buffer_len_ = 0;
}

void Sha256::update(std::span<const std::uint8_t> data) {
    total_len_ += data.size();
    std::size_t offset = 0;
    if (buffer_len_ > 0) {
        const std::size_t take = std::min(64 - buffer_len_, data.size());
        std::memcpy(buffer_ + buffer_len_, data.data(), take);
        buffer_len_ += take;
        offset = take;
        if (buffer_len_ == 64) {
            compress(buffer_, 1);
            buffer_len_ = 0;
        }
    }
    // Every whole block left goes to the kernel in one call, so a SIMD kernel
    // loads and stores the state once per run rather than once per block.
    const std::size_t blocks = (data.size() - offset) / 64;
    if (blocks > 0) {
        compress(data.data() + offset, blocks);
        offset += blocks * 64;
    }
    if (offset < data.size()) {
        std::memcpy(buffer_, data.data() + offset, data.size() - offset);
        buffer_len_ = data.size() - offset;
    }
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::finish() {
    // Padding in place: 0x80, zero fill, then the 64-bit big-endian bit
    // length in the last 8 bytes — spilling into a second block when fewer
    // than 9 bytes are left in this one.
    const std::uint64_t bit_len = total_len_ * 8;
    buffer_[buffer_len_++] = 0x80;
    if (buffer_len_ > 56) {
        std::memset(buffer_ + buffer_len_, 0, 64 - buffer_len_);
        compress(buffer_, 1);
        buffer_len_ = 0;
    }
    std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
    for (int i = 0; i < 8; ++i) {
        buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
    }
    compress(buffer_, 1);
    buffer_len_ = 0;

    std::array<std::uint8_t, kDigestSize> out{};
    for (int i = 0; i < 8; ++i) {
        for (int j = 0; j < 4; ++j) {
            out[static_cast<std::size_t>(i * 4 + j)] =
                static_cast<std::uint8_t>(state_[i] >> (8 * (3 - j)));
        }
    }
    return out;
}

void Sha256::compress(const std::uint8_t* blocks, std::size_t n) { kernel()(state_, blocks, n); }

const char* Sha256::kernel_name() {
    return kernel() == detail::compress_portable ? "portable" : "sha-ni";
}

std::array<std::uint8_t, Sha256::kDigestSize> Sha256::hash(std::span<const std::uint8_t> data) {
    Sha256 h;
    h.update(data);
    return h.finish();
}

Bytes sha256(std::span<const std::uint8_t> data) {
    const auto d = Sha256::hash(data);
    return Bytes(d.begin(), d.end());
}

}  // namespace failsig::crypto
