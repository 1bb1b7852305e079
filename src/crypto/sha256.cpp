#include "crypto/sha256.hpp"

#include <cmath>
#include <cstring>

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
            process_block(buffer_);
            buffer_len_ = 0;
        }
    }
    while (offset + 64 <= data.size()) {
        process_block(data.data() + offset);
        offset += 64;
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
        process_block(buffer_);
        buffer_len_ = 0;
    }
    std::memset(buffer_ + buffer_len_, 0, 56 - buffer_len_);
    for (int i = 0; i < 8; ++i) {
        buffer_[56 + i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
    }
    process_block(buffer_);
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

void Sha256::process_block(const std::uint8_t* block) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
        w[i] = (static_cast<std::uint32_t>(block[i * 4]) << 24) |
               (static_cast<std::uint32_t>(block[i * 4 + 1]) << 16) |
               (static_cast<std::uint32_t>(block[i * 4 + 2]) << 8) |
               static_cast<std::uint32_t>(block[i * 4 + 3]);
    }
    for (int i = 16; i < 64; ++i) {
        const std::uint32_t s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
        const std::uint32_t s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];
    std::uint32_t e = state_[4], f = state_[5], g = state_[6], h = state_[7];
    const auto& k = k_table();

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

    state_[0] += a;
    state_[1] += b;
    state_[2] += c;
    state_[3] += d;
    state_[4] += e;
    state_[5] += f;
    state_[6] += g;
    state_[7] += h;
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
