// SHA-256 (FIPS 180-4). Modern digest used by HMAC authentication and as the
// recommended alternative to the paper's MD5.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bytes.hpp"

namespace failsig::crypto {

/// Incremental SHA-256 hasher.
class Sha256 {
public:
    static constexpr std::size_t kDigestSize = 32;

    Sha256();

    void update(std::span<const std::uint8_t> data);
    std::array<std::uint8_t, kDigestSize> finish();
    void reset();

    static std::array<std::uint8_t, kDigestSize> hash(std::span<const std::uint8_t> data);

    /// The compression kernel this process uses: "sha-ni" when the CPU has
    /// the x86 SHA extensions and SSE4.1, "portable" otherwise. Chosen once,
    /// from CPUID, on first use.
    static const char* kernel_name();

private:
    /// Compresses `n` consecutive 64-byte blocks into the state.
    void compress(const std::uint8_t* blocks, std::size_t n);

    std::uint32_t state_[8];
    std::uint64_t total_len_{0};
    std::uint8_t buffer_[64];
    std::size_t buffer_len_{0};
};

/// One-shot SHA-256 digest as Bytes.
Bytes sha256(std::span<const std::uint8_t> data);

}  // namespace failsig::crypto
