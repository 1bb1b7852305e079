// HMAC (RFC 2104) over SHA-256.
//
// Used as the fast message-authentication backend inside simulated
// deployments (where RSA's CPU cost is charged in *simulated* time via the
// cost model) while still providing real tamper detection in tests.
#pragma once

#include <array>
#include <span>

#include "common/bytes.hpp"
#include "crypto/sha256.hpp"

namespace failsig::crypto {

/// An HMAC key with its padded blocks already absorbed: the inner (ipad) and
/// outer (opad) hasher states are computed once per key, so a tag costs the
/// data's compressions plus two, instead of re-deriving and re-hashing both
/// pads every time.
template <typename Hasher>
class HmacKey {
public:
    using Tag = std::array<std::uint8_t, Hasher::kDigestSize>;

    explicit HmacKey(std::span<const std::uint8_t> key);

    [[nodiscard]] Tag tag(std::span<const std::uint8_t> data) const;
    /// Tag of the concatenation of `parts`, fed to the inner hasher one part
    /// at a time — the same tag as over one joined buffer, with no join.
    [[nodiscard]] Tag tag(ByteParts parts) const;

private:
    Hasher inner_;
    Hasher outer_;
};

extern template class HmacKey<Sha256>;

using HmacSha256Key = HmacKey<Sha256>;

/// HMAC-SHA256 of `data` under `key` (32-byte tag).
Bytes hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> data);

}  // namespace failsig::crypto
