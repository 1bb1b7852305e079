#include "crypto/hmac.hpp"

#include <algorithm>

namespace failsig::crypto {

template <typename Hasher>
HmacKey<Hasher>::HmacKey(std::span<const std::uint8_t> key) {
    constexpr std::size_t kBlock = 64;  // SHA-256 block size

    std::array<std::uint8_t, kBlock> k{};
    if (key.size() > kBlock) {
        const auto kd = Hasher::hash(key);
        std::copy(kd.begin(), kd.end(), k.begin());
    } else {
        std::copy(key.begin(), key.end(), k.begin());
    }

    std::array<std::uint8_t, kBlock> ipad{}, opad{};
    for (std::size_t i = 0; i < kBlock; ++i) {
        ipad[i] = static_cast<std::uint8_t>(k[i] ^ 0x36);
        opad[i] = static_cast<std::uint8_t>(k[i] ^ 0x5c);
    }
    inner_.update(ipad);
    outer_.update(opad);
}

template <typename Hasher>
typename HmacKey<Hasher>::Tag HmacKey<Hasher>::tag(std::span<const std::uint8_t> data) const {
    return tag(ByteParts(&data, 1));
}

template <typename Hasher>
typename HmacKey<Hasher>::Tag HmacKey<Hasher>::tag(ByteParts parts) const {
    Hasher inner = inner_;
    for (const auto part : parts) inner.update(part);
    const auto inner_digest = inner.finish();

    Hasher outer = outer_;
    outer.update(inner_digest);
    return outer.finish();
}

template class HmacKey<Sha256>;

namespace {

template <typename Hasher>
Bytes one_shot(std::span<const std::uint8_t> key, std::span<const std::uint8_t> data) {
    const auto tag = HmacKey<Hasher>(key).tag(data);
    return Bytes(tag.begin(), tag.end());
}

}  // namespace

Bytes hmac_sha256(std::span<const std::uint8_t> key, std::span<const std::uint8_t> data) {
    return one_shot<Sha256>(key, data);
}

}  // namespace failsig::crypto
