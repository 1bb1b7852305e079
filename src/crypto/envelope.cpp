#include "crypto/envelope.hpp"

#include <algorithm>
#include <array>

namespace failsig::crypto {

namespace {

std::uint8_t* put_u32(std::uint8_t* out, std::size_t v) {
    for (std::size_t i = 0; i < 4; ++i) *out++ = static_cast<std::uint8_t>(v >> (8 * i));
    return out;
}

/// The region signature block k covers,
///   bytes(payload) ++ u32(k) ++ block_0 ++ ... ++ block_{k-1}
/// (each block its length-prefixed principal and signature), handed to the
/// signer and the verify memo as three parts: the payload's length prefix,
/// a view of the payload and a tail holding everything after it. Nothing
/// copies the payload. The tail is built on the stack; only a tail past
/// kInlineTail bytes (a long chain, or RSA keys far above the default
/// size) goes to the heap.
class SignedRegion {
public:
    SignedRegion(std::span<const std::uint8_t> payload, std::span<const SignatureBlock> before) {
        put_u32(length_.data(), payload.size());
        std::size_t tail_size = 4;
        for (const auto& block : before) {
            tail_size += 8 + block.principal.size() + block.signature.size();
        }
        std::uint8_t* tail = inline_tail_.data();
        if (tail_size > kInlineTail) {
            heap_tail_.resize(tail_size);
            tail = heap_tail_.data();
        }
        std::uint8_t* out = put_u32(tail, before.size());
        for (const auto& block : before) {
            out = put_u32(out, block.principal.size());
            out = std::copy(block.principal.begin(), block.principal.end(), out);
            out = put_u32(out, block.signature.size());
            out = std::copy(block.signature.begin(), block.signature.end(), out);
        }
        parts_ = {std::span<const std::uint8_t>(length_), payload,
                  std::span<const std::uint8_t>(tail, tail_size)};
    }
    // parts_ points into this object.
    SignedRegion(const SignedRegion&) = delete;
    SignedRegion& operator=(const SignedRegion&) = delete;

    [[nodiscard]] ByteParts parts() const { return parts_; }

private:
    static constexpr std::size_t kInlineTail = 256;

    std::array<std::uint8_t, 4> length_{};
    std::array<std::uint8_t, kInlineTail> inline_tail_{};
    Bytes heap_tail_;
    std::array<std::span<const std::uint8_t>, 3> parts_{};
};

Bytes encode_wire(std::span<const std::uint8_t> payload, std::span<const SignatureBlock> blocks) {
    ByteWriter w;
    std::size_t size = 8 + payload.size();
    for (const auto& block : blocks) {
        size += 8 + block.principal.size() + block.signature.size();
    }
    w.reserve(size);
    w.bytes(payload);
    w.u32(static_cast<std::uint32_t>(blocks.size()));
    for (const auto& block : blocks) {
        w.str(block.principal);
        w.bytes(block.signature);
    }
    return w.take();
}

}  // namespace

void SignedEnvelope::add_signature(const Signer& signer) {
    const SignedRegion region(payload_, signatures_);
    signatures_.push_back(SignatureBlock{signer.principal(), signer.sign(region.parts())});
}

bool SignedEnvelope::verify_chain(const KeyService& keys) const {
    for (std::size_t i = 0; i < signatures_.size(); ++i) {
        const auto& block = signatures_[i];
        const SignedRegion region(payload_, std::span(signatures_).first(i));
        if (!keys.verify_cached(block.principal, region.parts(), block.signature)) return false;
    }
    return true;
}

bool SignedEnvelope::is_valid_double_signed(const KeyService& keys, const std::string& a,
                                            const std::string& b) const {
    if (signatures_.size() != 2) return false;
    const auto& first = signatures_[0].principal;
    const auto& second = signatures_[1].principal;
    const bool order_ok = (first == a && second == b) || (first == b && second == a);
    return order_ok && verify_chain(keys);
}

Bytes SignedEnvelope::encode() const { return encode_wire(payload_, signatures_); }

Bytes SignedEnvelope::encode_signed(std::span<const std::uint8_t> payload, const Signer& signer) {
    const SignedRegion region(payload, {});
    const SignatureBlock block{signer.principal(), signer.sign(region.parts())};
    return encode_wire(payload, std::span(&block, 1));
}

Result<SignedEnvelope> SignedEnvelope::decode(std::span<const std::uint8_t> data) {
    try {
        ByteReader r(data);
        SignedEnvelope env(r.bytes());
        const auto count = r.u32();
        if (count > 16) return Result<SignedEnvelope>::err("implausible signature count");
        for (std::uint32_t i = 0; i < count; ++i) {
            SignatureBlock block;
            block.principal = r.str();
            block.signature = r.bytes();
            env.signatures_.push_back(std::move(block));
        }
        if (!r.done()) return Result<SignedEnvelope>::err("trailing bytes in envelope");
        return env;
    } catch (const std::out_of_range&) {
        return Result<SignedEnvelope>::err("truncated envelope");
    }
}

}  // namespace failsig::crypto
