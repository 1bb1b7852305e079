#include "crypto/keys.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "crypto/hmac.hpp"

namespace failsig::crypto {

namespace {

/// The parts joined into one buffer — RSA is off the hot path.
Bytes joined(ByteParts parts) {
    std::size_t size = 0;
    for (const auto part : parts) size += part.size();
    Bytes out;
    out.reserve(size);
    for (const auto part : parts) out.insert(out.end(), part.begin(), part.end());
    return out;
}

class RsaSigner final : public Signer {
public:
    RsaSigner(std::string principal, RsaPrivateKey key)
        : principal_(std::move(principal)), key_(std::move(key)) {}

    [[nodiscard]] Bytes sign(ByteParts message) const override {
        return rsa_sign(key_, joined(message), DigestAlgorithm::kMd5);
    }
    [[nodiscard]] const std::string& principal() const override { return principal_; }

private:
    std::string principal_;
    RsaPrivateKey key_;
};

class RsaVerifier final : public Verifier {
public:
    explicit RsaVerifier(RsaPublicKey key) : key_(std::move(key)) {}

    [[nodiscard]] bool verify(ByteParts message,
                              std::span<const std::uint8_t> signature) const override {
        return rsa_verify(key_, joined(message), signature, DigestAlgorithm::kMd5);
    }

private:
    RsaPublicKey key_;
};

class HmacSigner final : public Signer {
public:
    HmacSigner(std::string principal, std::span<const std::uint8_t> key)
        : principal_(std::move(principal)), key_(key) {}

    [[nodiscard]] Bytes sign(ByteParts message) const override {
        const auto tag = key_.tag(message);
        return Bytes(tag.begin(), tag.end());
    }
    [[nodiscard]] const std::string& principal() const override { return principal_; }

private:
    std::string principal_;
    HmacSha256Key key_;
};

class HmacVerifier final : public Verifier {
public:
    explicit HmacVerifier(std::span<const std::uint8_t> key) : key_(key) {}

    [[nodiscard]] bool verify(ByteParts message,
                              std::span<const std::uint8_t> signature) const override {
        return constant_time_equal(key_.tag(message), signature);
    }

private:
    HmacSha256Key key_;
};

/// A memo-key length prefix (u32 little-endian, as ByteWriter::bytes).
std::array<char, 4> length_prefix(std::size_t n) {
    return {static_cast<char>(n), static_cast<char>(n >> 8), static_cast<char>(n >> 16),
            static_cast<char>(n >> 24)};
}

std::string_view chars(std::span<const std::uint8_t> bytes) {
    return {reinterpret_cast<const char*>(bytes.data()), bytes.size()};
}

std::string_view chars(const std::array<char, 4>& prefix) { return {prefix.data(), 4}; }

std::size_t pair_hash(std::size_t message_size, std::string_view signature) {
    return std::hash<std::string_view>{}(signature) ^ (message_size * 0x9e3779b97f4a7c15ULL);
}

}  // namespace

KeyService::KeyService(Backend backend, std::size_t rsa_bits, std::uint64_t seed)
    : backend_(backend), rsa_bits_(rsa_bits), rng_(seed) {}

void KeyService::make_entry(const std::string& name) {
    Entry entry;
    if (backend_ == Backend::kRsa) {
        auto kp = rsa_generate(rsa_bits_, rng_);
        entry.signer = std::make_unique<RsaSigner>(name, std::move(kp.priv));
        entry.verifier = std::make_unique<RsaVerifier>(std::move(kp.pub));
    } else {
        Bytes key(32);
        for (auto& b : key) b = static_cast<std::uint8_t>(rng_.next());
        entry.signer = std::make_unique<HmacSigner>(name, key);
        entry.verifier = std::make_unique<HmacVerifier>(key);
    }
    entries_[name] = std::move(entry);
}

void KeyService::register_principal(const std::string& name) {
    if (entries_.contains(name)) return;
    make_entry(name);
}

void KeyService::rotate_principal(const std::string& name) { make_entry(name); }

std::string KeyService::link_principal(const std::string& a, const std::string& b) {
    const auto& lo = std::min(a, b);
    const auto& hi = std::max(a, b);
    return "link:" + lo + "|" + hi;
}

void KeyService::register_link(const std::string& a, const std::string& b) {
    const std::string name = link_principal(a, b);
    if (entries_.contains(name)) return;
    // Session keys are symmetric regardless of the signing backend: the MAC
    // trade-off only makes sense against asymmetric per-principal keys.
    Bytes key(32);
    for (auto& kb : key) kb = static_cast<std::uint8_t>(rng_.next());
    Entry entry;
    entry.signer = std::make_unique<HmacSigner>(name, key);
    entry.verifier = std::make_unique<HmacVerifier>(key);
    entries_[name] = std::move(entry);
}

std::size_t KeyService::PairHash::operator()(std::string_view key) const {
    std::size_t message_size = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        message_size |= static_cast<std::size_t>(static_cast<std::uint8_t>(key[i])) << (8 * i);
    }
    return pair_hash(message_size, key.substr(8 + message_size));
}

std::size_t KeyService::PairHash::operator()(const PairView& pair) const {
    return pair_hash(pair.message_size, chars(pair.signature));
}

bool KeyService::PairEqual::operator()(const PairView& pair, std::string_view key) const {
    if (key.size() != 8 + pair.message_size + pair.signature.size()) return false;
    const auto next = [&key](std::size_t n) {
        const auto head = key.substr(0, n);
        key.remove_prefix(n);
        return head;
    };
    if (next(4) != chars(length_prefix(pair.message_size))) return false;
    for (const auto part : pair.message) {
        if (next(part.size()) != chars(part)) return false;
    }
    return next(4) == chars(length_prefix(pair.signature.size())) &&
           key == chars(pair.signature);
}

bool KeyService::verify_cached(const std::string& name, ByteParts message,
                               std::span<const std::uint8_t> signature) const {
    const auto it = entries_.find(name);
    if (it == entries_.end()) return false;
    const Entry& entry = it->second;
    std::size_t message_size = 0;
    for (const auto part : message) message_size += part.size();
    const PairView pair{message, message_size, signature};
    {
        const std::lock_guard lock(memo_mu_);
        const auto hit = entry.memo.verdicts.find(pair);
        if (hit != entry.memo.verdicts.end()) {
            ++verify_cache_hits_;
            return hit->second;
        }
        ++verify_ops_;
    }
    const bool ok = entry.verifier->verify(message, signature);
    remember(entry.memo, pair, ok);
    return ok;
}

void KeyService::remember(Memo& memo, const PairView& pair, bool ok) const {
    const std::size_t size = 8 + pair.message_size + pair.signature.size();
    // A pair larger than the whole budget is never stored.
    if (size > kMemoBudgetBytes) return;
    std::string key;
    key.reserve(size);
    key.append(chars(length_prefix(pair.message_size)));
    for (const auto part : pair.message) key.append(chars(part));
    key.append(chars(length_prefix(pair.signature.size())));
    key.append(chars(pair.signature));

    const std::lock_guard lock(memo_mu_);
    // A racing thread may have verified and stored the same pair meanwhile.
    if (memo.verdicts.contains(std::string_view(key))) return;
    while (memo.bytes + key.size() > kMemoBudgetBytes) {
        memo.bytes -= memo.keys.front().size();
        memo.verdicts.erase(std::string_view(memo.keys.front()));
        memo.keys.pop_front();
        ++memo_evictions_;
    }
    memo.bytes += key.size();
    memo.keys.push_back(std::move(key));
    memo.verdicts.emplace(memo.keys.back(), ok);
}

std::size_t KeyService::memo_bytes(const std::string& name) const {
    const auto it = entries_.find(name);
    if (it == entries_.end()) return 0;
    const std::lock_guard lock(memo_mu_);
    return it->second.memo.bytes;
}

const Signer& KeyService::signer(const std::string& name) const {
    return *entries_.at(name).signer;
}

const Verifier& KeyService::verifier(const std::string& name) const {
    return *entries_.at(name).verifier;
}

bool KeyService::has_principal(const std::string& name) const { return entries_.contains(name); }

}  // namespace failsig::crypto
