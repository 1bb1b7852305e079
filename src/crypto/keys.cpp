#include "crypto/keys.hpp"

#include <algorithm>
#include <stdexcept>

#include "crypto/hmac.hpp"

namespace failsig::crypto {

namespace {

class RsaSigner final : public Signer {
public:
    RsaSigner(std::string principal, RsaPrivateKey key)
        : principal_(std::move(principal)), key_(std::move(key)) {}

    [[nodiscard]] Bytes sign(std::span<const std::uint8_t> message) const override {
        return rsa_sign(key_, message, DigestAlgorithm::kMd5);
    }
    [[nodiscard]] const std::string& principal() const override { return principal_; }

private:
    std::string principal_;
    RsaPrivateKey key_;
};

class RsaVerifier final : public Verifier {
public:
    explicit RsaVerifier(RsaPublicKey key) : key_(std::move(key)) {}

    [[nodiscard]] bool verify(std::span<const std::uint8_t> message,
                              std::span<const std::uint8_t> signature) const override {
        return rsa_verify(key_, message, signature, DigestAlgorithm::kMd5);
    }

private:
    RsaPublicKey key_;
};

class HmacSigner final : public Signer {
public:
    HmacSigner(std::string principal, std::span<const std::uint8_t> key)
        : principal_(std::move(principal)), key_(key) {}

    [[nodiscard]] Bytes sign(std::span<const std::uint8_t> message) const override {
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

    [[nodiscard]] bool verify(std::span<const std::uint8_t> message,
                              std::span<const std::uint8_t> signature) const override {
        return constant_time_equal(key_.tag(message), signature);
    }

private:
    HmacSha256Key key_;
};

// The memo key: length-prefixed message ++ length-prefixed signature (u32
// little-endian lengths, as ByteWriter::bytes). The prefixes keep (m, s) and
// (m', s') with m++s == m'++s' apart.
std::string memo_key(std::span<const std::uint8_t> message,
                     std::span<const std::uint8_t> signature) {
    std::string key;
    key.reserve(8 + message.size() + signature.size());
    for (const auto part : {message, signature}) {
        const auto len = static_cast<std::uint32_t>(part.size());
        for (int i = 0; i < 4; ++i) key.push_back(static_cast<char>(len >> (8 * i)));
        key.append(reinterpret_cast<const char*>(part.data()), part.size());
    }
    return key;
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

bool KeyService::verify_cached(const std::string& name, std::span<const std::uint8_t> message,
                               std::span<const std::uint8_t> signature) const {
    const auto it = entries_.find(name);
    if (it == entries_.end()) return false;
    const Entry& entry = it->second;
    std::string key = memo_key(message, signature);
    {
        const std::lock_guard lock(memo_mu_);
        const auto hit = entry.memo.verdicts.find(key);
        if (hit != entry.memo.verdicts.end()) {
            ++verify_cache_hits_;
            return hit->second;
        }
        ++verify_ops_;
    }
    const bool ok = entry.verifier->verify(message, signature);
    const std::lock_guard lock(memo_mu_);
    remember(entry.memo, std::move(key), ok);
    return ok;
}

void KeyService::remember(Memo& memo, std::string key, bool ok) const {
    // A racing thread may have verified and stored the same pair meanwhile;
    // a pair larger than the whole budget is never stored.
    if (key.size() > kMemoBudgetBytes || memo.verdicts.contains(key)) return;
    while (memo.bytes + key.size() > kMemoBudgetBytes) {
        memo.bytes -= memo.keys.front().size();
        memo.verdicts.erase(memo.keys.front());
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
