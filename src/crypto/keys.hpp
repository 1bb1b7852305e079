// Principal key management: maps named principals (e.g. "FSO:3", "GC:1") to
// signing and verification capabilities — assumption A5 of the paper
// ("a process of a correct node can sign the messages it sends and the signed
// message cannot be generated nor undetectably altered by ... another node").
//
// Two backends:
//  * kRsa  — real RSA signatures (the paper's scheme); slower, used by the
//            crypto benchmarks and when fidelity matters more than speed.
//  * kHmac — HMAC-SHA256 tags under per-principal secrets; fast, with real
//            tamper detection, used inside large simulated deployments where
//            RSA's CPU cost is charged in *simulated* time by the cost model.
#pragma once

#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "crypto/rsa.hpp"

namespace failsig::crypto {

/// Signs messages on behalf of one principal.
class Signer {
public:
    virtual ~Signer() = default;
    /// Signs the concatenation of `message`'s parts.
    [[nodiscard]] virtual Bytes sign(ByteParts message) const = 0;
    [[nodiscard]] Bytes sign(std::span<const std::uint8_t> message) const {
        return sign(ByteParts(&message, 1));
    }
    [[nodiscard]] virtual const std::string& principal() const = 0;
};

/// Verifies signatures attributed to one principal.
class Verifier {
public:
    virtual ~Verifier() = default;
    /// Verifies `signature` over the concatenation of `message`'s parts.
    [[nodiscard]] virtual bool verify(ByteParts message,
                                      std::span<const std::uint8_t> signature) const = 0;
    [[nodiscard]] bool verify(std::span<const std::uint8_t> message,
                              std::span<const std::uint8_t> signature) const {
        return verify(ByteParts(&message, 1), signature);
    }
};

/// Registry of principals and their keys.
class KeyService {
public:
    enum class Backend { kRsa, kHmac };

    /// `rsa_bits` only applies to the kRsa backend; `seed` makes key material
    /// reproducible.
    explicit KeyService(Backend backend, std::size_t rsa_bits = 512,
                        std::uint64_t seed = 0x5eedf00d);

    /// Creates keys for `name`; idempotent.
    void register_principal(const std::string& name);

    /// Regenerates `name`'s key material (epoch change / compromise). The
    /// fresh entry starts with an empty memo, so every verdict memoized for
    /// the principal is dropped — a signature that verified under the old
    /// key must be re-checked under the new one.
    void rotate_principal(const std::string& name);

    /// Registers a pairwise HMAC session key shared by exactly {a, b},
    /// under `link_principal(a, b)` — the paper's MAC-authenticator
    /// trade-off: point-to-point traffic that needs no third-party
    /// verification can be authenticated at symmetric-crypto cost even when
    /// the backend signs everything else with RSA. Idempotent.
    void register_link(const std::string& a, const std::string& b);
    [[nodiscard]] static std::string link_principal(const std::string& a, const std::string& b);

    /// Throws std::out_of_range for unknown principals.
    [[nodiscard]] const Signer& signer(const std::string& name) const;
    [[nodiscard]] const Verifier& verifier(const std::string& name) const;
    [[nodiscard]] bool has_principal(const std::string& name) const;

    /// Verifies through a per-principal memo keyed on the (message,
    /// signature) bytes themselves: a pair that was already checked costs a
    /// hash-table lookup and one byte comparison instead of a verifier call,
    /// so a relayed double-signed envelope is verified once per principal,
    /// not once per hop. The lookup reads the message in place, as parts:
    /// the bucket hash covers only the signature and the message length,
    /// and a hit requires the whole pair to be byte-equal to the stored one.
    /// Negative verdicts are memoized too; the stored key (a copy of the
    /// pair) is built only when a verdict is stored. Each principal's memo
    /// holds at most kMemoBudgetBytes of pairs and evicts the oldest first —
    /// an evicted pair is simply verified again. Unknown principals verify
    /// false. Thread-safe: the memo and the counters are guarded (every
    /// executor thread of a TCP deployment shares one KeyService); the
    /// verifier runs and the stored key is built outside the lock.
    [[nodiscard]] bool verify_cached(const std::string& name, ByteParts message,
                                     std::span<const std::uint8_t> signature) const;
    [[nodiscard]] bool verify_cached(const std::string& name,
                                     std::span<const std::uint8_t> message,
                                     std::span<const std::uint8_t> signature) const {
        return verify_cached(name, ByteParts(&message, 1), signature);
    }

    /// Per-principal memo budget, in bytes of memoized (message, signature)
    /// pairs. Sized so no gated bench cell ever evicts.
    static constexpr std::size_t kMemoBudgetBytes = 64 * 1024;

    [[nodiscard]] Backend backend() const { return backend_; }

    /// Real verifier invocations (memo misses), memo hits and memo
    /// evictions, for the perf-regression bench.
    [[nodiscard]] std::uint64_t verify_ops() const {
        const std::lock_guard lock(memo_mu_);
        return verify_ops_;
    }
    [[nodiscard]] std::uint64_t verify_cache_hits() const {
        const std::lock_guard lock(memo_mu_);
        return verify_cache_hits_;
    }
    [[nodiscard]] std::uint64_t memo_evictions() const {
        const std::lock_guard lock(memo_mu_);
        return memo_evictions_;
    }
    /// Bytes currently memoized for `name` (0 for an unknown principal);
    /// never above kMemoBudgetBytes.
    [[nodiscard]] std::size_t memo_bytes(const std::string& name) const;

private:
    /// A (message, signature) pair as the caller holds it, for lookups that
    /// copy nothing. A stored key is the same pair flattened: u32 message
    /// length ++ message ++ u32 signature length ++ signature (little-endian
    /// lengths, as ByteWriter::bytes), so (m, s) and (m', s') with
    /// m ++ s == m' ++ s' stay apart.
    struct PairView {
        ByteParts message;
        std::size_t message_size{0};
        std::span<const std::uint8_t> signature;
    };
    /// Hashes the signature bytes and the message length — a fixed-size
    /// slice of the pair, identical for a stored key and a PairView.
    struct PairHash {
        using is_transparent = void;
        std::size_t operator()(std::string_view key) const;
        std::size_t operator()(const PairView& pair) const;
    };
    /// Full byte equality between stored keys and PairViews.
    struct PairEqual {
        using is_transparent = void;
        bool operator()(std::string_view a, std::string_view b) const { return a == b; }
        bool operator()(const PairView& pair, std::string_view key) const;
        bool operator()(std::string_view key, const PairView& pair) const {
            return (*this)(pair, key);
        }
    };

    /// Verdicts for one principal, oldest first. `verdicts` views the key
    /// strings owned by `keys`; a deque never moves its elements on
    /// push_back/pop_front, so the views stay valid until their key is
    /// evicted.
    struct Memo {
        std::deque<std::string> keys;
        std::unordered_map<std::string_view, bool, PairHash, PairEqual> verdicts;
        std::size_t bytes{0};
    };

    struct Entry {
        std::unique_ptr<Signer> signer;
        std::unique_ptr<Verifier> verifier;
        /// Guarded by memo_mu_; replacing the Entry (rotation) drops it.
        mutable Memo memo;
    };

    void make_entry(const std::string& name);
    /// Stores `pair -> ok` unless already present, evicting the oldest
    /// pairs to stay within kMemoBudgetBytes. Builds the key before taking
    /// memo_mu_.
    void remember(Memo& memo, const PairView& pair, bool ok) const;

    Backend backend_;
    std::size_t rsa_bits_;
    Rng rng_;
    std::unordered_map<std::string, Entry> entries_;
    /// Guards every Entry::memo, verify_ops_, verify_cache_hits_ and
    /// memo_evictions_.
    mutable std::mutex memo_mu_;
    mutable std::uint64_t verify_ops_{0};
    mutable std::uint64_t verify_cache_hits_{0};
    mutable std::uint64_t memo_evictions_{0};
};

}  // namespace failsig::crypto
