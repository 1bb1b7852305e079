// Signed message envelopes with ordered signature chains.
//
// The paper's fail-signal construction distinguishes *single-signed* outputs
// (Compare -> Compare' exchange) from *double-signed* outputs (valid FS
// process outputs carry "authentic signatures of both Compare and Compare'
// ... but in different order"). A SignedEnvelope carries the payload plus an
// ordered list of signature blocks, where signature k covers the payload and
// all signature blocks before it — so a countersignature also authenticates
// the first signature, and signature order is verifiable.
#pragma once

#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "crypto/keys.hpp"

namespace failsig::crypto {

struct SignatureBlock {
    std::string principal;
    Bytes signature;

    friend bool operator==(const SignatureBlock&, const SignatureBlock&) = default;
};

class SignedEnvelope {
public:
    SignedEnvelope() = default;
    explicit SignedEnvelope(Bytes payload) : payload_(std::move(payload)) {}

    [[nodiscard]] const Bytes& payload() const { return payload_; }
    [[nodiscard]] const std::vector<SignatureBlock>& signatures() const { return signatures_; }

    /// Appends a signature block covering the payload and all prior blocks.
    void add_signature(const Signer& signer);

    /// Verifies every signature block, in order, against the key service.
    /// Returns false if any principal is unknown or any signature is invalid.
    [[nodiscard]] bool verify_chain(const KeyService& keys) const;

    /// True if the envelope carries valid signatures by exactly the two given
    /// principals, in either order — the paper's validity rule for FS
    /// process outputs.
    [[nodiscard]] bool is_valid_double_signed(const KeyService& keys, const std::string& a,
                                              const std::string& b) const;

    [[nodiscard]] Bytes encode() const;
    static Result<SignedEnvelope> decode(std::span<const std::uint8_t> data);

    /// The wire image of an envelope carrying `payload` and one signature
    /// block by `signer` — what SignedEnvelope(payload), add_signature and
    /// encode() produce, without copying the payload into an envelope.
    static Bytes encode_signed(std::span<const std::uint8_t> payload, const Signer& signer);

private:
    // Block k signs bytes(payload) ++ u32(k) ++ block_0 ++ ... ++ block_{k-1};
    // sign and verify stream that region to the key service in parts, so
    // the envelope keeps no copy of it.
    Bytes payload_;
    std::vector<SignatureBlock> signatures_;
};

}  // namespace failsig::crypto
