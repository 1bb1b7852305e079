// Wire formats used by the fail-signal machinery.
//
//  * FsInput      — a logical input to an FS process (deduplicated by uid).
//  * FsOrder      — leader/follower input-ordering records (Appendix A:
//                   receiveDouble traffic; seq 0 means "not yet ordered").
//  * FsOutput     — an output record: identity (input seq, output index),
//                   destination, operation and body. The *entire* record is
//                   what the Compare processes match, so a faulty replica
//                   that keeps the payload but redirects the message is
//                   caught too.
//  * FsFailSignal — the unique fail-signal of an FS process.
//
// Each is carried inside a crypto::SignedEnvelope; a one-byte kind tag leads
// every payload so receivers can dispatch without guessing.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "fs/service.hpp"
#include "orb/request.hpp"

namespace failsig::fs {

enum class WireKind : std::uint8_t {
    kInput = 1,
    kOrder = 2,
    kOutput = 3,
    kFailSignal = 4,
};

/// Reads the kind tag without consuming the buffer.
Result<WireKind> peek_kind(std::span<const std::uint8_t> data);

struct FsInput {
    std::string uid;            ///< global dedup key for this logical input
    std::string operation;      ///< target service operation
    Bytes body;                 ///< service-level payload
    std::string origin_fs;      ///< source FS process name; empty for clients
    orb::ObjectRef origin_ref;  ///< client reply reference; empty for FS origin

    /// Exact encoded size; hot encoders reserve() this up front.
    [[nodiscard]] std::size_t wire_size() const;
    [[nodiscard]] Bytes encode() const;
    /// Appends exactly the bytes encode() returns.
    void encode_into(ByteWriter& w) const;
    static Result<FsInput> decode(std::span<const std::uint8_t> data);

    friend bool operator==(const FsInput&, const FsInput&) = default;
};

struct FsOrder {
    std::uint64_t seq{0};  ///< leader-assigned order; 0 = unordered dispatch
    FsInput input;

    [[nodiscard]] Bytes encode() const;
    /// The encoding of FsOrder{seq, input}, without copying `input` into a
    /// record first.
    [[nodiscard]] static Bytes encode(std::uint64_t seq, const FsInput& input);
    static Result<FsOrder> decode(std::span<const std::uint8_t> data);
};

struct FsOutput {
    std::string source_fs;
    std::uint64_t input_seq{0};
    std::uint32_t out_index{0};
    std::vector<fs::Destination> dests;
    std::string operation;
    Bytes body;

    /// Output identity within its FS process.
    [[nodiscard]] std::pair<std::uint64_t, std::uint32_t> id() const {
        return {input_seq, out_index};
    }

    [[nodiscard]] std::size_t wire_size() const;
    [[nodiscard]] Bytes encode() const;
    static Result<FsOutput> decode(std::span<const std::uint8_t> data);

    friend bool operator==(const FsOutput&, const FsOutput&) = default;
};

struct FsFailSignal {
    std::string source_fs;

    [[nodiscard]] Bytes encode() const;
    static Result<FsFailSignal> decode(std::span<const std::uint8_t> data);
};

void encode_object_ref(ByteWriter& w, const orb::ObjectRef& ref);
orb::ObjectRef decode_object_ref(ByteReader& r);

}  // namespace failsig::fs
