// Wire-level tests for the TCP backend's codecs: the length-prefixed frame
// format (net/frame.hpp) and the node-id ↔ host:port directory
// (net/endpoint_map.hpp). The FrameReader sits directly behind the socket
// read loop, so it is fuzzed the way an adversarial or corrupt peer would
// exercise it: garbage streams, truncation at every offset, and hostile
// length fields. Finally, real TcpDeployments: the published ephemeral-port
// directory of concurrent deployments must never collide, and the
// quiescence barrier wakes only executors that have work.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "deploy/deployment.hpp"
#include "deploy/tcp.hpp"
#include "net/endpoint_map.hpp"
#include "net/frame.hpp"

namespace failsig::net {
namespace {

Bytes payload_of(std::initializer_list<std::uint8_t> bytes) { return Bytes(bytes); }

Frame expect_one_frame(FrameReader& reader) {
    auto frame = reader.next();
    EXPECT_TRUE(frame.has_value());
    EXPECT_FALSE(reader.failed()) << reader.error();
    return frame.has_value() ? std::move(*frame) : Frame{};
}

TEST(Frame, RoundTripsThroughReader) {
    const Endpoint src{NodeId{7}, PortId{3}};
    const Endpoint dst{NodeId{1}, PortId{99}};
    const Bytes payload = payload_of({0xde, 0xad, 0xbe, 0xef});
    const Bytes wire = encode_frame(src, dst, payload);

    FrameReader reader;
    reader.feed(wire);
    const Frame frame = expect_one_frame(reader);
    EXPECT_EQ(frame.src, src);
    EXPECT_EQ(frame.dst, dst);
    EXPECT_EQ(frame.payload, payload);
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_EQ(reader.buffered(), 0u);
}

TEST(Frame, EmptyPayloadIsLegal) {
    const Bytes wire = encode_frame(Endpoint{NodeId{1}, PortId{1}},
                                    Endpoint{NodeId{2}, PortId{2}}, Bytes{});
    FrameReader reader;
    reader.feed(wire);
    const Frame frame = expect_one_frame(reader);
    EXPECT_TRUE(frame.payload.empty());
}

TEST(Frame, ByteAtATimeFeedReassembles) {
    // A socket can hand the reader arbitrarily small chunks; the parser
    // must reassemble across every split point.
    const Bytes wire = encode_frame(Endpoint{NodeId{3}, PortId{4}},
                                    Endpoint{NodeId{5}, PortId{6}},
                                    payload_of({1, 2, 3, 4, 5, 6, 7}));
    FrameReader reader;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        reader.feed(std::span(&wire[i], 1));
        EXPECT_FALSE(reader.next().has_value()) << "frame complete too early at " << i;
        ASSERT_FALSE(reader.failed()) << reader.error();
    }
    reader.feed(std::span(&wire[wire.size() - 1], 1));
    const Frame frame = expect_one_frame(reader);
    EXPECT_EQ(frame.payload.size(), 7u);
}

TEST(Frame, BackToBackFramesInOneChunk) {
    Bytes wire = encode_frame(Endpoint{NodeId{1}, PortId{1}},
                              Endpoint{NodeId{2}, PortId{1}}, payload_of({0xaa}));
    const Bytes second = encode_frame(Endpoint{NodeId{2}, PortId{1}},
                                      Endpoint{NodeId{1}, PortId{1}}, payload_of({0xbb}));
    wire.insert(wire.end(), second.begin(), second.end());

    FrameReader reader;
    reader.feed(wire);
    EXPECT_EQ(expect_one_frame(reader).payload, payload_of({0xaa}));
    EXPECT_EQ(expect_one_frame(reader).payload, payload_of({0xbb}));
    EXPECT_FALSE(reader.next().has_value());
}

TEST(Frame, TruncatedFrameIsPendingNotPoisoned) {
    // Truncation is a normal stream condition (more bytes coming), never an
    // error: the reader reports "need more" and stays healthy.
    const Bytes wire = encode_frame(Endpoint{NodeId{1}, PortId{1}},
                                    Endpoint{NodeId{2}, PortId{2}},
                                    payload_of({9, 9, 9}));
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        FrameReader reader;
        reader.feed(std::span(wire.data(), cut));
        EXPECT_FALSE(reader.next().has_value()) << "cut at " << cut;
        EXPECT_FALSE(reader.failed()) << "cut at " << cut << ": " << reader.error();
    }
}

TEST(Frame, HostileLengthFieldPoisonsTheStream) {
    // A peer promising a 4 GiB body must be cut off before any allocation,
    // and the poison must be sticky — resync on a byte stream is impossible.
    for (const std::uint32_t hostile :
         {0xffffffffu, static_cast<std::uint32_t>(kMaxFrameBytes) + 1u}) {
        ByteWriter w;
        w.u32(hostile);
        FrameReader reader;
        reader.feed(w.take());
        EXPECT_FALSE(reader.next().has_value());
        EXPECT_TRUE(reader.failed());
        EXPECT_NE(reader.error().find("hostile length"), std::string::npos);

        // Sticky: even a well-formed frame afterwards is never surfaced.
        reader.feed(encode_frame(Endpoint{NodeId{1}, PortId{1}},
                                 Endpoint{NodeId{2}, PortId{2}}, payload_of({1})));
        EXPECT_FALSE(reader.next().has_value());
        EXPECT_TRUE(reader.failed());
    }
}

TEST(Frame, LengthBelowHeaderSizeIsHostile) {
    // The body must at least hold two endpoint headers; a shorter length is
    // a framing attack, not a short message.
    ByteWriter w;
    w.u32(static_cast<std::uint32_t>(2 * kEndpointWireBytes - 1));
    FrameReader reader;
    reader.feed(w.take());
    EXPECT_FALSE(reader.next().has_value());
    EXPECT_TRUE(reader.failed());
}

TEST(Frame, GarbageStreamsNeverCrashAndStayBounded) {
    // Deterministic garbage corpus: random byte streams fed in random chunk
    // sizes. The reader must never crash or grow unboundedly — every stream
    // either waits for more bytes or poisons itself.
    for (std::uint64_t seed = 1; seed <= 32; ++seed) {
        Rng rng(seed);
        FrameReader reader;
        Bytes chunk;
        for (int round = 0; round < 64 && !reader.failed(); ++round) {
            chunk.resize(1 + rng.uniform(97));
            for (auto& b : chunk) b = static_cast<std::uint8_t>(rng.uniform(256));
            reader.feed(chunk);
            while (reader.next().has_value()) {
            }
        }
        EXPECT_LE(reader.buffered(), kMaxFrameBytes + 4) << "seed " << seed;
    }
}

TEST(Frame, TruncatedBodyDecodeReportsError) {
    const Bytes wire = encode_frame(Endpoint{NodeId{1}, PortId{1}},
                                    Endpoint{NodeId{2}, PortId{2}}, payload_of({1, 2}));
    // Strip the prefix, then truncate the body below the double header.
    const std::span<const std::uint8_t> body(wire.data() + 4, wire.size() - 4);
    const auto truncated = decode_frame_body(body.subspan(0, kEndpointWireBytes + 2));
    EXPECT_FALSE(truncated.has_value());
}

// ---------------------------------------------------------------------------
// EndpointMap
// ---------------------------------------------------------------------------

TEST(EndpointMap, CodecRoundTripsTheDirectory) {
    EndpointMap map;
    map.publish(NodeId{1}, {"127.0.0.1", 40001});
    map.publish(NodeId{2}, {"127.0.0.1", 40002});
    map.publish(NodeId{9}, {"10.0.0.7", 9});

    const auto result = EndpointMap::decode(map.encode());
    ASSERT_TRUE(result.has_value());
    const EndpointMap& decoded = result.value();
    EXPECT_EQ(decoded, map);
    ASSERT_NE(decoded.find(NodeId{9}), nullptr);
    EXPECT_EQ(decoded.find(NodeId{9})->host, "10.0.0.7");
    EXPECT_EQ(decoded.find(NodeId{3}), nullptr);
}

TEST(EndpointMap, PublishReplacesAndFindsByNode) {
    EndpointMap map;
    map.publish(NodeId{5}, {"127.0.0.1", 1000});
    map.publish(NodeId{5}, {"127.0.0.1", 2000});  // rebind replaces
    EXPECT_EQ(map.size(), 1u);
    ASSERT_NE(map.find(NodeId{5}), nullptr);
    EXPECT_EQ(map.find(NodeId{5})->port, 2000);
}

TEST(EndpointMap, DecodeRejectsGarbageAndTruncation) {
    EXPECT_FALSE(EndpointMap::decode(payload_of({1, 2, 3})).has_value());

    EndpointMap map;
    map.publish(NodeId{1}, {"127.0.0.1", 7});
    const Bytes wire = map.encode();
    for (std::size_t cut = 0; cut < wire.size(); ++cut) {
        EXPECT_FALSE(
            EndpointMap::decode(std::span(wire.data(), cut)).has_value())
            << "cut at " << cut;
    }

    Bytes corrupt = wire;
    corrupt[0] ^= 0xff;  // break the magic
    EXPECT_FALSE(EndpointMap::decode(corrupt).has_value());
}

// ---------------------------------------------------------------------------
// Ephemeral ports on real deployments
// ---------------------------------------------------------------------------

TEST(EndpointMap, ConcurrentTcpDeploymentsPublishDisjointEphemeralPorts) {
    // Two live TCP deployments at once — the `ctest -j` situation. Every
    // node must have a published, kernel-chosen (nonzero) port, and the two
    // directories must not collide anywhere.
    deploy::DeploymentSpec spec;
    spec.group_size = 3;
    spec.seed = 5;
    spec.backend = deploy::Backend::kTcp;
    const auto a = deploy::make_deployment(deploy::SystemKind::kNewTop, spec);
    const auto b = deploy::make_deployment(deploy::SystemKind::kNewTop, spec);

    std::set<std::uint16_t> ports;
    for (const auto* d : {a.get(), b.get()}) {
        const auto* tcp = dynamic_cast<const deploy::TcpDeployment*>(d);
        ASSERT_NE(tcp, nullptr);
        EXPECT_GE(tcp->endpoints().size(), 3u);
        for (const auto& [node, addr] : tcp->endpoints().entries()) {
            EXPECT_NE(addr.port, 0) << "node " << node;
            EXPECT_TRUE(ports.insert(addr.port).second)
                << "port " << addr.port << " published twice";
        }
    }
}

}  // namespace
}  // namespace failsig::net

namespace failsig::deploy {
namespace {

// ---------------------------------------------------------------------------
// The quiescence barrier: who wakes whom
// ---------------------------------------------------------------------------

class TcpBarrier : public ::testing::TestWithParam<SystemKind> {};

TEST_P(TcpBarrier, WakesOnlyExecutorsWithWorkAndSelfAdvances) {
    // 200 requests spread over virtual time, one driver event each. Between
    // two arrivals the stacks' own timers move the clock many times; the
    // thread that completes quiescence (an executor, or the reactor) makes
    // those advances itself. No executor is ever woken without work, and
    // the coordinator is never left asleep on a quiescent system (its 50 ms
    // wait never expires there).
    DeploymentSpec spec;
    spec.backend = Backend::kTcp;
    spec.group_size = GetParam() == SystemKind::kPbft ? 4 : 3;
    spec.seed = 9;
    const auto d = make_deployment(GetParam(), spec);
    auto* tcp = dynamic_cast<TcpDeployment*>(d.get());
    ASSERT_NE(tcp, nullptr);

    std::mutex mu;
    std::array<int, 4> delivered{};
    Observers observers;
    observers.delivered = [&](int member, const Bytes&) {
        const std::lock_guard lock(mu);
        ++delivered[static_cast<std::size_t>(member)];
    };
    d->attach(std::move(observers));

    constexpr int kRequests = 200;
    const int n = d->group_size();
    for (int k = 0; k < kRequests; ++k) {
        const TimePoint at = static_cast<TimePoint>(k + 1) * 7 * kMillisecond;
        const int member = k % n;
        const Bytes payload{static_cast<std::uint8_t>(k), static_cast<std::uint8_t>(k >> 8)};
        d->schedule(at, [&d, member, payload] { d->submit(member, payload); });
    }
    d->run();

    for (int m = 0; m < n; ++m) {
        EXPECT_EQ(delivered[static_cast<std::size_t>(m)], kRequests) << "member " << m;
    }
    const TcpDeployment::BarrierStats stats = tcp->barrier_stats();
    EXPECT_EQ(stats.empty_wakeups, 0u);
    EXPECT_EQ(stats.lost_wakeups, 0u);
    EXPECT_GT(stats.advances, static_cast<std::uint64_t>(kRequests));
    EXPECT_GT(2 * stats.self_advances, stats.advances)
        << stats.self_advances << " of " << stats.advances << " advances without the coordinator";
}

INSTANTIATE_TEST_SUITE_P(AllSystems, TcpBarrier,
                         ::testing::Values(SystemKind::kNewTop, SystemKind::kFsNewTop,
                                           SystemKind::kPbft),
                         [](const ::testing::TestParamInfo<SystemKind>& info) {
                             switch (info.param) {
                                 case SystemKind::kNewTop: return std::string("NewTOP");
                                 case SystemKind::kFsNewTop: return std::string("FSNewTOP");
                                 case SystemKind::kPbft: return std::string("PBFT");
                             }
                             return std::string("Unknown");
                         });

}  // namespace
}  // namespace failsig::deploy
