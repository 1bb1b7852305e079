// Unit tests for the mini-ORB: request codec (golden wire image, hostile
// bytes), oneway and fan-out invocation, thread-pool dispatch, per-node pool
// sharing.
#include <gtest/gtest.h>

#include "net/network.hpp"
#include "orb/orb.hpp"

namespace failsig::orb {
namespace {

// ---------------------------------------------------------------------------
// Request codec
// ---------------------------------------------------------------------------

TEST(Request, EncodeDecodeRoundTrip) {
    Request req;
    req.object_key = "gc:1";
    req.operation = "multicast";
    req.args = Bytes{9, 9, 9};
    req.reply_to = ObjectRef{{NodeId{4}, PortId{5}}, "client:7"};
    req.request_id = 42;
    req.contexts["sig"] = Bytes{1, 2};
    req.contexts["sig2"] = Bytes{3};

    const auto decoded = Request::decode(req.encode());
    ASSERT_TRUE(decoded.has_value());
    const Request& d = decoded.value();
    EXPECT_EQ(d.object_key, "gc:1");
    EXPECT_EQ(d.operation, "multicast");
    EXPECT_EQ(d.args, req.args);
    EXPECT_EQ(d.reply_to, req.reply_to);
    EXPECT_EQ(d.request_id, 42u);
    EXPECT_EQ(d.contexts, req.contexts);
}

TEST(Request, DecodeRejectsTruncation) {
    Request req;
    req.object_key = "x";
    req.operation = "y";
    Bytes wire = req.encode();
    wire.resize(wire.size() / 2);
    EXPECT_FALSE(Request::decode(wire).has_value());
}

TEST(Request, GoldenWireImage) {
    // Byte layout pinned against the build that still carried the tagged
    // `Any` codec: args go out as u32 length, typecode 6, u32 length, data.
    Request req;
    req.object_key = "gc";
    req.operation = "multicast";
    req.args = Bytes{0x01, 0x02, 0x03, 0xff};
    req.request_id = 42;
    const std::string body =
        "090000006d756c746963617374"  // operation
        "090000000604000000010203ff"  // args: outer length, typecode 6, bytes
        "000000000000000000000000"    // reply_to: node, port, empty key
        "2a00000000000000"            // request_id
        "00000000";                   // no contexts
    EXPECT_EQ(to_hex(req.encode()), "020000006763" + body);
    EXPECT_EQ(to_hex(req.encode_body()), body);

    const auto decoded = Request::decode(from_hex("020000006763" + body));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded.value().object_key, "gc");
    EXPECT_EQ(decoded.value().operation, "multicast");
    EXPECT_EQ(decoded.value().args, req.args);
    EXPECT_EQ(decoded.value().request_id, 42u);
}

/// A request wire image around a hand-built args region (what follows the
/// region's own u32 length prefix).
Bytes wire_with_args(const Bytes& args_region) {
    ByteWriter w;
    w.str("gc");
    w.str("multicast");
    w.bytes(args_region);
    w.u32(0);  // reply_to node
    w.u32(0);  // reply_to port
    w.str("");
    w.u64(7);  // request_id
    w.u32(0);  // contexts
    return w.take();
}

Bytes args_region(std::uint8_t typecode, std::uint32_t inner_length, const Bytes& data) {
    ByteWriter w;
    w.u8(typecode);
    w.u32(inner_length);
    w.raw(data);
    return w.take();
}

TEST(Request, DecodeAcceptsOnlyBytesArgs) {
    const Bytes data{1, 2, 3, 4};
    ASSERT_TRUE(Request::decode(wire_with_args(args_region(6, 4, data))).has_value());
    // Every other typecode of the old tagged codec (null, bool, i64, u64,
    // f64, string, sequence, struct) and unknown ones are malformed now.
    for (const std::uint8_t typecode : {0, 1, 2, 3, 4, 5, 7, 8, 9, 0xff}) {
        EXPECT_FALSE(Request::decode(wire_with_args(args_region(typecode, 4, data))).has_value())
            << "typecode " << int{typecode};
    }
    // A bare typecode with nothing after it, and an empty args region.
    EXPECT_FALSE(Request::decode(wire_with_args(Bytes{0})).has_value());
    EXPECT_FALSE(Request::decode(wire_with_args(Bytes{})).has_value());
}

TEST(Request, DecodeRejectsLyingArgsLength) {
    const Bytes data{1, 2, 3};
    // Inner length past the args region (and far past the whole buffer).
    for (const std::uint32_t inner : {4u, 1000u, 0xffffffffu}) {
        EXPECT_FALSE(Request::decode(wire_with_args(args_region(6, inner, data))).has_value())
            << "inner length " << inner;
    }
    // Inner length short of the region: the rest would be silently dropped.
    EXPECT_FALSE(Request::decode(wire_with_args(args_region(6, 1, data))).has_value());
    // The outer length lies past the end of the buffer.
    Bytes wire = wire_with_args(args_region(6, 3, data));
    wire[4 + 2 + 4 + 9] = 0xff;  // low byte of the args region's u32 length
    EXPECT_FALSE(Request::decode(wire).has_value());
    // The segment-aware decoder applies the same checks to a shared body.
    const auto framed = [](const Bytes& wire) {
        const Bytes body(wire.begin() + 4 + 2, wire.end());  // past the "gc" key header
        return Request::decode_message(Payload::prefixed(Request::encode_key("gc"), body));
    };
    EXPECT_TRUE(framed(wire_with_args(args_region(6, 3, data))).has_value());
    EXPECT_FALSE(framed(wire_with_args(args_region(6, 1000, data))).has_value());
}

TEST(Request, WireSizeGrowsWithPayload) {
    Request small, big;
    small.args = Bytes(10, 0);
    big.args = Bytes(10000, 0);
    EXPECT_LT(small.wire_size() + 5000, big.wire_size());
}

// ---------------------------------------------------------------------------
// Orb invocation
// ---------------------------------------------------------------------------

struct TestWorld {
    sim::Simulation sim;
    net::SimNetwork net{sim, Rng(11)};
    orb::OrbDomain domain{sim, net, sim::CostModel{}, 10};
};

class RecordingServant : public Servant {
public:
    void dispatch(const Request& request) override { requests.push_back(request); }
    std::vector<Request> requests;
};

TEST(Orb, OnewayInvocationReachesServant) {
    TestWorld w;
    Orb& a = w.domain.create_orb(NodeId{1});
    Orb& b = w.domain.create_orb(NodeId{2});

    RecordingServant servant;
    const ObjectRef ref = b.activate("svc", &servant);

    a.invoke(ref, "ping", bytes_of("payload"));
    w.sim.run();

    ASSERT_EQ(servant.requests.size(), 1u);
    EXPECT_EQ(servant.requests[0].operation, "ping");
    EXPECT_EQ(string_of(servant.requests[0].args), "payload");
    EXPECT_EQ(servant.requests[0].sender, a.endpoint());
    EXPECT_EQ(a.requests_sent(), 1u);
    EXPECT_EQ(b.requests_dispatched(), 1u);
}

TEST(Orb, UnknownObjectKeyIsIgnored) {
    TestWorld w;
    Orb& a = w.domain.create_orb(NodeId{1});
    Orb& b = w.domain.create_orb(NodeId{2});
    a.invoke(ObjectRef{b.endpoint(), "ghost"}, "ping", Bytes{});
    w.sim.run();
    EXPECT_EQ(b.requests_dispatched(), 0u);
}

TEST(Orb, DeactivateStopsDispatch) {
    TestWorld w;
    Orb& a = w.domain.create_orb(NodeId{1});
    Orb& b = w.domain.create_orb(NodeId{2});
    RecordingServant servant;
    const ObjectRef ref = b.activate("svc", &servant);
    b.deactivate("svc");
    a.invoke(ref, "ping", Bytes{});
    w.sim.run();
    EXPECT_TRUE(servant.requests.empty());
}

TEST(Orb, SelfInvocationWorks) {
    TestWorld w;
    Orb& a = w.domain.create_orb(NodeId{1});
    RecordingServant servant;
    const ObjectRef ref = a.activate("svc", &servant);
    a.invoke(ref, "op", Bytes{1});
    w.sim.run();
    EXPECT_EQ(servant.requests.size(), 1u);
}

TEST(Orb, FanoutCopiesShareOneRequest) {
    TestWorld w;
    Orb& client = w.domain.create_orb(NodeId{1});
    Orb& s1 = w.domain.create_orb(NodeId{2});
    Orb& s2 = w.domain.create_orb(NodeId{3});

    RecordingServant a, b;
    const ObjectRef ra = s1.activate("svc", &a);
    const ObjectRef rb = s2.activate("svc", &b);

    client.invoke_fanout({ra, rb}, "op", bytes_of("both"));
    w.sim.run();

    ASSERT_EQ(a.requests.size(), 1u);
    ASSERT_EQ(b.requests.size(), 1u);
    EXPECT_EQ(string_of(b.requests[0].args), "both");
    // Both copies share the request id (needed for dedup downstream).
    EXPECT_EQ(a.requests[0].request_id, b.requests[0].request_id);
    EXPECT_EQ(client.requests_sent(), 2u);
}

TEST(Orb, CollocatedOrbsShareNodePool) {
    TestWorld w;
    Orb& a = w.domain.create_orb(NodeId{1});
    Orb& b = w.domain.create_orb(NodeId{1});
    EXPECT_EQ(&a.pool(), &b.pool());
    Orb& c = w.domain.create_orb(NodeId{2});
    EXPECT_NE(&a.pool(), &c.pool());
}

TEST(Orb, ThreadPoolLimitsConcurrentDispatch) {
    // With a 1-thread pool, 5 requests each costing fixed dispatch time are
    // serialized; with 5 threads they overlap.
    TimePoint serialized, parallel;
    for (const int threads : {1, 5}) {
        sim::Simulation sim;
        net::SimNetwork net{sim, Rng(11)};
        sim::CostModel costs;
        OrbDomain domain{sim, net, costs, threads};
        Orb& client = domain.create_orb(NodeId{1});
        Orb& server = domain.create_orb(NodeId{2});
        RecordingServant servant;
        const ObjectRef ref = server.activate("svc", &servant);
        for (int i = 0; i < 5; ++i) client.invoke(ref, "op", Bytes{});
        sim.run();
        (threads == 1 ? serialized : parallel) = sim.now();
    }
    EXPECT_GT(serialized, parallel);
}

TEST(Orb, MalformedNetworkBytesIgnored) {
    TestWorld w;
    Orb& server = w.domain.create_orb(NodeId{2});
    RecordingServant servant;
    server.activate("svc", &servant);
    w.net.send(Endpoint{NodeId{1}, PortId{99}}, server.endpoint(), bytes_of("junk"));
    w.sim.run();
    EXPECT_TRUE(servant.requests.empty());
}

}  // namespace
}  // namespace failsig::orb
