// Layer probes: the listed public functions timed in isolation on the
// workloads' input shapes (64-byte and 1 KiB messages, the run's observed
// verify-memo size and event-queue depth). Each probe repeats its loop five
// times and reports the median ns per call. Reported as per-layer metrics
// only: they explain an end-to-end change, they are not one.
#include <cstring>

#include "app/kv_store.hpp"
#include "common/payload.hpp"
#include "crypto/keys.hpp"
#include "orb/request.hpp"
#include "sim/simulation.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Median over five repeats of (wall ns of `iterations` calls) / iterations.
template <typename Fn>
double time_per_call(int iterations, Fn&& fn) {
    std::vector<double> samples;
    for (int r = 0; r < 5; ++r) {
        const std::int64_t t0 = now_ns();
        for (int i = 0; i < iterations; ++i) fn(i);
        samples.push_back(static_cast<double>(now_ns() - t0) / iterations);
    }
    return median(samples);
}

failsig::Bytes filled(std::size_t size, std::uint8_t seed) {
    failsig::Bytes out(size);
    for (std::size_t i = 0; i < size; ++i) out[i] = static_cast<std::uint8_t>(seed + i * 31);
    return out;
}

/// Keeps a probe's result observable so the call is not optimized away.
volatile std::uint64_t g_sink = 0;

double sim_event_ns(std::size_t queue_depth) {
    failsig::sim::Simulation sim;
    // Background events far in the future hold the queue at the observed
    // depth; each probe event is due first.
    for (std::size_t i = 0; i < queue_depth; ++i) {
        sim.schedule_at(failsig::kSecond * 3600 + static_cast<failsig::TimePoint>(i), [] {});
    }
    std::uint64_t fired = 0;
    return time_per_call(100000, [&](int) {
        sim.schedule_after(1, [&fired] { ++fired; });
        sim.step();
        g_sink = fired;
    });
}

double verify_ns(std::size_t size) {
    failsig::crypto::KeyService keys(failsig::crypto::KeyService::Backend::kHmac);
    keys.register_principal("p");
    const failsig::Bytes message = filled(size, 7);
    const failsig::Bytes signature = keys.signer("p").sign(message);
    const auto& verifier = keys.verifier("p");
    return time_per_call(20000, [&](int) { g_sink = verifier.verify(message, signature); });
}

double memo_hit_ns(std::uint64_t entries) {
    failsig::crypto::KeyService keys(failsig::crypto::KeyService::Backend::kHmac);
    keys.register_principal("p");
    // Fill the memo to the run's size (capped to keep the probe small).
    const std::uint64_t fill = std::min<std::uint64_t>(entries, 50000);
    failsig::Bytes message = filled(64, 1);
    for (std::uint64_t i = 0; i < fill; ++i) {
        std::memcpy(message.data(), &i, sizeof i);
        (void)keys.verify_cached("p", message, keys.signer("p").sign(message));
    }
    const failsig::Bytes hit = filled(64, 9);
    const failsig::Bytes hit_sig = keys.signer("p").sign(hit);
    (void)keys.verify_cached("p", hit, hit_sig);
    return time_per_call(20000, [&](int) { g_sink = keys.verify_cached("p", hit, hit_sig); });
}

double decode_ns(std::size_t size) {
    failsig::orb::Request request;
    request.object_key = "gc";
    request.operation = "multicast";
    request.args = failsig::orb::Any(filled(size, 3));
    request.request_id = 42;
    const failsig::Payload message = failsig::Payload::prefixed(
        failsig::orb::Request::encode_key(request.object_key),
        failsig::Payload(request.encode_body()));
    return time_per_call(20000, [&](int) {
        const auto decoded = failsig::orb::Request::decode_message(message);
        g_sink = decoded.has_value() ? decoded.value().request_id : 0;
    });
}

double apply_ns(std::size_t size) {
    failsig::app::KvStore store(64);
    failsig::Bytes unit = filled(size, 5);
    return time_per_call(20000, [&](int i) {
        std::memcpy(unit.data(), &i, sizeof i);
        g_sink = store.apply(unit);
    });
}

}  // namespace

void add_probes(RunResult& result, const ProbeShape& shape) {
    result.add("sim.event_ns", sim_event_ns(shape.queue_depth), "ns");
    result.add("crypto.verify_ns.64", verify_ns(64), "ns");
    result.add("crypto.verify_ns.1k", verify_ns(1024), "ns");
    result.add("crypto.memo_hit_ns", memo_hit_ns(shape.memo_entries), "ns");
    result.add("orb.decode_ns.64", decode_ns(64), "ns");
    result.add("orb.decode_ns.1k", decode_ns(1024), "ns");
    result.add("app.apply_ns.1k", apply_ns(1024), "ns");
}

}  // namespace perfbench
