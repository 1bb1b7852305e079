// Simulated network: deterministic message delivery between endpoints.
//
// The paper's deployment (Figure 4) uses two kinds of links:
//  * a reliable *synchronous* LAN between the two nodes of each FS pair,
//    delivering within a known bound δ (assumption A2), and
//  * a reliable *asynchronous* network between FS processes, with no known
//    bound on message delays.
// `SimNetwork` models both, plus the fault injection the experiments need.
//
// The transport API itself lives in net/transport.hpp: `net::Transport`
// (delivery) and `net::FaultInjector` (fault hooks). SimNetwork implements
// both over one discrete-event Simulation, behavior-identical to the
// pre-split monolithic `net::Network` class.
#pragma once

#include <memory>
#include <set>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/payload.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"
#include "net/transport.hpp"
#include "sim/simulation.hpp"

namespace failsig::net {

/// Delay parameters for the asynchronous network.
struct AsyncLinkParams {
    /// Minimum propagation delay.
    Duration base = 1000 * kMicrosecond;
    /// Mean of the exponential jitter added on top.
    double jitter_mean_us = 500.0;
    /// Serialization delay per payload byte (100 Mb/s ~ 0.08 us/byte).
    double per_byte_us = 0.08;
};

/// Deterministic simulated network over a Simulation event queue.
///
/// Channels are reliable and FIFO per (src-node, dst-node) pair unless fault
/// injection says otherwise. LAN pairs registered with `set_lan_pair` get
/// delay <= δ; all other traffic uses the asynchronous delay model.
class SimNetwork final : public Transport, public FaultInjector {
public:
    SimNetwork(sim::Simulation& sim, Rng rng, AsyncLinkParams params = {});

    void bind(Endpoint endpoint, MessageHandler handler) override;
    void unbind(Endpoint endpoint) override;
    void send(Endpoint src, Endpoint dst, Payload payload) override;

    /// Declares nodes a and b connected by a synchronous link with bound δ.
    void set_lan_pair(NodeId a, NodeId b, Duration delta) override;

    // --- fault injection (net::FaultInjector) ---------------------------
    void block(NodeId a, NodeId b) override;
    void unblock(NodeId a, NodeId b) override;
    void partition(const std::vector<std::set<NodeId>>& groups) override;
    void heal_partition() override;
    void delay_surge(Duration extra, TimePoint until) override;
    void set_corruptor(Corruptor corruptor) override;
    void set_drop_probability(double p) override;

    // --- statistics ------------------------------------------------------
    [[nodiscard]] std::uint64_t messages_sent() const override { return messages_sent_; }
    [[nodiscard]] std::uint64_t messages_delivered() const override {
        return messages_delivered_;
    }
    [[nodiscard]] std::uint64_t messages_dropped() const override { return messages_dropped_; }
    [[nodiscard]] std::uint64_t bytes_sent() const override { return bytes_sent_; }
    /// Copy counters of the zero-copy plane. `bytes_sent()` counts *logical*
    /// wire bytes; `payload_bytes_copied()` counts the bytes that were
    /// actually materialized to carry them — per-target header bytes plus
    /// each distinct body buffer once. A multicast of one B-byte body to n
    /// receivers therefore adds n*B to bytes_sent but only B + n*header to
    /// payload_bytes_copied (O(1) body encodes, the acceptance criterion).
    [[nodiscard]] std::uint64_t payload_bytes_copied() const override {
        return payload_bytes_copied_;
    }
    /// Distinct body buffers that entered the plane (== payload encodes).
    [[nodiscard]] std::uint64_t payload_bodies_encoded() const override {
        return payload_bodies_encoded_;
    }
    void reset_stats() override;

private:
    struct NodePair {
        NodeId a, b;
        bool operator==(const NodePair&) const = default;
    };
    struct NodePairHash {
        std::size_t operator()(const NodePair& p) const {
            return (static_cast<std::size_t>(p.a.value) << 32) ^ p.b.value;
        }
    };
    static NodePair ordered(NodeId x, NodeId y) {
        return x.value <= y.value ? NodePair{x, y} : NodePair{y, x};
    }

    [[nodiscard]] bool is_blocked(NodeId a, NodeId b) const;
    [[nodiscard]] Duration delay_for(NodeId a, NodeId b, std::size_t size);

    sim::Simulation& sim_;
    Rng rng_;
    AsyncLinkParams params_;

    std::unordered_map<Endpoint, MessageHandler> handlers_;
    std::unordered_map<NodePair, Duration, NodePairHash> lan_pairs_;
    std::set<std::pair<std::uint32_t, std::uint32_t>> blocked_;
    std::vector<std::set<NodeId>> partition_groups_;
    Duration surge_extra_{0};
    TimePoint surge_until_{0};
    Corruptor corruptor_;
    double drop_probability_{0.0};

    // FIFO enforcement: last scheduled delivery per directed node pair.
    std::unordered_map<std::uint64_t, TimePoint> last_delivery_;

    std::uint64_t messages_sent_{0};
    std::uint64_t messages_delivered_{0};
    std::uint64_t messages_dropped_{0};
    std::uint64_t bytes_sent_{0};
    std::uint64_t payload_bytes_copied_{0};
    std::uint64_t payload_bodies_encoded_{0};
    /// Body buffers carry the epoch that counted them, so a shared body
    /// counts once even when two senders' fan-out tasks interleave their
    /// sends; reset_stats() opens a fresh epoch.
    std::uint64_t stats_epoch_{Payload::new_stats_epoch()};
};

}  // namespace failsig::net
