// Real-socket transport: TCP on localhost behind the net::Transport seam.
//
// Architecture (the nfs-ganesha RPC layer is the exemplar: dedicated
// dispatcher thread multiplexing sockets, worker pools doing the actual
// request work):
//
//  * one listening socket per node, bound to 127.0.0.1 port 0 — the kernel
//    picks an ephemeral port which is published in the EndpointMap, so any
//    number of deployments run concurrently (ctest -j) without colliding;
//  * one *reactor* thread running epoll over every listener and accepted
//    connection: it reads byte streams, reassembles length-prefixed frames
//    (net/frame.hpp), applies fault injection (partition/block/drop are
//    frame-dropping *at the reactor*, exactly where a firewall would sit),
//    and posts the bound handler's invocation onto the destination node's
//    executor via the host hooks;
//  * lazy per-directed-pair connections on first send, with bounded
//    backoff-retry, established from the sending node's executor thread —
//    TCP's stream order then gives the same per-link FIFO the simulator
//    guarantees;
//  * same-node traffic short-circuits the socket layer: a replica handing
//    a committed request to its own application sink is an in-process
//    upcall, as reliable as on the simulator (and exempt from random drop
//    for the same holdback-wedging reason — see SimNetwork).
//
// The transport knows nothing about virtual time or executors: the hosting
// deployment injects `Hooks` (post a task to a node's loop, in-flight
// accounting for quiescence detection, a time source for delay surges).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.hpp"
#include "net/endpoint_map.hpp"
#include "net/frame.hpp"
#include "net/transport.hpp"

namespace failsig::net {

class TcpTransport final : public Transport, public FaultInjector {
public:
    struct Hooks {
        /// Posts a delivery task onto `node`'s executor. Must mark the
        /// executor busy synchronously (quiescence correctness). Called
        /// from the reactor thread and, for same-node traffic, from the
        /// sending executor.
        std::function<void(NodeId node, std::function<void()> task)> post;
        /// Delay-surge variant: run the task on `node`'s loop at virtual
        /// time `at`. Optional; when absent surges degrade to immediate.
        std::function<void(NodeId node, TimePoint at, std::function<void()> task)> post_at;
        /// In-flight accounting for socket-routed frames: `on_wire` before
        /// the frame enters the socket, `on_settled` once it is enqueued at
        /// the destination executor or dropped. The host must not report
        /// quiescence while wire > settled.
        std::function<void()> on_wire;
        std::function<void()> on_settled;
        /// Current virtual time (delay-surge bookkeeping). Optional.
        std::function<TimePoint()> now;
    };

    TcpTransport(Hooks hooks, Rng rng);
    ~TcpTransport() override;

    TcpTransport(const TcpTransport&) = delete;
    TcpTransport& operator=(const TcpTransport&) = delete;

    // --- net::Transport --------------------------------------------------
    /// First bind for a node creates its listener (ephemeral port) and
    /// publishes the address. Topology building is single-threaded and
    /// must finish before start().
    void bind(Endpoint endpoint, MessageHandler handler) override;
    void unbind(Endpoint endpoint) override;
    void send(Endpoint src, Endpoint dst, Payload payload) override;
    void connect(NodeId src, NodeId dst) override;
    void close() override;
    void set_lan_pair(NodeId a, NodeId b, Duration delta) override;

    [[nodiscard]] std::uint64_t messages_sent() const override;
    [[nodiscard]] std::uint64_t messages_delivered() const override;
    [[nodiscard]] std::uint64_t messages_dropped() const override;
    [[nodiscard]] std::uint64_t bytes_sent() const override;
    [[nodiscard]] std::uint64_t payload_bytes_copied() const override;
    [[nodiscard]] std::uint64_t payload_bodies_encoded() const override;
    void reset_stats() override;

    // --- net::FaultInjector (frame-dropping at the reactor) --------------
    void block(NodeId a, NodeId b) override;
    void unblock(NodeId a, NodeId b) override;
    void partition(const std::vector<std::set<NodeId>>& groups) override;
    void heal_partition() override;
    void delay_surge(Duration extra, TimePoint until) override;
    void set_corruptor(Corruptor corruptor) override;
    void set_drop_probability(double p) override;

    // --- host integration ------------------------------------------------
    /// Starts the reactor thread (listeners must all exist). Idempotent.
    void start();
    /// Crash-as-teardown support: frames to or from `node` are dropped
    /// from now on, at send and at the reactor.
    void isolate(NodeId node);
    /// Recovery: undoes isolate(node); the node's frames flow again.
    void restore(NodeId node);
    [[nodiscard]] const EndpointMap& endpoints() const { return endpoint_map_; }

private:
    struct Conn {
        std::mutex mu;  // serializes writers of one directed pair
        int fd{-1};
    };

    void ensure_listener(NodeId node);
    [[nodiscard]] int connect_with_backoff(NodeId dst);
    void write_frame(int fd, const Bytes& frame);
    void reactor_loop();
    void handle_frame(Frame frame);
    /// Fault verdict for a frame arriving at the reactor; also applies the
    /// corruptor. Returns false to drop.
    bool admit(Message& msg);
    void deliver(Message msg, bool count_wire_settle);

    Hooks hooks_;

    // Fault state + rng: touched from the reactor and from driver-side
    // fault calls.
    mutable std::mutex fault_mu_;
    Rng rng_;
    std::set<std::pair<std::uint32_t, std::uint32_t>> blocked_;
    std::vector<std::set<NodeId>> partition_groups_;
    std::set<std::pair<std::uint32_t, std::uint32_t>> lan_pairs_;
    std::unordered_set<std::uint32_t> dead_nodes_;
    Duration surge_extra_{0};
    TimePoint surge_until_{0};
    Corruptor corruptor_;
    double drop_probability_{0.0};

    // Endpoint directory + handlers: built single-threaded, read from the
    // reactor and sender threads afterwards.
    mutable std::mutex topo_mu_;
    EndpointMap endpoint_map_;
    std::unordered_map<Endpoint, MessageHandler> handlers_;
    std::unordered_map<std::uint32_t, int> listeners_;  // node -> listen fd

    // Directed-pair connections (src<<32|dst -> Conn).
    std::mutex conn_mu_;
    std::unordered_map<std::uint64_t, std::shared_ptr<Conn>> conns_;

    // Statistics (same accounting rules as SimNetwork).
    mutable std::mutex stats_mu_;
    std::uint64_t messages_sent_{0};
    std::uint64_t messages_delivered_{0};
    std::uint64_t messages_dropped_{0};
    std::uint64_t bytes_sent_{0};
    std::uint64_t payload_bytes_copied_{0};
    std::uint64_t payload_bodies_encoded_{0};
    std::uint64_t stats_epoch_{Payload::new_stats_epoch()};  // see Payload::mark_counted

    // Reactor.
    std::thread reactor_;
    int epoll_fd_{-1};
    int wake_fd_{-1};
    bool started_{false};
    std::atomic<bool> stopping_{false};
    std::atomic<bool> closed_{false};
    std::unordered_map<int, FrameReader> streams_;  // accepted fd -> parser
};

}  // namespace failsig::net
