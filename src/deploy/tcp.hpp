// Real-socket execution of any stack deployment.
//
// TcpDeployment wraps the deployment make_deployment builds for the sim
// backend, but mounts it on a TcpTransport and gives every physical node
// its own *executor*: a thread owning a private discrete-event Simulation
// (the node's timers and pools) plus an inbox of delivery tasks posted by
// the transport's reactor. The wrapped stack does not change at all — it
// schedules on "its" Simulation exactly as before; only the mapping from
// node to event loop changed (net::RuntimeEnv::sim_of).
//
// Time is virtual but shared: a VirtualClock all threads read. It advances
// only when the whole system is quiescent — every executor parked over an
// empty inbox with no timer due, no frame between a sender's socket write
// and its destination inbox (inflight accounting via transport hooks), and
// no driver event due — and then jumps straight to the earliest pending
// event. An 8-second fault timeline thus replays in however long the
// sockets actually take, while every timeout still fires at its scripted
// virtual instant. Quiescence is decided under the one hub mutex mu_.
//
// Who wakes whom, and who advances:
//  * A post (reactor delivery, driver submit, same-node send) signals its
//    executor only if it is parked; a busy one drains its inbox before it
//    parks. A post never wakes the coordinator: it cannot make the system
//    quiescent.
//  * Whichever thread completes quiescence decides: the last executor to
//    park, or the reactor settling the last in-flight frame. If the
//    earliest event is an executor's, strictly before the driver's next
//    event (driver_due_, published by the coordinator) and within a bounded
//    run's deadline, that thread advances the clock itself. Otherwise it
//    signals the coordinator.
//  * An advance, by anyone, goes through advance_locked and signals only
//    the executors with a timer due at the new instant.
//  * The coordinator (the thread calling run()/run_until()) runs driver
//    events, advances to them, enforces the deadline and ends the run. Its
//    50 ms timed wait is insurance; barrier_stats() counts when it was
//    needed (lost_wakeups) and when an executor woke for nothing
//    (empty_wakeups). Both stay 0 on a correct barrier.
//
// Crash semantics are real here: when a member's nodes are exclusively its
// own (NewTOP, PBFT), crash() tears the executor threads down and the
// transport drops the member's frames at send and at the reactor. Stacks
// whose members share hosts (FS-NewTOP) keep their own crash semantics —
// the pair-link sever — delegated to the wrapped deployment.
#pragma once

#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "deploy/deployment.hpp"
#include "net/tcp_transport.hpp"
#include "time/clock.hpp"

namespace failsig::deploy {

class TcpDeployment final : public Deployment {
public:
    TcpDeployment(SystemKind system, const DeploymentSpec& spec);
    ~TcpDeployment() override;

    TcpDeployment(const TcpDeployment&) = delete;
    TcpDeployment& operator=(const TcpDeployment&) = delete;

    // --- accessors --------------------------------------------------------
    /// The driver timeline loop (scheduled scenario events live here). The
    /// per-node loops are internal to the executors.
    [[nodiscard]] sim::Simulation& sim() override { return driver_; }
    [[nodiscard]] net::Transport& network() override { return *transport_; }
    [[nodiscard]] net::FaultInjector& faults() override { return *transport_; }
    [[nodiscard]] int group_size() const override { return inner_->group_size(); }
    [[nodiscard]] std::vector<NodeId> nodes_of(int member) const override {
        return inner_->nodes_of(member);
    }

    // --- time & execution -------------------------------------------------
    [[nodiscard]] const time::Clock& clock() override { return vclock_; }
    [[nodiscard]] TimePoint now() override { return vclock_.now(); }
    void schedule(TimePoint at, std::function<void()> fn) override {
        driver_.schedule_at(at, std::move(fn));
    }
    void run() override;
    void run_until(TimePoint deadline) override;

    // --- workload ---------------------------------------------------------
    void attach(Observers observers) override { inner_->attach(std::move(observers)); }
    void submit(int member, Bytes payload) override;

    // --- fault hooks ------------------------------------------------------
    void crash(int member) override;
    void recover(int member) override;
    bool inject_fault(const FaultInjection& fault) override;
    [[nodiscard]] bool has_liveness_timeouts() const override {
        return inner_->has_liveness_timeouts();
    }
    bool fire_timeouts() override;
    void stop_perpetual() override;
    [[nodiscard]] bool supports_host_faults() const override {
        return inner_->supports_host_faults();
    }

    // --- recovery ---------------------------------------------------------
    /// Reads are posted onto the member's executor (quiescence-safe); a
    /// still-crashed member reports nullopt.
    [[nodiscard]] std::optional<AppStateInfo> app_state_of(int member) override;
    [[nodiscard]] RecoveryStats recovery_stats() const override {
        return inner_->recovery_stats();
    }

    // --- deterministic counters ------------------------------------------
    [[nodiscard]] BatchStats batch_stats() const override { return inner_->batch_stats(); }
    [[nodiscard]] std::uint64_t crypto_verify_ops() const override {
        return inner_->crypto_verify_ops();
    }
    [[nodiscard]] std::uint64_t crypto_verify_cache_hits() const override {
        return inner_->crypto_verify_cache_hits();
    }

    /// The transport's node directory (tests assert the published ports).
    [[nodiscard]] const net::EndpointMap& endpoints() const { return transport_->endpoints(); }

    /// Wake-up accounting of the quiescence barrier, since construction.
    struct BarrierStats {
        std::uint64_t advances{0};             ///< virtual-time jumps, by anyone
        /// ... made without the coordinator (executor or reactor thread).
        std::uint64_t self_advances{0};
        std::uint64_t coordinator_wakeups{0};  ///< returns from the coordinator's wait
        /// Executors woken with an empty inbox and no timer due.
        std::uint64_t empty_wakeups{0};
        /// Coordinator waits that timed out on an already quiescent system.
        std::uint64_t lost_wakeups{0};
    };
    [[nodiscard]] BarrierStats barrier_stats() const;

private:
    struct NodeExecutor {
        explicit NodeExecutor(NodeId node) : id(node) {}
        NodeId id;
        /// The node's private event loop: its thread only, once started.
        sim::Simulation sim;
        // Remaining fields are guarded by the hub mutex mu_.
        std::deque<std::function<void()>> inbox;
        std::condition_variable cv;
        /// Earliest live event on `sim`, republished after every slice.
        TimePoint next_due{sim::Simulation::kNoEvent};
        bool idle{true};
        bool stopped{false};
        std::thread thread;
    };

    [[nodiscard]] NodeExecutor& executor_for(NodeId node);
    [[nodiscard]] NodeExecutor* find_executor(NodeId node);
    void post(NodeId node, std::function<void()> task);
    void post_at(NodeId node, TimePoint at, std::function<void()> task);
    void executor_loop(NodeExecutor& ex);
    void start_threads();
    /// Runs `fn` on the node's executor and waits for it (inline before the
    /// threads exist). Returns false if the node's executor is stopped.
    bool run_on_node(NodeId node, std::function<void()> fn);
    /// All executors parked with empty inboxes and no frame in flight.
    [[nodiscard]] bool quiescent_locked() const;
    /// Earliest pending virtual-time event across the live executors.
    [[nodiscard]] TimePoint executors_due_locked() const;
    /// The one way virtual time moves: jump to `next` (caller holds mu_ at
    /// quiescence) and wake exactly the executors with a timer due by then.
    void advance_locked(TimePoint next);
    /// Run by whichever thread completes quiescence (a parking executor or
    /// the reactor settling a frame): advances to the earliest executor
    /// event if it is strictly before the driver's next event and within a
    /// bounded run's deadline, else wakes the coordinator. True if advanced.
    bool advance_or_hand_off_locked();
    void run_core(bool bounded, TimePoint deadline);
    /// True when no other member shares any of `member`'s nodes: crashing
    /// it may then tear its hosts down without touching a healthy member.
    [[nodiscard]] bool hosts_exclusively(int member) const;

    time::VirtualClock vclock_;
    sim::Simulation driver_;  // coordinator thread only

    /// The one hub mutex: inboxes, idle/stop flags, inflight, the published
    /// run bounds and the barrier counters.
    mutable std::mutex mu_;
    std::condition_variable board_cv_;  // the coordinator's
    std::uint64_t inflight_{0};
    /// Outside a run no executor may advance: every candidate is > now >= 0.
    static constexpr TimePoint kNotRunning = 0;
    /// The driver's next event as of the coordinator's last look; executors
    /// self-advance only strictly before it.
    TimePoint driver_due_{kNotRunning};
    /// A bounded run's deadline (kNoEvent when unbounded).
    TimePoint deadline_{sim::Simulation::kNoEvent};
    BarrierStats barrier_;
    bool shutdown_{false};
    bool threads_started_{false};

    /// Frozen after construction (executors are created while the wrapped
    /// stack builds its topology, single-threaded).
    std::map<std::uint32_t, std::unique_ptr<NodeExecutor>> execs_;

    std::unique_ptr<net::TcpTransport> transport_;
    std::unique_ptr<Deployment> inner_;
};

}  // namespace failsig::deploy
