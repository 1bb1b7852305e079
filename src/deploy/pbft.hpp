// The PBFT-style baseline: n = 3f+1 replicas, one per node, exchanging
// authenticated messages over the deployment's network. Submissions are
// client requests at a replica, deliveries are commit upcalls, and liveness
// needs timeout-fired view changes — the speculative dependence FS-NewTOP
// removes.
#pragma once

#include <functional>
#include <memory>

#include "baseline/pbft.hpp"
#include "common/batch.hpp"
#include "deploy/stack.hpp"
#include "fs/plain_host.hpp"

namespace failsig::deploy {

class PbftDeployment final : public StackDeployment {
public:
    explicit PbftDeployment(const DeploymentSpec& spec);
    ~PbftDeployment() override;  // out of line: DeliverySink is incomplete here

    void attach(Observers observers) override;
    /// Submits a request at replica `member`. With batching configured the
    /// payload may be coalesced with others submitted at the same replica
    /// within the flush window into one ClientRequest (one pre-prepare);
    /// delivery unbatches, so observers see one upcall per request either way.
    void submit(int member, Bytes payload) override;
    [[nodiscard]] bool has_liveness_timeouts() const override { return true; }
    /// Fires one replica's view-change timeout input (the liveness escape
    /// hatch when the primary is silent).
    void fire_timeouts_member(int member) override;
    [[nodiscard]] BatchStats batch_stats() const override;

    std::vector<RecoveryStep> recover_steps(int member) override;
    [[nodiscard]] std::optional<AppStateInfo> app_state_of(int member) override;
    [[nodiscard]] RecoveryStats recovery_stats() const override;

    // --- inspection -------------------------------------------------------
    [[nodiscard]] baseline::PbftReplica& replica(baseline::ReplicaId r);
    [[nodiscard]] const baseline::PbftReplica& replica(baseline::ReplicaId r) const;
    /// The plain host running replica `r` (its input queue and ORB servant).
    [[nodiscard]] fs::PlainHost& host(baseline::ReplicaId r);
    /// Starts the state-transfer rejoin at `at`: the replica wipes its log
    /// and asks its peers for a stable snapshot + committed suffix.
    void begin_recovery(baseline::ReplicaId at);

    /// Observes every commit upcall with its structured payload (origin,
    /// seq). attach() installs a forwarder to Observers::delivered here;
    /// callers that need the structured form set it directly instead.
    using DeliveryObserver =
        std::function<void(baseline::ReplicaId replica, const baseline::PbftDelivery&)>;
    void on_delivery(DeliveryObserver observer) { delivery_observer_ = std::move(observer); }

private:
    class DeliverySink;

    void submit_unit(baseline::ReplicaId at, Bytes unit);
    /// Stamps kBatched for every request a flushed unit carries and links
    /// them to the unit's span (only called when obs is on).
    void trace_flush(baseline::ReplicaId at, const Bytes& unit);

    std::vector<std::unique_ptr<fs::PlainHost>> replicas_;
    std::vector<std::unique_ptr<DeliverySink>> sinks_;
    std::vector<std::unique_ptr<Batcher>> batchers_;
    std::vector<std::uint64_t> next_origin_seq_;
    DeliveryObserver delivery_observer_;
    obs::Obs* obs_;
};

}  // namespace failsig::deploy
