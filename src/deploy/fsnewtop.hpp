// FS-NewTOP (paper §3.1, Figures 4 & 5): every member's GC service is a
// fail-signal pair laid out per deploy::Placement; Byzantine fault plans and
// pair-link crashes are expressible, and the stack announces its own
// failures instead of being timed out.
#pragma once

#include <memory>
#include <string>

#include "crypto/keys.hpp"
#include "deploy/stack.hpp"
#include "fs/process.hpp"
#include "fsnewtop/fs_invocation.hpp"
#include "newtop/gc_service.hpp"

namespace failsig::deploy {

class FsNewTopDeployment final : public StackDeployment {
public:
    explicit FsNewTopDeployment(const DeploymentSpec& spec);

    [[nodiscard]] std::vector<NodeId> nodes_of(int member) const override;

    void attach(Observers observers) override;
    void submit(int member, Bytes payload) override;

    /// The FS-level crash: sever the pair's synchronous link, so the pair
    /// can no longer self-check and announces its own failure — no timeout
    /// guessing at the other members.
    void crash(int member) override;
    /// Inverse of crash(): restore the pair link (the wrapper-object reset
    /// and the GC-level rejoin ride in recover_steps()).
    void recover_links(int member) override;
    std::vector<RecoveryStep> recover_steps(int member) override;
    [[nodiscard]] std::optional<AppStateInfo> app_state_of(int member) override;
    [[nodiscard]] RecoveryStats recovery_stats() const override;
    bool inject_fault(const FaultInjection& fault) override;
    [[nodiscard]] std::optional<NodeId> fault_home(const FaultInjection& fault) const override {
        return fault.at_leader ? leader_node_of(fault.member) : follower_node_of(fault.member);
    }
    /// Host faults act on whole hosts; under the collocated placement every
    /// host is shared between two pairs (member i's leader and member i-1's
    /// follower), so only the dedicated-node placement can express them.
    [[nodiscard]] bool supports_host_faults() const override {
        return placement_ == Placement::kFull;
    }
    [[nodiscard]] BatchStats batch_stats() const override;
    [[nodiscard]] std::uint64_t crypto_verify_ops() const override {
        return keys_.verify_ops();
    }
    [[nodiscard]] std::uint64_t crypto_verify_cache_hits() const override {
        return keys_.verify_cache_hits();
    }

    // --- inspection -------------------------------------------------------
    [[nodiscard]] crypto::KeyService& keys() { return keys_; }
    [[nodiscard]] fsnewtop::FsInvocation& invocation(int member);
    /// The two wrapper objects of member i's GC pair (for fault injection
    /// and inspection).
    [[nodiscard]] fs::Fso& leader_fso(int member);
    [[nodiscard]] fs::Fso& follower_fso(int member);
    /// The GC state machine replicas inside the pair.
    [[nodiscard]] newtop::GcService& gc_leader(int member);
    [[nodiscard]] const newtop::GcService& gc_leader(int member) const;
    [[nodiscard]] newtop::GcService& gc_follower(int member);

    // Physical layout: the application and Invocation layer run on
    // node_of(member); the pair's wrapper objects on these two nodes.
    [[nodiscard]] NodeId leader_node_of(int member) const;
    [[nodiscard]] NodeId follower_node_of(int member) const;

    [[nodiscard]] static std::string gc_name(int member) {
        return "GC:" + std::to_string(member);
    }

private:
    struct Member {
        std::unique_ptr<fsnewtop::FsInvocation> invocation;
        fs::FsProcessHandles handles;
        NodeId leader_node;
        NodeId follower_node;
    };

    crypto::KeyService keys_;
    fs::FsDirectory directory_;
    fs::FsHost host_;
    Placement placement_;
    std::vector<Member> members_;
    newtop::ServiceType service_;
    Observers observers_;
};

}  // namespace failsig::deploy
