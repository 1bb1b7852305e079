#include "deploy/fsnewtop.hpp"

namespace failsig::deploy {

using fsnewtop::FsInvocation;

FsNewTopDeployment::FsNewTopDeployment(const DeploymentSpec& spec)
    : StackDeployment(spec),
      keys_(crypto::KeyService::Backend::kHmac, 512, spec.seed ^ 0x6b657973u),
      host_(fs::FsRuntime{net_, domain_, keys_, directory_, spec.obs}),
      placement_(spec.placement),
      service_(spec.service) {
    const int n = spec.group_size;

    std::vector<newtop::MemberId> member_ids;
    for (int i = 0; i < n; ++i) member_ids.push_back(static_cast<newtop::MemberId>(i));

    // Node layout (deploy::Placement).
    const auto leader_node = [&](int i) {
        return placement_ == Placement::kCollocated ? node_of(i)
                                                    : NodeId{static_cast<std::uint32_t>(2 * i + 1)};
    };
    const auto follower_node = [&](int i) {
        if (placement_ == Placement::kCollocated) {
            // Figure 5: FSO'_i lives on the next member's node (wrap-around);
            // with n == 1 there is no second node, so borrow node n+1.
            return n > 1 ? node_of((i + 1) % n) : NodeId{static_cast<std::uint32_t>(n + 1)};
        }
        return NodeId{static_cast<std::uint32_t>(2 * i + 2)};
    };

    // Pass 1: each member's Invocation layer (an FsClient) on its app node.
    members_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto& member = members_[static_cast<std::size_t>(i)];
        member.leader_node = leader_node(i);
        member.follower_node = follower_node(i);
        orb::Orb& app_orb = domain_.create_orb(node_of(i));
        member.invocation = std::make_unique<FsInvocation>(
            host_.runtime(), app_orb, "inv:" + std::to_string(i), gc_name(i));
        member.invocation->set_obs(spec.obs, i);
        member.invocation->configure_batching(app_orb.simulation(), spec.batch);
    }

    // Pass 2: the FS-wrapped GC pairs.
    for (int i = 0; i < n; ++i) {
        newtop::GcConfig cfg;
        cfg.self = static_cast<newtop::MemberId>(i);
        cfg.initial_members = member_ids;
        for (int j = 0; j < n; ++j) {
            if (j == i) continue;
            cfg.peers[static_cast<newtop::MemberId>(j)] = fs::Destination::fs(gc_name(j));
            cfg.fs_members[gc_name(j)] = static_cast<newtop::MemberId>(j);
        }
        cfg.delivery = fs::Destination::plain(invocation(i).delivery_ref());
        cfg.protocol_op_cost = kCosts.gc_protocol_op;
        cfg.obs = spec.obs;
        cfg.obs_member = i;
        cfg.checkpoint_interval = spec.checkpoint_interval;

        // The factory runs twice — leader replica first, then the follower
        // (fs/process.cpp construction order). Only the leader gets the obs
        // tap: both replicas execute the same inputs, and stamping both
        // would double-count every lifecycle stage.
        auto replica_calls = std::make_shared<int>(0);
        members_[static_cast<std::size_t>(i)].handles = host_.create_process(
            gc_name(i), leader_node(i), follower_node(i),
            [cfg, replica_calls] {
                newtop::GcConfig replica_cfg = cfg;
                if ((*replica_calls)++ != 0) replica_cfg.obs = nullptr;
                return std::make_unique<newtop::GcService>(replica_cfg);
            },
            spec.fs_config);
    }
}

FsInvocation& FsNewTopDeployment::invocation(int member) {
    return *members_.at(static_cast<std::size_t>(member)).invocation;
}

fs::Fso& FsNewTopDeployment::leader_fso(int member) {
    return *members_.at(static_cast<std::size_t>(member)).handles.leader;
}

fs::Fso& FsNewTopDeployment::follower_fso(int member) {
    return *members_.at(static_cast<std::size_t>(member)).handles.follower;
}

newtop::GcService& FsNewTopDeployment::gc_leader(int member) {
    return dynamic_cast<newtop::GcService&>(leader_fso(member).service());
}

const newtop::GcService& FsNewTopDeployment::gc_leader(int member) const {
    return const_cast<FsNewTopDeployment*>(this)->gc_leader(member);
}

newtop::GcService& FsNewTopDeployment::gc_follower(int member) {
    return dynamic_cast<newtop::GcService&>(follower_fso(member).service());
}

NodeId FsNewTopDeployment::leader_node_of(int member) const {
    return members_.at(static_cast<std::size_t>(member)).leader_node;
}

NodeId FsNewTopDeployment::follower_node_of(int member) const {
    return members_.at(static_cast<std::size_t>(member)).follower_node;
}

std::vector<NodeId> FsNewTopDeployment::nodes_of(int member) const {
    if (placement_ == Placement::kFull) {
        return {node_of(member), leader_node_of(member), follower_node_of(member)};
    }
    return {node_of(member)};
}

void FsNewTopDeployment::attach(Observers observers) {
    observers_ = std::move(observers);
    for (int i = 0; i < group_size(); ++i) {
        if (observers_.delivered) {
            invocation(i).on_delivery([this, i](const newtop::Delivery& d) {
                observers_.delivered(i, d.payload);
            });
        }
        if (observers_.view_installed) {
            invocation(i).on_view([this, i](const newtop::GroupView& v) {
                observers_.view_installed(i, v);
            });
        }
        if (observers_.middleware_failure) {
            invocation(i).on_middleware_failure([this, i](const std::string& fs_name) {
                observers_.middleware_failure(i, fs_name);
            });
        }
        if (observers_.fail_signal) {
            const auto observer = [this, i](const std::string& name, const std::string& reason) {
                observers_.fail_signal(i, name, reason);
            };
            leader_fso(i).set_fail_signal_observer(observer);
            follower_fso(i).set_fail_signal_observer(observer);
        }
    }
}

void FsNewTopDeployment::submit(int member, Bytes payload) {
    invocation(member).multicast(service_, std::move(payload));
}

BatchStats FsNewTopDeployment::batch_stats() const {
    BatchStats stats;
    for (const auto& m : members_) stats += m.invocation->batch_stats();
    return stats;
}

void FsNewTopDeployment::crash(int member) {
    faults().block(leader_node_of(member), follower_node_of(member));
}

void FsNewTopDeployment::recover_links(int member) {
    faults().unblock(leader_node_of(member), follower_node_of(member));
}

std::vector<RecoveryStep> FsNewTopDeployment::recover_steps(int member) {
    // Severing the pair link desynchronizes the wrapper objects: the leader
    // keeps ordering/executing while the follower starves, so their order
    // sequences diverge and both latch fail-signalling. Recovery re-bases
    // BOTH wrapper objects at the max of their order positions (so the first
    // post-recovery input gets the same sequence at both, and previously
    // transmitted (seq, out_index) output ids are never reused — receiver
    // dedup stays sound), then wipes the replicated GC through the ordinary
    // deterministic input path: "__rejoin" executes identically in both
    // replicas, so their outputs match and the pair self-check resumes.
    auto base = std::make_shared<std::uint64_t>(1);
    std::vector<RecoveryStep> steps;
    steps.push_back({leader_node_of(member), [this, member, base] {
                         *base = std::max(*base, leader_fso(member).next_seq());
                     }});
    steps.push_back({follower_node_of(member), [this, member, base] {
                         *base = std::max(*base, follower_fso(member).next_seq());
                     }});
    steps.push_back({leader_node_of(member), [this, member, base] {
                         leader_fso(member).reset_for_recovery(*base);
                     }});
    steps.push_back({follower_node_of(member), [this, member, base] {
                         follower_fso(member).reset_for_recovery(*base);
                     }});
    steps.push_back({node_of(member), [this, member] {
                         invocation(member).prepare_rejoin();
                         invocation(member).send_control("__rejoin", Bytes{});
                     }});
    return steps;
}

std::optional<AppStateInfo> FsNewTopDeployment::app_state_of(int member) {
    // The pair's replicas hold identical app state by construction; read the
    // leader's copy.
    const auto& app = gc_leader(member).app();
    return AppStateInfo{app.applied(), app.digest(), app.state_string()};
}

RecoveryStats FsNewTopDeployment::recovery_stats() const {
    RecoveryStats stats;
    for (int i = 0; i < group_size(); ++i) {
        const auto& gc = gc_leader(i);
        stats.checkpoints_taken += gc.app().checkpoints_taken();
        stats.rejoins_completed += gc.rejoins_completed();
        stats.flush_log_evictions += gc.flush_log_evictions();
        stats.flush_eviction_gaps += gc.flush_eviction_gaps();
    }
    return stats;
}

bool FsNewTopDeployment::inject_fault(const FaultInjection& fault) {
    fs::Fso& target = fault.at_leader ? leader_fso(fault.member) : follower_fso(fault.member);
    target.set_fault_plan(fault.plan);
    return true;
}

}  // namespace failsig::deploy
