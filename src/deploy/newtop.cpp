#include "deploy/newtop.hpp"

namespace failsig::deploy {

using newtop::MemberId;

NewTopDeployment::NewTopDeployment(const DeploymentSpec& spec)
    : StackDeployment(spec), service_(spec.service) {
    const int n = spec.group_size;

    std::vector<MemberId> member_ids;
    for (int i = 0; i < n; ++i) member_ids.push_back(static_cast<MemberId>(i));

    // Pass 1: create ORBs and reserve object refs so GcConfigs can point at
    // peers that do not exist yet.
    std::vector<orb::Orb*> orbs;
    std::vector<orb::ObjectRef> gc_refs(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        orbs.push_back(&domain_.create_orb(node_of(i)));
        gc_refs[static_cast<std::size_t>(i)] = orb::ObjectRef{orbs.back()->endpoint(), "gc"};
    }

    // Pass 2: build each NSO.
    members_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        auto& member = members_[static_cast<std::size_t>(i)];
        orb::Orb& orb = *orbs[static_cast<std::size_t>(i)];

        newtop::GcConfig cfg;
        cfg.self = static_cast<MemberId>(i);
        cfg.initial_members = member_ids;
        for (int j = 0; j < n; ++j) {
            if (j == i) continue;
            cfg.peers[static_cast<MemberId>(j)] =
                fs::Destination::plain(gc_refs[static_cast<std::size_t>(j)]);
        }
        cfg.delivery = fs::Destination::plain(orb::ObjectRef{orb.endpoint(), "inv"});
        cfg.protocol_op_cost = kCosts.gc_protocol_op;
        cfg.obs = spec.obs;
        cfg.obs_member = i;
        cfg.checkpoint_interval = spec.checkpoint_interval;

        member.gc = std::make_unique<fs::PlainHost>(orb, "gc",
                                                    std::make_unique<newtop::GcService>(cfg));
        member.invocation = std::make_unique<newtop::PlainInvocation>(orb, "inv", *member.gc);
        member.invocation->set_obs(spec.obs, i);
        member.invocation->configure_batching(orb.simulation(), spec.batch);
        member.suspector = std::make_unique<newtop::PingSuspector>(
            orb.simulation(), orb, "susp", static_cast<MemberId>(i), *member.gc, spec.suspector);
    }

    // Pass 3: connect suspectors.
    for (int i = 0; i < n; ++i) {
        std::map<MemberId, orb::ObjectRef> peers;
        for (int j = 0; j < n; ++j) {
            if (j == i) continue;
            peers[static_cast<MemberId>(j)] =
                orb::ObjectRef{orbs[static_cast<std::size_t>(j)]->endpoint(), "susp"};
        }
        suspector(i).set_peers(std::move(peers));
        if (spec.start_suspectors) suspector(i).start();
    }
}

newtop::PlainInvocation& NewTopDeployment::invocation(int member) {
    return *members_.at(static_cast<std::size_t>(member)).invocation;
}

newtop::GcService& NewTopDeployment::gc(int member) {
    return dynamic_cast<newtop::GcService&>(gc_host(member).service());
}

const newtop::GcService& NewTopDeployment::gc(int member) const {
    return const_cast<NewTopDeployment*>(this)->gc(member);
}

fs::PlainHost& NewTopDeployment::gc_host(int member) {
    return *members_.at(static_cast<std::size_t>(member)).gc;
}

newtop::PingSuspector& NewTopDeployment::suspector(int member) {
    return *members_.at(static_cast<std::size_t>(member)).suspector;
}

void NewTopDeployment::attach(Observers observers) {
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
    }
}

void NewTopDeployment::submit(int member, Bytes payload) {
    invocation(member).multicast(service_, std::move(payload));
}

BatchStats NewTopDeployment::batch_stats() const {
    BatchStats stats;
    for (const auto& m : members_) stats += m.invocation->batch_stats();
    return stats;
}

std::vector<RecoveryStep> NewTopDeployment::recover_steps(int member) {
    std::vector<RecoveryStep> steps;
    // Survivors first: forgive the rejoiner in their ping suspectors, so the
    // join request is not raced by a fresh (false) suspicion of a member
    // whose last_heard_ timestamp predates its crash.
    for (int s = 0; s < group_size(); ++s) {
        if (s == member) continue;
        steps.push_back({node_of(s), [this, s, member] {
                             suspector(s).forgive(static_cast<MemberId>(member));
                         }});
    }
    // Then the rejoiner: clean suspector slate, re-armed delivery
    // resequencer, and the GC-level "__rejoin" that wipes state and asks the
    // survivors for readmission.
    steps.push_back({node_of(member), [this, member] {
                         suspector(member).forgive_all();
                         invocation(member).prepare_rejoin();
                         gc_host(member).submit_local("__rejoin", Bytes{});
                     }});
    return steps;
}

std::optional<AppStateInfo> NewTopDeployment::app_state_of(int member) {
    const auto& app = gc(member).app();
    return AppStateInfo{app.applied(), app.digest(), app.state_string()};
}

RecoveryStats NewTopDeployment::recovery_stats() const {
    RecoveryStats stats;
    for (int i = 0; i < group_size(); ++i) {
        const auto& g = gc(i);
        stats.checkpoints_taken += g.app().checkpoints_taken();
        stats.rejoins_completed += g.rejoins_completed();
        stats.flush_log_evictions += g.flush_log_evictions();
        stats.flush_eviction_gaps += g.flush_eviction_gaps();
    }
    return stats;
}

}  // namespace failsig::deploy
