// Simulator setup shared by the three protocol-stack deployments.
//
// Every stack places its members on the ORBs of one OrbDomain. With a
// default-constructed DeploymentSpec::env the stack owns its whole world:
// one Simulation every node shares and one SimNetwork seeded from the spec
// (the byte-identical simulator path). Given an external net::RuntimeEnv
// (the TCP backend) it binds the supplied transport, fault plane and
// per-node event loops instead, and builds no SimNetwork.
#pragma once

#include <memory>

#include "common/result.hpp"
#include "deploy/deployment.hpp"
#include "net/network.hpp"
#include "orb/orb.hpp"
#include "sim/cost_model.hpp"

namespace failsig::deploy {

class StackDeployment : public Deployment {
public:
    StackDeployment(const StackDeployment&) = delete;
    StackDeployment& operator=(const StackDeployment&) = delete;

    [[nodiscard]] sim::Simulation& sim() override { return sim_; }
    [[nodiscard]] net::Transport& network() override { return net_; }
    [[nodiscard]] net::FaultInjector& faults() override { return faults_; }
    [[nodiscard]] int group_size() const override { return group_size_; }
    /// One host per member by default; stacks with dedicated pair nodes
    /// override this.
    [[nodiscard]] std::vector<NodeId> nodes_of(int member) const override {
        return {node_of(member)};
    }
    /// Member's host node (the application's node on every stack).
    [[nodiscard]] static NodeId node_of(int member) {
        return NodeId{static_cast<std::uint32_t>(member + 1)};
    }

protected:
    /// CPU costs every stack charges: the calibrated defaults.
    static constexpr sim::CostModel kCosts{};

    explicit StackDeployment(const DeploymentSpec& spec)
        : own_net_(spec.env.external()
                       ? nullptr
                       : std::make_unique<net::SimNetwork>(sim_, Rng(spec.seed))),
          net_(net::transport_or(spec.env, own_net_.get())),
          faults_(net::faults_or(spec.env, own_net_.get())),
          domain_(net::sim_of_or(spec.env, sim_), net_, kCosts, spec.threads_per_node),
          group_size_(spec.group_size) {
        ensure(group_size_ >= 1, "deploy: group_size must be >= 1");
        // Stamps read now() lazily, so binding before the stack exists is
        // safe.
        if (spec.obs != nullptr) spec.obs->bind(&sim_);
    }

    sim::Simulation sim_;
    std::unique_ptr<net::SimNetwork> own_net_;  // null when spec.env is external
    net::Transport& net_;
    net::FaultInjector& faults_;
    orb::OrbDomain domain_;

private:
    int group_size_;
};

}  // namespace failsig::deploy
