// Crash-tolerant NewTOP, the paper's baseline group communication stack
// (§4): n hosts, each running one NSO (Invocation service + GC object) and a
// ping suspector, all wired over the deployment's network.
#pragma once

#include <memory>

#include "deploy/stack.hpp"
#include "newtop/invocation.hpp"
#include "newtop/suspector.hpp"

namespace failsig::deploy {

class NewTopDeployment final : public StackDeployment {
public:
    explicit NewTopDeployment(const DeploymentSpec& spec);

    void attach(Observers observers) override;
    void submit(int member, Bytes payload) override;
    /// Stops the member's ping suspector (lets Simulation::run() terminate).
    void stop_perpetual_member(int member) override { suspector(member).stop(); }
    [[nodiscard]] BatchStats batch_stats() const override;

    std::vector<RecoveryStep> recover_steps(int member) override;
    [[nodiscard]] std::optional<AppStateInfo> app_state_of(int member) override;
    [[nodiscard]] RecoveryStats recovery_stats() const override;

    // --- inspection -------------------------------------------------------
    [[nodiscard]] newtop::PlainInvocation& invocation(int member);
    [[nodiscard]] newtop::GcService& gc(int member);
    [[nodiscard]] const newtop::GcService& gc(int member) const;
    [[nodiscard]] fs::PlainHost& gc_host(int member);
    [[nodiscard]] newtop::PingSuspector& suspector(int member);

private:
    struct Member {
        std::unique_ptr<fs::PlainHost> gc;
        std::unique_ptr<newtop::PlainInvocation> invocation;
        std::unique_ptr<newtop::PingSuspector> suspector;
    };

    std::vector<Member> members_;
    newtop::ServiceType service_;
    Observers observers_;
};

}  // namespace failsig::deploy
