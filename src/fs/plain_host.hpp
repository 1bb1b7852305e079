// PlainHost: runs one deterministic service (requirement R1) as a plain
// CORBA object — the crash-tolerant way of hosting it, as opposed to wrapping
// it in a fail-signal pair (fs::Fso). NewTOP's GC objects and the PBFT
// baseline's replicas both run this way.
//
// Inputs are serialized — the paper's GC "is implemented as a
// single-threaded, deterministic application" — and each input's processing
// cost is charged to the node's shared thread pool before the state machine
// runs. Every output goes out as one ORB fan-out to its plain destinations.
#pragma once

#include <deque>
#include <memory>

#include "fs/service.hpp"
#include "orb/orb.hpp"

namespace failsig::fs {

class PlainHost final : public orb::Servant {
public:
    PlainHost(orb::Orb& orb, const std::string& key,
              std::unique_ptr<DeterministicService> service);

    void dispatch(const orb::Request& request) override;

    /// Feeds an input from a collocated module (Invocation layer, suspector,
    /// deployment driver) without a network round trip.
    void submit_local(const std::string& operation, Bytes body);

    [[nodiscard]] DeterministicService& service() { return *service_; }
    [[nodiscard]] const DeterministicService& service() const { return *service_; }
    [[nodiscard]] const orb::ObjectRef& ref() const { return self_ref_; }

private:
    void maybe_run();

    orb::Orb& orb_;
    std::unique_ptr<DeterministicService> service_;
    orb::ObjectRef self_ref_;
    std::deque<std::pair<std::string, Bytes>> queue_;
    bool busy_{false};
};

}  // namespace failsig::fs
