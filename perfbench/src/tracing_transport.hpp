// A decorating transport for the traced simulator run: it forwards every
// call to a SimNetwork and wraps `send` and each bound receive handler in a
// span. The stack receives it through DeploymentSpec::env, so the program
// itself is unchanged; the run's deterministic counts (messages, bytes,
// events, deliveries) must equal the untraced run's, which proves the
// decorator only observed.
#pragma once

#include <utility>

#include "net/network.hpp"
#include "util.hpp"

namespace perfbench {

class TracingTransport final : public failsig::net::Transport,
                               public failsig::net::FaultInjector {
public:
    explicit TracingTransport(failsig::net::SimNetwork& inner) : inner_(inner) {}

    void bind(failsig::Endpoint endpoint, failsig::net::MessageHandler handler) override {
        inner_.bind(endpoint, [handler = std::move(handler)](const failsig::net::Message& m) {
            const Tracer::Scope span(tracer(), SpanName::kIngress);
            handler(m);
        });
    }
    void unbind(failsig::Endpoint endpoint) override { inner_.unbind(endpoint); }
    void send(failsig::Endpoint src, failsig::Endpoint dst, failsig::Payload payload) override {
        const Tracer::Scope span(tracer(), SpanName::kSend);
        inner_.send(src, dst, std::move(payload));
    }
    void connect(failsig::NodeId src, failsig::NodeId dst) override { inner_.connect(src, dst); }
    void close() override { inner_.close(); }
    void set_lan_pair(failsig::NodeId a, failsig::NodeId b, failsig::Duration delta) override {
        inner_.set_lan_pair(a, b, delta);
    }

    [[nodiscard]] std::uint64_t messages_sent() const override { return inner_.messages_sent(); }
    [[nodiscard]] std::uint64_t messages_delivered() const override {
        return inner_.messages_delivered();
    }
    [[nodiscard]] std::uint64_t messages_dropped() const override {
        return inner_.messages_dropped();
    }
    [[nodiscard]] std::uint64_t bytes_sent() const override { return inner_.bytes_sent(); }
    [[nodiscard]] std::uint64_t payload_bytes_copied() const override {
        return inner_.payload_bytes_copied();
    }
    [[nodiscard]] std::uint64_t payload_bodies_encoded() const override {
        return inner_.payload_bodies_encoded();
    }
    void reset_stats() override { inner_.reset_stats(); }

    void block(failsig::NodeId a, failsig::NodeId b) override { inner_.block(a, b); }
    void unblock(failsig::NodeId a, failsig::NodeId b) override { inner_.unblock(a, b); }
    void partition(const std::vector<std::set<failsig::NodeId>>& groups) override {
        inner_.partition(groups);
    }
    void heal_partition() override { inner_.heal_partition(); }
    void delay_surge(failsig::Duration extra, failsig::TimePoint until) override {
        inner_.delay_surge(extra, until);
    }
    void set_corruptor(failsig::net::Corruptor corruptor) override {
        inner_.set_corruptor(std::move(corruptor));
    }
    void set_drop_probability(double p) override { inner_.set_drop_probability(p); }

private:
    failsig::net::SimNetwork& inner_;
};

}  // namespace perfbench
