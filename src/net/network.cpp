#include "net/network.hpp"

#include <algorithm>

namespace failsig::net {

SimNetwork::SimNetwork(sim::Simulation& sim, Rng rng, AsyncLinkParams params)
    : sim_(sim), rng_(rng), params_(params) {}

void SimNetwork::bind(Endpoint endpoint, MessageHandler handler) {
    handlers_[endpoint] = std::move(handler);
}

void SimNetwork::unbind(Endpoint endpoint) { handlers_.erase(endpoint); }

void SimNetwork::set_lan_pair(NodeId a, NodeId b, Duration delta) {
    lan_pairs_[ordered(a, b)] = delta;
}

void SimNetwork::block(NodeId a, NodeId b) {
    const auto p = ordered(a, b);
    blocked_.insert({p.a.value, p.b.value});
}

void SimNetwork::unblock(NodeId a, NodeId b) {
    const auto p = ordered(a, b);
    blocked_.erase({p.a.value, p.b.value});
}

void SimNetwork::partition(const std::vector<std::set<NodeId>>& groups) {
    partition_groups_ = groups;
}

void SimNetwork::heal_partition() { partition_groups_.clear(); }

void SimNetwork::delay_surge(Duration extra, TimePoint until) {
    surge_extra_ = extra;
    surge_until_ = until;
}

void SimNetwork::set_corruptor(Corruptor corruptor) { corruptor_ = std::move(corruptor); }

void SimNetwork::set_drop_probability(double p) { drop_probability_ = p; }

void SimNetwork::reset_stats() {
    messages_sent_ = 0;
    messages_delivered_ = 0;
    messages_dropped_ = 0;
    bytes_sent_ = 0;
    payload_bytes_copied_ = 0;
    payload_bodies_encoded_ = 0;
    stats_epoch_ = Payload::new_stats_epoch();
}

bool SimNetwork::is_blocked(NodeId a, NodeId b) const {
    if (a == b) return false;
    const auto p = ordered(a, b);
    if (blocked_.contains({p.a.value, p.b.value})) return true;
    if (!partition_groups_.empty() && !lan_pairs_.contains(p)) {
        // Across-group traffic is cut; traffic inside a group flows.
        for (const auto& group : partition_groups_) {
            const bool has_a = group.contains(a);
            const bool has_b = group.contains(b);
            if (has_a && has_b) return false;
            if (has_a != has_b) {
                // One endpoint inside this group, the other outside: blocked
                // only if the other endpoint belongs to some *other* group.
                for (const auto& other : partition_groups_) {
                    if (&other == &group) continue;
                    if (other.contains(has_a ? b : a)) return true;
                }
            }
        }
    }
    return false;
}

Duration SimNetwork::delay_for(NodeId a, NodeId b, std::size_t size) {
    if (a == b) {
        // Loopback: small constant.
        return 20 * kMicrosecond;
    }
    const auto lan_it = lan_pairs_.find(ordered(a, b));
    if (lan_it != lan_pairs_.end()) {
        // Synchronous link: delay uniform in (0, δ], never above the bound.
        const Duration delta = lan_it->second;
        const Duration lo = std::max<Duration>(1, delta / 4);
        return rng_.uniform_range(lo, delta);
    }
    const auto jitter = static_cast<Duration>(rng_.exponential(params_.jitter_mean_us));
    const auto serialization =
        static_cast<Duration>(params_.per_byte_us * static_cast<double>(size));
    Duration d = params_.base + jitter + serialization;
    if (sim_.now() < surge_until_) d += surge_extra_;
    return d;
}

void SimNetwork::send(Endpoint src, Endpoint dst, Payload payload) {
    ++messages_sent_;
    bytes_sent_ += payload.size();
    // Copy accounting: the per-target header is always materialized; the
    // body buffer counts only the first time it is seen (the fan-out loop
    // of a multicast sends the same shared buffer consecutively).
    payload_bytes_copied_ += payload.prefix().size();
    if (payload.mark_counted(stats_epoch_)) {
        ++payload_bodies_encoded_;
        payload_bytes_copied_ += payload.body().size();
    }

    const bool is_lan = lan_pairs_.contains(ordered(src.node, dst.node));

    if (is_blocked(src.node, dst.node)) {
        ++messages_dropped_;
        return;
    }
    // Random drop models a lossy *async link*; loopback traffic is an
    // in-process upcall (e.g. a replica handing a committed request to its
    // own application sink) and is as reliable as the LAN pairs. Without
    // this exemption, a dropped local delivery would park every later
    // upcall in a seq-holdback forever while the truncated stream still
    // looks like a valid prefix to the agreement checker.
    if (!is_lan && src.node != dst.node && drop_probability_ > 0.0 &&
        rng_.chance(drop_probability_)) {
        ++messages_dropped_;
        return;
    }

    Message msg{src, dst, std::move(payload)};
    if (corruptor_ && !corruptor_(msg)) {
        ++messages_dropped_;
        return;
    }

    const Duration delay = delay_for(src.node, dst.node, msg.payload.size());
    TimePoint deliver_at = sim_.now() + delay;

    // FIFO per directed node pair: never deliver earlier than a previously
    // sent message on the same link.
    const std::uint64_t link_key =
        (static_cast<std::uint64_t>(src.node.value) << 32) | dst.node.value;
    auto [it, inserted] = last_delivery_.try_emplace(link_key, deliver_at);
    if (!inserted) {
        deliver_at = std::max(deliver_at, it->second + 1);
        it->second = deliver_at;
    }

    sim_.schedule_at(deliver_at, [this, msg = std::move(msg)]() {
        const auto handler_it = handlers_.find(msg.dst);
        if (handler_it == handlers_.end()) {
            ++messages_dropped_;
            return;
        }
        ++messages_delivered_;
        handler_it->second(msg);
    });
}

}  // namespace failsig::net
