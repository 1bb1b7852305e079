#include "fs/plain_host.hpp"

namespace failsig::fs {

PlainHost::PlainHost(orb::Orb& orb, const std::string& key,
                     std::unique_ptr<DeterministicService> service)
    : orb_(orb), service_(std::move(service)) {
    self_ref_ = orb_.activate(key, this);
}

void PlainHost::dispatch(const orb::Request& request) {
    submit_local(request.operation, request.args);
}

void PlainHost::submit_local(const std::string& operation, Bytes body) {
    queue_.emplace_back(operation, std::move(body));
    maybe_run();
}

void PlainHost::maybe_run() {
    if (busy_ || queue_.empty()) return;
    busy_ = true;
    auto [operation, body] = std::move(queue_.front());
    queue_.pop_front();

    const Duration cost = service_->processing_cost(operation, body);
    orb_.pool().submit(cost, [this, operation = std::move(operation), body = std::move(body)] {
        auto outputs = service_->process(operation, body);
        for (auto& out : outputs) {
            // Plain hosting: every destination is a concrete object ref. One
            // fan-out per logical output, so the body is marshalled once.
            std::vector<orb::ObjectRef> targets;
            targets.reserve(out.dests.size());
            for (const auto& dest : out.dests) {
                if (!dest.is_fs) targets.push_back(dest.ref);
            }
            orb_.invoke_fanout(targets, out.operation, std::move(out.body));
        }
        busy_ = false;
        maybe_run();
    });
}

}  // namespace failsig::fs
