#include "fs/client.hpp"

namespace failsig::fs {

FsClient::FsClient(FsRuntime& rt, orb::Orb& orb, const std::string& key) : rt_(rt), orb_(orb) {
    self_ref_ = orb_.activate(key, this);
}

void FsClient::send(const std::string& fs_name, const std::string& operation, Bytes body) {
    const FsProcessInfo* info = rt_.directory.lookup(fs_name);
    if (info == nullptr) return;

    FsInput input;
    input.uid = "client:" + self_ref_.key + ":" + std::to_string(next_uid_++);
    input.operation = operation;
    input.body = std::move(body);
    input.origin_ref = self_ref_;

    // Unsigned envelope: clients are not FS processes. The pair dedups the
    // two copies by uid. One fan-out: both replicas share one encoded body.
    const crypto::SignedEnvelope env(input.encode());
    orb_.invoke_fanout({info->leader, info->follower}, "receiveNew", env.encode());
}

void FsClient::dispatch(const orb::Request& request) {
    auto env = crypto::SignedEnvelope::decode(request.args);
    if (!env.has_value()) {
        ++invalid_dropped_;
        return;
    }
    const crypto::SignedEnvelope& envelope = env.value();
    const auto kind = peek_kind(envelope.payload());
    if (!kind.has_value()) {
        ++invalid_dropped_;
        return;
    }

    switch (kind.value()) {
        case WireKind::kOutput: {
            auto out = FsOutput::decode(envelope.payload());
            if (!out.has_value()) {
                ++invalid_dropped_;
                return;
            }
            const FsOutput& record = out.value();
            const FsProcessInfo* source = rt_.directory.lookup(record.source_fs);
            if (source == nullptr ||
                !envelope.is_valid_double_signed(rt_.keys, source->leader_principal,
                                                 source->follower_principal)) {
                ++invalid_dropped_;
                return;
            }
            const std::string uid = record.source_fs + ":" + std::to_string(record.input_seq) +
                                    ":" + std::to_string(record.out_index);
            if (!seen_outputs_.insert(uid).second) {
                ++duplicates_suppressed_;
                return;  // the other Compare's copy
            }
            ++responses_received_;
            if (response_handler_) {
                response_handler_(record.source_fs, record.operation, record.body);
            }
            break;
        }
        case WireKind::kFailSignal: {
            auto fsig = FsFailSignal::decode(envelope.payload());
            if (!fsig.has_value()) {
                ++invalid_dropped_;
                return;
            }
            const FsProcessInfo* source = rt_.directory.lookup(fsig.value().source_fs);
            if (source == nullptr ||
                !envelope.is_valid_double_signed(rt_.keys, source->leader_principal,
                                                 source->follower_principal)) {
                ++invalid_dropped_;
                return;
            }
            if (signalled_sources_.insert(fsig.value().source_fs).second && fail_handler_) {
                fail_handler_(fsig.value().source_fs);
            }
            break;
        }
        default: ++invalid_dropped_; break;
    }
}

}  // namespace failsig::fs
