#include "net/tcp_transport.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "common/log.hpp"

namespace failsig::net {

namespace {

std::uint64_t pair_key(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(src.value) << 32) | dst.value;
}

std::pair<std::uint32_t, std::uint32_t> ordered_pair(NodeId a, NodeId b) {
    return a.value <= b.value ? std::pair{a.value, b.value} : std::pair{b.value, a.value};
}

[[noreturn]] void sys_fail(const char* what) {
    throw std::runtime_error(std::string("tcp-transport: ") + what + ": " +
                             std::strerror(errno));
}

Bytes frame_of(Endpoint src, Endpoint dst, const Payload& payload) {
    ByteWriter w;
    w.reserve(4 + 2 * kEndpointWireBytes + payload.size());
    w.u32(static_cast<std::uint32_t>(2 * kEndpointWireBytes + payload.size()));
    encode_endpoint(w, src);
    encode_endpoint(w, dst);
    w.raw(payload.prefix());
    w.raw(payload.body());
    return w.take();
}

}  // namespace

TcpTransport::TcpTransport(Hooks hooks, Rng rng) : hooks_(std::move(hooks)), rng_(rng) {
    epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) sys_fail("epoll_create1");
    wake_fd_ = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) sys_fail("eventfd");
}

TcpTransport::~TcpTransport() {
    close();
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void TcpTransport::ensure_listener(NodeId node) {
    if (listeners_.contains(node.value)) return;
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0) sys_fail("socket");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral: the kernel picks, we publish
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) sys_fail("bind");
    if (::listen(fd, 64) < 0) sys_fail("listen");
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
        sys_fail("getsockname");
    }
    listeners_[node.value] = fd;
    endpoint_map_.publish(node, SocketAddr{"127.0.0.1", ntohs(addr.sin_port)});
}

void TcpTransport::bind(Endpoint endpoint, MessageHandler handler) {
    std::lock_guard lk(topo_mu_);
    ensure_listener(endpoint.node);
    handlers_[endpoint] = std::move(handler);
}

void TcpTransport::unbind(Endpoint endpoint) {
    std::lock_guard lk(topo_mu_);
    handlers_.erase(endpoint);
}

void TcpTransport::set_lan_pair(NodeId a, NodeId b, Duration /*delta*/) {
    // The bound δ is a simulator concept; on real sockets the hint only
    // marks the pair as a point-to-point cable (exempt from partitions).
    std::lock_guard lk(fault_mu_);
    lan_pairs_.insert(ordered_pair(a, b));
}

void TcpTransport::start() {
    std::lock_guard lk(topo_mu_);
    if (started_) return;
    started_ = true;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = wake_fd_;
    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) sys_fail("epoll_ctl wake");
    for (const auto& [node, fd] : listeners_) {
        epoll_event lev{};
        lev.events = EPOLLIN;
        lev.data.fd = fd;
        if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &lev) < 0) sys_fail("epoll_ctl listen");
    }
    reactor_ = std::thread([this] { reactor_loop(); });
}

void TcpTransport::close() {
    {
        std::lock_guard lk(topo_mu_);
        if (closed_.exchange(true)) return;
    }
    stopping_.store(true);
    const std::uint64_t one = 1;
    [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof one);
    if (reactor_.joinable()) reactor_.join();
    // Graceful close: connections first (senders are quiesced by the host
    // before close()), then listeners.
    {
        std::lock_guard lk(conn_mu_);
        for (auto& [key, conn] : conns_) {
            std::lock_guard ck(conn->mu);
            if (conn->fd >= 0) {
                ::shutdown(conn->fd, SHUT_RDWR);
                ::close(conn->fd);
                conn->fd = -1;
            }
        }
        conns_.clear();
    }
    {
        std::lock_guard lk(topo_mu_);
        for (auto& [node, fd] : listeners_) ::close(fd);
        listeners_.clear();
    }
    for (auto& [fd, reader] : streams_) ::close(fd);
    streams_.clear();
}

void TcpTransport::isolate(NodeId node) {
    std::lock_guard lk(fault_mu_);
    dead_nodes_.insert(node.value);
}

void TcpTransport::restore(NodeId node) {
    std::lock_guard lk(fault_mu_);
    dead_nodes_.erase(node.value);
}

// --- fault injection -----------------------------------------------------

void TcpTransport::block(NodeId a, NodeId b) {
    std::lock_guard lk(fault_mu_);
    blocked_.insert(ordered_pair(a, b));
}

void TcpTransport::unblock(NodeId a, NodeId b) {
    std::lock_guard lk(fault_mu_);
    blocked_.erase(ordered_pair(a, b));
}

void TcpTransport::partition(const std::vector<std::set<NodeId>>& groups) {
    std::lock_guard lk(fault_mu_);
    partition_groups_ = groups;
}

void TcpTransport::heal_partition() {
    std::lock_guard lk(fault_mu_);
    partition_groups_.clear();
}

void TcpTransport::delay_surge(Duration extra, TimePoint until) {
    std::lock_guard lk(fault_mu_);
    surge_extra_ = extra;
    surge_until_ = until;
}

void TcpTransport::set_corruptor(Corruptor corruptor) {
    std::lock_guard lk(fault_mu_);
    corruptor_ = std::move(corruptor);
}

void TcpTransport::set_drop_probability(double p) {
    std::lock_guard lk(fault_mu_);
    drop_probability_ = p;
}

// --- statistics ----------------------------------------------------------

std::uint64_t TcpTransport::messages_sent() const {
    std::lock_guard lk(stats_mu_);
    return messages_sent_;
}
std::uint64_t TcpTransport::messages_delivered() const {
    std::lock_guard lk(stats_mu_);
    return messages_delivered_;
}
std::uint64_t TcpTransport::messages_dropped() const {
    std::lock_guard lk(stats_mu_);
    return messages_dropped_;
}
std::uint64_t TcpTransport::bytes_sent() const {
    std::lock_guard lk(stats_mu_);
    return bytes_sent_;
}
std::uint64_t TcpTransport::payload_bytes_copied() const {
    std::lock_guard lk(stats_mu_);
    return payload_bytes_copied_;
}
std::uint64_t TcpTransport::payload_bodies_encoded() const {
    std::lock_guard lk(stats_mu_);
    return payload_bodies_encoded_;
}

void TcpTransport::reset_stats() {
    std::lock_guard lk(stats_mu_);
    messages_sent_ = 0;
    messages_delivered_ = 0;
    messages_dropped_ = 0;
    bytes_sent_ = 0;
    payload_bytes_copied_ = 0;
    payload_bodies_encoded_ = 0;
    stats_epoch_ = Payload::new_stats_epoch();
}

// --- send path -----------------------------------------------------------

int TcpTransport::connect_with_backoff(NodeId dst) {
    SocketAddr target;
    {
        std::lock_guard lk(topo_mu_);
        const SocketAddr* addr = endpoint_map_.find(dst);
        if (addr == nullptr) return -1;
        target = *addr;
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(target.port);
    if (inet_pton(AF_INET, target.host.c_str(), &addr.sin_addr) != 1) return -1;
    // Bounded exponential backoff: the peer's listener exists before any
    // executor runs, so refusals here mean kernel backlog pressure, not a
    // missing peer.
    Duration backoff_us = 1000;
    for (int attempt = 0; attempt < 10; ++attempt) {
        const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd < 0) return -1;
        if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
            return fd;
        }
        ::close(fd);
        if (errno != ECONNREFUSED && errno != EINTR && errno != ETIMEDOUT) return -1;
        ::usleep(static_cast<useconds_t>(backoff_us));
        backoff_us *= 2;
    }
    return -1;
}

void TcpTransport::write_frame(int fd, const Bytes& frame) {
    std::size_t off = 0;
    while (off < frame.size()) {
        const ssize_t n =
            ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
        if (n > 0) {
            off += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR) continue;
        // Peer gone (reactor shut down / connection reset): the frame is
        // lost, which the drop counters already account for at the reactor
        // side; stop writing.
        return;
    }
}

void TcpTransport::send(Endpoint src, Endpoint dst, Payload payload) {
    {
        std::lock_guard lk(stats_mu_);
        ++messages_sent_;
        bytes_sent_ += payload.size();
        // The socket path flattens every payload into its frame, so unlike
        // the simulator the copied bytes equal the logical bytes; bodies
        // are still counted once so encode amortization stays visible.
        payload_bytes_copied_ += payload.size();
        if (payload.mark_counted(stats_epoch_)) {
            ++payload_bodies_encoded_;
        }
    }
    if (closed_.load()) {
        std::lock_guard lk(stats_mu_);
        ++messages_dropped_;
        return;
    }
    {
        // Sender-side checks that never reach the reactor: dead endpoints.
        std::lock_guard lk(fault_mu_);
        if (dead_nodes_.contains(src.node.value) || dead_nodes_.contains(dst.node.value)) {
            std::lock_guard sk(stats_mu_);
            ++messages_dropped_;
            return;
        }
    }

    if (src.node == dst.node) {
        // In-process upcall: no socket, no random drop (see SimNetwork's
        // loopback rule), but the corruptor still sees it.
        Message msg{src, dst, std::move(payload)};
        {
            std::lock_guard lk(fault_mu_);
            if (corruptor_ && !corruptor_(msg)) {
                std::lock_guard sk(stats_mu_);
                ++messages_dropped_;
                return;
            }
        }
        deliver(std::move(msg), /*count_wire_settle=*/false);
        return;
    }

    const Bytes frame = frame_of(src, dst, payload);
    std::shared_ptr<Conn> conn;
    {
        std::lock_guard lk(conn_mu_);
        auto& slot = conns_[pair_key(src.node, dst.node)];
        if (!slot) slot = std::make_shared<Conn>();
        conn = slot;
    }
    if (hooks_.on_wire) hooks_.on_wire();
    {
        std::lock_guard ck(conn->mu);
        if (conn->fd < 0) conn->fd = connect_with_backoff(dst.node);
        if (conn->fd < 0) {
            std::lock_guard sk(stats_mu_);
            ++messages_dropped_;
            if (hooks_.on_settled) hooks_.on_settled();
            return;
        }
        write_frame(conn->fd, frame);
    }
}

void TcpTransport::connect(NodeId src, NodeId dst) {
    std::shared_ptr<Conn> conn;
    {
        std::lock_guard lk(conn_mu_);
        auto& slot = conns_[pair_key(src, dst)];
        if (!slot) slot = std::make_shared<Conn>();
        conn = slot;
    }
    std::lock_guard ck(conn->mu);
    if (conn->fd < 0) conn->fd = connect_with_backoff(dst);
}

// --- reactor -------------------------------------------------------------

void TcpTransport::reactor_loop() {
    constexpr int kMaxEvents = 64;
    epoll_event events[kMaxEvents];
    Bytes chunk(64 * 1024);
    while (!stopping_.load()) {
        const int n = epoll_wait(epoll_fd_, events, kMaxEvents, 100);
        if (n < 0) {
            if (errno == EINTR) continue;
            break;
        }
        for (int i = 0; i < n; ++i) {
            const int fd = events[i].data.fd;
            if (fd == wake_fd_) {
                std::uint64_t drain = 0;
                [[maybe_unused]] const auto r = ::read(wake_fd_, &drain, sizeof drain);
                continue;
            }
            bool is_listener = false;
            {
                std::lock_guard lk(topo_mu_);
                for (const auto& [node, lfd] : listeners_) {
                    if (lfd == fd) {
                        is_listener = true;
                        break;
                    }
                }
            }
            if (is_listener) {
                for (;;) {
                    const int conn_fd = ::accept4(fd, nullptr, nullptr,
                                                  SOCK_NONBLOCK | SOCK_CLOEXEC);
                    if (conn_fd < 0) break;
                    epoll_event cev{};
                    cev.events = EPOLLIN;
                    cev.data.fd = conn_fd;
                    if (epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn_fd, &cev) == 0) {
                        streams_.emplace(conn_fd, FrameReader{});
                    } else {
                        ::close(conn_fd);
                    }
                }
                continue;
            }
            auto stream_it = streams_.find(fd);
            if (stream_it == streams_.end()) continue;
            FrameReader& reader = stream_it->second;
            bool dead = false;
            for (;;) {
                const ssize_t got = ::read(fd, chunk.data(), chunk.size());
                if (got > 0) {
                    reader.feed(std::span(chunk.data(), static_cast<std::size_t>(got)));
                    continue;
                }
                if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
                if (got < 0 && errno == EINTR) continue;
                dead = true;  // orderly EOF or hard error
                break;
            }
            while (auto frame = reader.next()) handle_frame(std::move(*frame));
            if (reader.failed()) {
                FAILSIG_LOG(LogLevel::kWarn, NET)
                    << "tcp reactor: poisoned stream (" << reader.error()
                    << "), closing connection";
                dead = true;
            }
            if (dead) {
                epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
                ::close(fd);
                streams_.erase(stream_it);
            }
        }
    }
}

bool TcpTransport::admit(Message& msg) {
    std::lock_guard lk(fault_mu_);
    const NodeId a = msg.src.node;
    const NodeId b = msg.dst.node;
    if (dead_nodes_.contains(a.value) || dead_nodes_.contains(b.value)) return false;
    const auto pair = ordered_pair(a, b);
    if (blocked_.contains(pair)) return false;
    const bool is_lan = lan_pairs_.contains(pair);
    if (!partition_groups_.empty() && !is_lan) {
        for (const auto& group : partition_groups_) {
            const bool has_a = group.contains(a);
            const bool has_b = group.contains(b);
            if (has_a && has_b) break;
            if (has_a != has_b) {
                for (const auto& other : partition_groups_) {
                    if (&other == &group) continue;
                    if (other.contains(has_a ? b : a)) return false;
                }
            }
        }
    }
    if (!is_lan && drop_probability_ > 0.0 && rng_.chance(drop_probability_)) return false;
    if (corruptor_ && !corruptor_(msg)) return false;
    return true;
}

void TcpTransport::deliver(Message msg, bool count_wire_settle) {
    MessageHandler handler;
    {
        std::lock_guard lk(topo_mu_);
        const auto it = handlers_.find(msg.dst);
        if (it != handlers_.end()) handler = it->second;
    }
    if (!handler) {
        std::lock_guard lk(stats_mu_);
        ++messages_dropped_;
        if (count_wire_settle && hooks_.on_settled) hooks_.on_settled();
        return;
    }
    const NodeId dst_node = msg.dst.node;
    auto task = [this, handler = std::move(handler), msg = std::move(msg)]() mutable {
        {
            std::lock_guard lk(stats_mu_);
            ++messages_delivered_;
        }
        handler(msg);
    };

    Duration surge = 0;
    TimePoint now = 0;
    if (hooks_.now && hooks_.post_at) {
        std::lock_guard lk(fault_mu_);
        now = hooks_.now();
        if (now < surge_until_) surge = surge_extra_;
    }
    if (surge > 0) {
        hooks_.post_at(dst_node, now + surge, std::move(task));
    } else {
        hooks_.post(dst_node, std::move(task));
    }
    if (count_wire_settle && hooks_.on_settled) hooks_.on_settled();
}

void TcpTransport::handle_frame(Frame frame) {
    Message msg{frame.src, frame.dst, Payload{std::move(frame.payload)}};
    if (!admit(msg)) {
        std::lock_guard lk(stats_mu_);
        ++messages_dropped_;
        if (hooks_.on_settled) hooks_.on_settled();
        return;
    }
    deliver(std::move(msg), /*count_wire_settle=*/true);
}

}  // namespace failsig::net
