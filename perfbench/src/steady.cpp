// Steady-load workloads: `tcp-small` (real loopback sockets, 64-byte
// payloads, no batching, no checkpoints, 100 req/s) and `sim-batched-1k`
// (the simulator, 1 KiB payloads, batches of up to 8 with a 20 ms flush
// deadline, checkpoints every 64 requests, 400 req/s).
//
// Both run the three stacks at n = 4 with open-loop Poisson arrivals in
// virtual time. Each arrival is a driver action scheduled through
// Deployment::schedule; it stamps the wall clock and calls submit. The
// delivery observer stamps the wall clock per (request, member), so a
// latency sample is the wall time from the submit call to one member's
// delivery. All bookkeeping is flat and indexed by request sequence number.
// Each stack's pass runs in a forked child process (run_stack_isolated), and
// an untraced run interleaves the stacks over rounds (run_steady).
#include <poll.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "deploy/deployment.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "tracing_transport.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using failsig::BatchConfig;
using failsig::BatchStats;
using failsig::Bytes;
using failsig::Duration;
using failsig::TimePoint;
using failsig::deploy::Backend;
using failsig::deploy::Deployment;
using failsig::deploy::DeploymentSpec;
using failsig::deploy::SystemKind;

constexpr int kMembers = 4;
/// Rounds of an untraced run at the nominal rates; a faster host runs more
/// (see run_steady).
constexpr int kRounds = 9;

/// Pipe to the parent while running as an isolated stack child (-1 = none).
int g_progress_fd = -1;

void put_progress(std::uint64_t timed) {
    const std::string line = "progress " + std::to_string(timed) + "\n";
    (void)!::write(g_progress_fd, line.data(), line.size());
}

void ensure_ok(bool ok, const char* what) {
    if (!ok) throw std::runtime_error(std::string(what) + " failed");
}
constexpr SystemKind kStacks[] = {SystemKind::kNewTop, SystemKind::kFsNewTop, SystemKind::kPbft};

const char* stack_key(SystemKind system) {
    switch (system) {
        case SystemKind::kNewTop: return "newtop";
        case SystemKind::kFsNewTop: return "fsnewtop";
        case SystemKind::kPbft: return "pbft";
    }
    return "?";
}

/// The input shape of one steady workload.
struct Shape {
    bool tcp{false};
    std::size_t payload{64};
    double rate{100.0};  ///< aggregate arrivals per virtual second
    BatchConfig batch{};
    std::uint64_t checkpoint_interval{0};
    int warmup{20};       ///< requests that open the links and fill caches
    int chunk{50};        ///< arrivals scheduled per run_until step
    /// Typical wall-clock throughput per stack (NewTOP, FS-NewTOP, PBFT) on
    /// a 4-vCPU VM. A window's request count is this rate times its time
    /// budget, so every round does the same work and only its time varies.
    std::array<double, 3> nominal_rps{800, 140, 470};
};

Shape shape_of(bool tcp) {
    Shape s;
    s.tcp = tcp;
    if (tcp) return s;
    s.payload = 1024;
    s.rate = 400.0;
    s.batch.max_requests = 8;
    s.batch.flush_after = 20 * failsig::kMillisecond;
    s.checkpoint_interval = 64;
    s.warmup = 400;
    s.chunk = 400;
    s.nominal_rps = {25000, 650, 14500};
    return s;
}

/// Poisson arrivals (aggregate `rate`) with a uniformly random member each:
/// a pure function of (seed, stack, round).
class Arrivals {
public:
    Arrivals(std::uint64_t seed, SystemKind system, int round, double rate)
        : state_(seed * 0x2545f4914f6cdd1dULL + static_cast<std::uint64_t>(system) * 16 +
                 static_cast<std::uint64_t>(round) + 1),
          rate_(rate) {}

    struct Next {
        Duration gap;
        int member;
    };
    Next next() {
        const double u = static_cast<double>(splitmix64(state_) >> 11) * 0x1.0p-53;
        const double gap_s = -std::log1p(-u) / rate_;
        const auto gap = static_cast<Duration>(gap_s * static_cast<double>(failsig::kSecond));
        return {std::max<Duration>(gap, 1),
                static_cast<int>(splitmix64(state_) % static_cast<std::uint64_t>(kMembers))};
    }

private:
    std::uint64_t state_;
    double rate_;
};

/// Payload: the 8-byte little-endian request sequence number, then filler
/// derived from it, up to `size` bytes.
Bytes make_payload(std::uint64_t seq, std::size_t size) {
    Bytes out(std::max<std::size_t>(size, 8));
    std::uint64_t word = seq;
    std::memcpy(out.data(), &word, 8);
    std::uint64_t state = seq;
    for (std::size_t i = 8; i < out.size(); i += 8) {
        word = splitmix64(state);
        std::memcpy(out.data() + i, &word, std::min<std::size_t>(8, out.size() - i));
    }
    return out;
}

/// Per-request bookkeeping, flat and indexed by sequence number (seq 0 is
/// unused). Slots are written by the delivering member's thread only; the
/// arrays grow on the driver thread between runs, while the deployment is
/// quiescent.
class Book {
public:
    void grow(std::size_t seqs) {
        if (seqs <= submit_ns_.size()) return;
        submit_ns_.resize(seqs, 0);
        deliver_ns_.resize(seqs * kMembers, 0);
    }
    void on_submit(std::uint64_t seq) { submit_ns_[seq] = now_ns(); }
    void on_deliver(int member, const Bytes& payload) {
        const std::int64_t at = now_ns();
        std::uint64_t seq = 0;
        if (payload.size() >= 8) std::memcpy(&seq, payload.data(), 8);
        if (member < 0 || member >= kMembers || seq == 0 || seq >= submit_ns_.size()) {
            strays_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        std::int64_t& slot = deliver_ns_[seq * kMembers + static_cast<std::size_t>(member)];
        if (slot != 0) {
            duplicates_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        slot = at;
        const std::lock_guard<std::mutex> lock(order_mu_[static_cast<std::size_t>(member)]);
        order_[static_cast<std::size_t>(member)].push_back(static_cast<std::uint32_t>(seq));
    }

    [[nodiscard]] std::int64_t submitted_at(std::uint64_t seq) const { return submit_ns_[seq]; }
    [[nodiscard]] std::int64_t delivered_at(std::uint64_t seq, int member) const {
        return deliver_ns_[seq * kMembers + static_cast<std::size_t>(member)];
    }
    [[nodiscard]] bool delivered_everywhere(std::uint64_t seq) const {
        for (int m = 0; m < kMembers; ++m) {
            if (delivered_at(seq, m) == 0) return false;
        }
        return true;
    }
    [[nodiscard]] const std::vector<std::uint32_t>& order(int member) const {
        return order_[static_cast<std::size_t>(member)];
    }
    [[nodiscard]] std::uint64_t duplicates() const { return duplicates_.load(); }
    [[nodiscard]] std::uint64_t strays() const { return strays_.load(); }

private:
    std::vector<std::int64_t> submit_ns_;
    std::vector<std::int64_t> deliver_ns_;
    std::array<std::vector<std::uint32_t>, kMembers> order_;
    std::array<std::mutex, kMembers> order_mu_;
    std::atomic<std::uint64_t> duplicates_{0};
    std::atomic<std::uint64_t> strays_{0};
};

/// One deployment plus, on the traced simulator run, the Simulation and
/// SimNetwork the benchmark builds itself behind the decorating transport.
struct Rig {
    std::unique_ptr<failsig::sim::Simulation> sim;
    std::unique_ptr<failsig::net::SimNetwork> net;
    std::unique_ptr<TracingTransport> tracing;
    bool tcp{false};
    std::unique_ptr<Deployment> d;  // declared last: destroyed first

    [[nodiscard]] TimePoint now() { return sim ? sim->now() : d->now(); }
    void schedule(TimePoint at, std::function<void()> fn) {
        if (sim) {
            sim->schedule_at(at, std::move(fn));
        } else {
            d->schedule(at, std::move(fn));
        }
    }
    void run_until(TimePoint at) {
        const Tracer::Scope span(tracer(), SpanName::kRun);
        if (sim) {
            sim->run_until(at);
        } else {
            d->run_until(at);
        }
    }
    void run() {
        const Tracer::Scope span(tracer(), SpanName::kRun);
        if (sim) {
            sim->run();
        } else {
            d->run();
        }
    }
    /// The stack's event loop (simulator backend only; the TCP backend's
    /// per-node loops are internal to its executors).
    [[nodiscard]] failsig::sim::Simulation* loop() {
        if (sim) return sim.get();
        return tcp ? nullptr : &d->sim();
    }
};

std::unique_ptr<Rig> make_rig(const Shape& shape, SystemKind system, std::uint64_t seed,
                              bool own_loop) {
    auto rig = std::make_unique<Rig>();
    rig->tcp = shape.tcp;
    DeploymentSpec spec;
    spec.group_size = kMembers;
    spec.seed = seed;
    spec.batch = shape.batch;
    spec.checkpoint_interval = shape.checkpoint_interval;
    spec.backend = shape.tcp ? Backend::kTcp : Backend::kSim;
    if (own_loop) {
        rig->sim = std::make_unique<failsig::sim::Simulation>();
        rig->net = std::make_unique<failsig::net::SimNetwork>(*rig->sim, failsig::Rng(seed));
        rig->tracing = std::make_unique<TracingTransport>(*rig->net);
        spec.env.transport = rig->tracing.get();
        spec.env.faults = rig->tracing.get();
        failsig::sim::Simulation* loop = rig->sim.get();
        spec.env.sim_of = [loop](failsig::NodeId) -> failsig::sim::Simulation& { return *loop; };
    }
    rig->d = failsig::deploy::make_deployment(system, spec);
    return rig;
}

/// Counters read from the deployment at one instant.
struct Counters {
    std::uint64_t msgs{0}, delivered{0}, bytes{0}, copied{0}, bodies{0}, events{0};
    std::uint64_t verify_ops{0}, verify_hits{0};
    BatchStats batch{};
    failsig::deploy::RecoveryStats recovery{};

    static Counters read(Rig& rig) {
        Counters c;
        auto& net = rig.d->network();
        c.msgs = net.messages_sent();
        c.delivered = net.messages_delivered();
        c.bytes = net.bytes_sent();
        c.copied = net.payload_bytes_copied();
        c.bodies = net.payload_bodies_encoded();
        if (auto* loop = rig.loop()) c.events = loop->events_fired();
        c.verify_ops = rig.d->crypto_verify_ops();
        c.verify_hits = rig.d->crypto_verify_cache_hits();
        c.batch = rig.d->batch_stats();
        c.recovery = rig.d->recovery_stats();
        return c;
    }
};

/// Everything one pass (set-up + timed window) of one stack measured.
struct Pass {
    double setup_s{0};       ///< construction + attach + warm-up
    double window_s{0};      ///< first timed submit -> last delivery
    double loop_s{0};        ///< wall time of the timed loop incl. the drain
    std::uint64_t timed{0};  ///< timed requests attempted
    std::uint64_t failed{0};
    std::uint64_t complete{0};
    double rps{0}, p50_ms{0}, p90_ms{0}, p99_ms{0};
    std::size_t samples{0};
    // Outside-in resource use over the timed loop.
    double cpu_s{0};
    double ctx{0};
    double coordinator_cpu_s{0}, executor_cpu_s{0}, reactor_cpu_s{0};
    Counters begin{}, end{};
    std::size_t max_pending{0};
    /// Deterministic fingerprint of the whole deployment lifetime (compared
    /// between the untraced and the traced simulator pass).
    std::vector<std::uint64_t> fingerprint;
    std::vector<std::string> problems;
};

/// Sets one deployment up, then times `target` requests and checks the
/// outputs. A window still running after `cap_s` seconds (0 = no cap) stops
/// at the next chunk once it has `min_timed` requests, so a stalled machine
/// cannot stretch a run past its 180-second limit.
Pass run_pass(const Shape& shape, SystemKind system, const Options& options, int round,
              std::uint64_t target, std::uint64_t min_timed, double cap_s, bool traced) {
    Pass pass;
    Book book;
    Arrivals arrivals(options.seed, system, round, shape.rate);
    std::uint64_t next_seq = 1;

    // --- set-up: construction, observers, warm-up ----------------------------
    // (TCP links connect lazily on first send, so the warm-up opens them.)
    const std::int64_t t0 = now_ns();
    const std::vector<int> tids0 = thread_ids();
    const std::unique_ptr<Rig> owned_rig =
        make_rig(shape, system, options.seed, traced && !shape.tcp);
    Rig& rig = *owned_rig;
    const std::vector<int> tids1 = thread_ids();

    // Schedules `count` arrivals after virtual time `from`; returns the
    // instant of the last one. Timed ordinals start at `first_timed`
    // (withheld-request hook; 0 while warming up).
    std::uint64_t first_timed = 0;
    const auto schedule_arrivals = [&](TimePoint from, int count) {
        book.grow(next_seq + static_cast<std::size_t>(count));
        TimePoint at = from;
        for (int i = 0; i < count; ++i) {
            const Arrivals::Next a = arrivals.next();
            at += a.gap;
            const std::uint64_t seq = next_seq++;
            const bool withheld = first_timed != 0 && options.withhold >= 0 &&
                                  seq == first_timed + static_cast<std::uint64_t>(options.withhold);
            rig.schedule(at, [&book, d = rig.d.get(), seq, member = a.member,
                              size = shape.payload, withheld] {
                Bytes payload = make_payload(seq, size);
                book.on_submit(seq);
                if (withheld) return;
                const Tracer::Scope span(tracer(), SpanName::kSubmit, seq);
                d->submit(member, std::move(payload));
            });
        }
        return at;
    };

    {
        const Tracer::Scope span(tracer(), SpanName::kSetup, static_cast<std::uint64_t>(round));
        failsig::deploy::Observers observers;
        observers.delivered = [&book](int member, const Bytes& payload) {
            const Tracer::Scope deliver(tracer(), SpanName::kDeliver);
            book.on_deliver(member, payload);
        };
        rig.d->attach(std::move(observers));
        schedule_arrivals(rig.now(), shape.warmup);
        rig.run();
    }
    pass.setup_s = 1e-9 * static_cast<double>(now_ns() - t0);
    // The reactor is born in make_deployment, the executors at the first run.
    const std::vector<int> reactor_tids = born_between(tids0, tids1);
    const std::vector<int> executor_tids = born_between(tids1, thread_ids());

    // --- timed window -------------------------------------------------------
    if (traced) tracer().reset();
    first_timed = next_seq;
    const int main_tid = self_tid();
    pass.begin = Counters::read(rig);
    const ProcUsage usage0 = proc_usage();
    const double coord0 = thread_cpu_s(main_tid);
    const double exec0 = threads_cpu_s(executor_tids);
    const double reactor0 = threads_cpu_s(reactor_tids);
    const std::int64_t loop0 = now_ns();
    TimePoint cursor = rig.now();
    while (pass.timed < target) {
        const int count = static_cast<int>(
            std::min<std::uint64_t>(static_cast<std::uint64_t>(shape.chunk), target - pass.timed));
        cursor = schedule_arrivals(cursor, count);
        rig.run_until(cursor);
        pass.timed += static_cast<std::uint64_t>(count);
        if (g_progress_fd >= 0) put_progress(pass.timed);
        if (auto* loop = rig.loop()) pass.max_pending = std::max(pass.max_pending, loop->pending());
        const double elapsed = 1e-9 * static_cast<double>(now_ns() - loop0);
        if (cap_s > 0 && elapsed >= cap_s && pass.timed >= min_timed) break;
    }
    rig.run();  // drain: every timed request reaches quiescence
    pass.loop_s = 1e-9 * static_cast<double>(now_ns() - loop0);
    const ProcUsage usage1 = proc_usage();
    pass.cpu_s = usage1.cpu_s - usage0.cpu_s;
    pass.ctx = static_cast<double>(usage1.ctx_switches - usage0.ctx_switches);
    pass.coordinator_cpu_s = thread_cpu_s(main_tid) - coord0;
    pass.executor_cpu_s = threads_cpu_s(executor_tids) - exec0;
    pass.reactor_cpu_s = threads_cpu_s(reactor_tids) - reactor0;
    pass.end = Counters::read(rig);

    // --- checks and latency -------------------------------------------------
    std::vector<double> latencies;
    latencies.reserve(static_cast<std::size_t>(pass.timed) * kMembers);
    std::int64_t last_delivery = 0;
    const std::int64_t first_submit = book.submitted_at(first_timed);
    for (std::uint64_t seq = first_timed; seq < next_seq; ++seq) {
        if (!book.delivered_everywhere(seq)) {
            ++pass.failed;
            continue;
        }
        ++pass.complete;
        for (int m = 0; m < kMembers; ++m) {
            const std::int64_t at = book.delivered_at(seq, m);
            last_delivery = std::max(last_delivery, at);
            latencies.push_back(1e-6 * static_cast<double>(at - book.submitted_at(seq)));
        }
    }
    pass.samples = latencies.size();
    pass.window_s = 1e-9 * static_cast<double>(last_delivery - first_submit);
    pass.rps = pass.window_s > 0 ? static_cast<double>(pass.complete) / pass.window_s : 0;
    pass.p50_ms = percentile(latencies, 0.50);
    pass.p90_ms = percentile(latencies, 0.90);
    pass.p99_ms = percentile(latencies, 0.99);

    // Total order: every member delivers the fully delivered requests in
    // the same order.
    std::vector<std::uint32_t> reference;
    for (int m = 0; m < kMembers; ++m) {
        std::vector<std::uint32_t> seen;
        for (const std::uint32_t seq : book.order(m)) {
            if (book.delivered_everywhere(seq)) seen.push_back(seq);
        }
        if (m == 0) {
            reference = std::move(seen);
        } else if (seen != reference) {
            pass.problems.push_back(std::string(stack_key(system)) + ": member " +
                                    std::to_string(m) + " delivered in a different order");
        }
    }
    if (book.duplicates() != 0 || book.strays() != 0) {
        pass.problems.push_back(std::string(stack_key(system)) + ": " +
                                std::to_string(book.duplicates()) + " duplicate and " +
                                std::to_string(book.strays()) + " unknown deliveries");
    }
    std::uint64_t applied = 0, digest = 0;
    if (!shape.tcp) {
        // Replicated application state agrees on every member.
        for (int m = 0; m < kMembers; ++m) {
            const auto state = rig.d->app_state_of(m);
            if (!state) {
                pass.problems.push_back(std::string(stack_key(system)) + ": member " +
                                        std::to_string(m) + " has no app state");
                continue;
            }
            if (m == 0) {
                applied = state->applied;
                digest = state->digest;
            } else if (state->applied != applied || state->digest != digest) {
                pass.problems.push_back(std::string(stack_key(system)) + ": member " +
                                        std::to_string(m) + " app state " + state->detail +
                                        " differs from member 0");
            }
        }
    }
    const Counters& e = pass.end;
    pass.fingerprint = {e.msgs,
                        e.delivered,
                        e.bytes,
                        e.copied,
                        e.bodies,
                        e.events,
                        e.verify_ops,
                        e.verify_hits,
                        e.batch.requests_submitted,
                        e.batch.batches_formed,
                        e.batch.flushes_on_deadline,
                        e.recovery.checkpoints_taken,
                        e.recovery.log_slots_retained,
                        applied,
                        digest,
                        pass.complete};
    return pass;
}

double per(double value, std::uint64_t requests) {
    return requests == 0 ? 0.0 : value / static_cast<double>(requests);
}

void add_layer_metrics(RunResult& out, SystemKind system, const Pass& base, const Pass& traced) {
    const std::string s = stack_key(system);
    const std::uint64_t n = base.timed;
    const Counters& b = base.begin;
    const Counters& e = base.end;
    out.add(s + ".latency_samples", static_cast<double>(base.samples), "count");
    out.add(s + ".p99_ms", base.p99_ms, "ms");
    out.add(s + ".deploy.cpu_ms_per_req", per(1e3 * base.cpu_s, n), "ms");
    out.add(s + ".deploy.cpu_util", base.loop_s > 0 ? base.cpu_s / base.loop_s : 0, "cores");
    out.add(s + ".deploy.ctx_switches_per_req", per(base.ctx, n), "count");
    out.add(s + ".deploy.coordinator_cpu_ms_per_req", per(1e3 * base.coordinator_cpu_s, n), "ms");
    out.add(s + ".deploy.executor_cpu_ms_per_req", per(1e3 * base.executor_cpu_s, n), "ms");
    out.add(s + ".net.reactor_cpu_ms_per_req", per(1e3 * base.reactor_cpu_s, n), "ms");
    out.add(s + ".net.msgs_per_req", per(static_cast<double>(e.msgs - b.msgs), n), "count");
    out.add(s + ".net.bytes_per_req", per(static_cast<double>(e.bytes - b.bytes), n), "B");
    out.add(s + ".net.copied_bytes_per_req", per(static_cast<double>(e.copied - b.copied), n),
            "B");
    out.add(s + ".sim.events_per_req", per(static_cast<double>(e.events - b.events), n), "count");
    const BatchStats batch{e.batch.requests_submitted - b.batch.requests_submitted,
                           e.batch.requests_batched - b.batch.requests_batched,
                           e.batch.batches_formed - b.batch.batches_formed,
                           e.batch.flushes_on_size - b.batch.flushes_on_size,
                           e.batch.flushes_on_deadline - b.batch.flushes_on_deadline};
    // Batching off = passthrough: every request is its own ordering round.
    out.add(s + ".batch.reqs_per_round",
            batch.batches_formed == 0
                ? 1.0
                : static_cast<double>(batch.requests_batched) /
                      static_cast<double>(batch.batches_formed),
            "count");
    const std::uint64_t flushes = batch.flushes_on_size + batch.flushes_on_deadline;
    out.add(s + ".batch.deadline_flush_ratio",
            flushes == 0 ? 0.0
                         : static_cast<double>(batch.flushes_on_deadline) /
                               static_cast<double>(flushes),
            "ratio");
    out.add(s + ".app.checkpoints_per_kreq",
            per(1e3 * static_cast<double>(e.recovery.checkpoints_taken -
                                          b.recovery.checkpoints_taken),
                n),
            "count");
    if (system == SystemKind::kFsNewTop) {
        const double ops = static_cast<double>(e.verify_ops - b.verify_ops);
        const double hits = static_cast<double>(e.verify_hits - b.verify_hits);
        out.add(s + ".crypto.verifies_per_req", per(ops, n), "count");
        out.add(s + ".crypto.memo_hit_ratio", ops + hits > 0 ? hits / (ops + hits) : 0.0,
                "ratio");
    }
    if (system == SystemKind::kPbft) {
        out.add(s + ".log_high_water", static_cast<double>(e.recovery.log_slots_retained),
                "count");
    }
    // Span-derived numbers come from the traced pass.
    const Tracer& t = tracer();
    const auto mean_ns = [&](SpanName name, bool self) {
        const SpanAggregate& a = t.aggregate(name);
        if (a.count == 0) return 0.0;
        return static_cast<double>(self ? a.self_ns : a.total_ns) / static_cast<double>(a.count);
    };
    out.add(s + ".deploy.submit_us", 1e-3 * mean_ns(SpanName::kSubmit, false), "us");
    out.add(s + ".net.send_ns", mean_ns(SpanName::kSend, true), "ns");
    out.add(s + ".orb.ingress_ns", mean_ns(SpanName::kIngress, true), "ns");
    out.add(s + ".stack.unattributed_us_per_req",
            per(1e-3 * static_cast<double>(t.aggregate(SpanName::kRun).self_ns), traced.timed),
            "us");
}

/// One stack's share of a steady run.
struct StackPart {
    RunResult result;
    bool died{false};  ///< the child crashed, hung or threw
    double setup_s{0}, loop_s{0}, overhead_s{0};
    double cpu_s{0};  ///< process CPU over the timed loop (untraced run)
    std::uint64_t timed{0}, memo_entries{0}, max_pending{0};
};

StackPart run_stack(const Shape& shape, SystemKind system, const Options& options, int round,
                    double budget_s) {
    StackPart part;
    RunResult& out = part.result;
    const std::string s = stack_key(system);
    // Requests worth `seconds` at the stack's typical rate, whole chunks.
    const auto requests_for = [&](double seconds) {
        const double rate = shape.nominal_rps[static_cast<std::size_t>(system)];
        const auto chunks = static_cast<std::uint64_t>(
            std::ceil(rate * seconds / static_cast<double>(shape.chunk)));
        return std::max<std::uint64_t>(chunks, 1) * static_cast<std::uint64_t>(shape.chunk);
    };
    if (!options.trace) {
        // The run's request floor spread over its rounds; a round's p90
        // then still has over forty samples beyond it.
        const std::uint64_t floor = (options.min_requests + kRounds - 1) / kRounds;
        const Pass pass = run_pass(shape, system, options, round,
                                   std::max(requests_for(budget_s), floor), floor, 3 * budget_s,
                                   false);
        part.setup_s = pass.setup_s;
        part.loop_s = pass.loop_s;
        part.cpu_s = pass.cpu_s;
        part.timed = pass.timed;
        out.attempted += pass.timed;
        out.failed += pass.failed;
        for (const auto& p : pass.problems) out.fail_check(p);
        out.add(s + ".rps", pass.rps, "1/s");
        out.add(s + ".p50_ms", pass.p50_ms, "ms");
        out.add(s + ".p90_ms", pass.p90_ms, "ms");
        out.add(s + ".latency_samples", static_cast<double>(pass.samples), "count");
        return part;
    }
    // Traced run: an untraced pass (outside-in readings), then a traced pass
    // over exactly the same requests. A quarter of the request floor gives
    // the per-layer p99 ten (request, member) samples beyond it.
    const std::uint64_t floor = (options.min_requests + 3) / 4;
    tracer().enable(false);
    const Pass base = run_pass(shape, system, options, round,
                               std::max(requests_for(budget_s / 2), floor), floor, 1.5 * budget_s,
                               false);
    tracer().enable(true);
    const Pass traced = run_pass(shape, system, options, round, base.timed, base.timed, 0, true);
    add_layer_metrics(out, system, base, traced);
    tracer().enable(false);
    part.overhead_s = traced.loop_s - base.loop_s;
    for (const Pass* p : {&base, &traced}) {
        out.attempted += p->timed;
        out.failed += p->failed;
        for (const auto& problem : p->problems) out.fail_check(problem);
    }
    const bool same = base.fingerprint == traced.fingerprint;
    if (!shape.tcp && !same) {
        out.fail_check(s + ": traced and untraced deterministic counts differ");
    }
    out.notes.push_back(s + ": deterministic counts " +
                        (shape.tcp ? std::string("not compared on sockets")
                                   : std::string(same ? "equal (traced == untraced)" : "DIFFER")) +
                        ", " + std::to_string(base.timed) + " requests per pass");
    if (system == SystemKind::kFsNewTop) part.memo_entries = base.end.verify_ops;
    part.max_pending = base.max_pending;
    if (!options.trace_out.empty()) tracer().write(options.trace_out + "." + s);
    return part;
}

// --- child-process isolation --------------------------------------------------
//
// Each stack runs in a forked child that reports its StackPart over a pipe
// as text lines. A stack that crashes (or hangs past the deadline) is then
// reported as a failed pass instead of taking the whole run down; the
// requests it had attempted count as failed.

void put_line(int fd, const std::string& line) {
    const std::string text = line + "\n";
    std::size_t done = 0;
    while (done < text.size()) {
        const ssize_t n = ::write(fd, text.data() + done, text.size() - done);
        if (n <= 0) return;
        done += static_cast<std::size_t>(n);
    }
}

std::string num(double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

void write_part(int fd, const StackPart& part) {
    const RunResult& r = part.result;
    for (const Metric& m : r.metrics) {
        put_line(fd, "metric " + m.name + " " + num(m.value) + " " + m.unit);
    }
    for (const std::string& note : r.notes) put_line(fd, "note " + note);
    put_line(fd, std::string("correct ") + (r.correct ? "1" : "0"));
    put_line(fd, "attempted " + std::to_string(r.attempted));
    put_line(fd, "failed " + std::to_string(r.failed));
    put_line(fd, "setup_s " + num(part.setup_s));
    put_line(fd, "loop_s " + num(part.loop_s));
    put_line(fd, "overhead_s " + num(part.overhead_s));
    put_line(fd, "cpu_s " + num(part.cpu_s));
    put_line(fd, "timed " + std::to_string(part.timed));
    put_line(fd, "memo " + std::to_string(part.memo_entries));
    put_line(fd, "pending " + std::to_string(part.max_pending));
    put_line(fd, "done");
}

/// Parses the child's lines; false when the report is incomplete.
bool read_part(const std::string& text, StackPart& part, std::uint64_t& progress) {
    std::istringstream in(text);
    std::string line;
    bool done = false;
    while (std::getline(in, line)) {
        const auto space = line.find(' ');
        const std::string key = line.substr(0, space);
        const std::string rest = space == std::string::npos ? "" : line.substr(space + 1);
        RunResult& r = part.result;
        if (key == "metric") {
            std::istringstream fields(rest);
            Metric m;
            fields >> m.name >> m.value >> m.unit;
            r.metrics.push_back(m);
        } else if (key == "note") {
            r.notes.push_back(rest);
        } else if (key == "correct") {
            r.correct = rest == "1";
        } else if (key == "attempted") {
            r.attempted = std::stoull(rest);
        } else if (key == "failed") {
            r.failed = std::stoull(rest);
        } else if (key == "setup_s") {
            part.setup_s = std::stod(rest);
        } else if (key == "loop_s") {
            part.loop_s = std::stod(rest);
        } else if (key == "overhead_s") {
            part.overhead_s = std::stod(rest);
        } else if (key == "cpu_s") {
            part.cpu_s = std::stod(rest);
        } else if (key == "timed") {
            part.timed = std::stoull(rest);
        } else if (key == "memo") {
            part.memo_entries = std::stoull(rest);
        } else if (key == "pending") {
            part.max_pending = std::stoull(rest);
        } else if (key == "progress") {
            progress = std::stoull(rest);
        } else if (key == "done") {
            done = true;
        }
    }
    return done;
}

StackPart run_stack_isolated(const Shape& shape, SystemKind system, const Options& options,
                             int round, double budget_s) {
    int fds[2];
    ensure_ok(::pipe(fds) == 0, "pipe");
    std::fflush(nullptr);
    const pid_t pid = ::fork();
    ensure_ok(pid >= 0, "fork");
    if (pid == 0) {
        ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the parent
        ::close(fds[0]);
        g_progress_fd = fds[1];
        int code = 0;
        try {
            write_part(fds[1], run_stack(shape, system, options, round, budget_s));
        } catch (const std::exception& e) {
            put_line(fds[1], std::string("note ") + stack_key(system) + ": " + e.what());
            code = 3;
        }
        ::close(fds[1]);
        std::fflush(nullptr);
        ::_exit(code);
    }
    ::close(fds[1]);
    // Read until EOF. The child reports progress after every chunk; one
    // that stays silent for kSilenceMs (a hung stack) is killed.
    constexpr int kSilenceMs = 10000;
    std::string text;
    char buf[4096];
    bool killed = false;
    while (true) {
        pollfd pfd{fds[0], POLLIN, 0};
        const int ready = ::poll(&pfd, 1, kSilenceMs);
        if (ready == 0) {
            ::kill(pid, SIGKILL);
            killed = true;
            break;
        }
        if (ready < 0) {
            if (errno == EINTR) continue;
            break;
        }
        const ssize_t n = ::read(fds[0], buf, sizeof buf);
        if (n <= 0) break;
        text.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fds[0]);
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    StackPart part;
    std::uint64_t progress = 0;
    const bool complete = read_part(text, part, progress);
    if (complete && !killed && WIFEXITED(status) && WEXITSTATUS(status) == 0) return part;

    // The stack died: the requests it had attempted count as failed (at
    // least one operation: a death during set-up loses the pass).
    StackPart failed;
    failed.died = true;
    const std::string how = killed ? std::string("hung (silent for 10 s) and was killed")
                            : WIFSIGNALED(status)
                                ? "crashed with signal " + std::to_string(WTERMSIG(status))
                                : "exited with status " + std::to_string(WEXITSTATUS(status));
    failed.result.attempted = std::max<std::uint64_t>(progress, 1);
    failed.result.failed = failed.result.attempted;
    failed.result.notes = part.result.notes;
    failed.result.notes.push_back("FAILED: " + std::string(stack_key(system)) + ": the stack " +
                                  how + " after " + std::to_string(progress) +
                                  " timed requests");
    return failed;
}

double weight(SystemKind system) { return system == SystemKind::kFsNewTop ? 2.0 : 1.0; }

void merge(RunResult& out, RunResult& part) {
    out.correct = out.correct && part.correct;
    out.attempted += part.attempted;
    out.failed += part.failed;
    for (auto& n : part.notes) out.notes.push_back(std::move(n));
}

double metric(const RunResult& r, const std::string& name) {
    for (const Metric& m : r.metrics) {
        if (m.name == name) return m.value;
    }
    return 0.0;
}

}  // namespace

RunResult run_steady(const Options& options, bool tcp) {
    const Shape shape = shape_of(tcp);
    RunResult out;
    const double stacks = static_cast<double>(std::size(kStacks));

    if (options.trace) {
        double overhead_s = 0;
        ProbeShape probe;
        for (const SystemKind system : kStacks) {
            StackPart part = run_stack_isolated(shape, system, options, 0,
                                                options.seconds * weight(system) / (stacks + 1));
            merge(out, part.result);
            for (auto& m : part.result.metrics) out.metrics.push_back(std::move(m));
            overhead_s += part.overhead_s;
            if (part.memo_entries != 0) probe.memo_entries = part.memo_entries;
            probe.queue_depth = std::max<std::size_t>(probe.queue_depth, part.max_pending);
        }
        out.add("trace.overhead_ms", 1e3 * overhead_s, "ms");
        add_probes(out, probe);
        return out;
    }

    // Rounds: every round runs every stack once, each in a fresh process and
    // deployment with a fresh set-up. A stack's figures are the
    // interquartile mean over its rounds. Interleaving the stacks spreads a
    // slow stretch of the machine over all of them; the trim drops stalled
    // rounds; averaging the rest evens out a process that lands on a slow
    // CPU (per-process speed on a shared host is bimodal, which makes a
    // median of few rounds flip between modes).
    // Each round's times are scaled to the reference host by the host
    // slowdown read just before and just after its child: the shared host's
    // speed drifts up to twofold over minutes, which no choice of rounds
    // within one run can even out.
    // A round's work is sized so that kRounds rounds fill --seconds at the
    // nominal rates; rounds go on until --seconds is spent, so a host
    // faster than nominal averages over more arrival patterns, not longer
    // ones (a round's state, and peak RSS, stay the same size).
    // FS-NewTOP, the slowest stack, gets twice the others' window.
    const auto budget_s = [&](SystemKind system) {
        return options.seconds * weight(system) / ((stacks + 1) * kRounds);
    };
    struct Rounds {
        std::vector<double> rps, p50, p90, setup, cpu_ms_per_req;
        double samples{0}, timed{0};
    };
    std::map<SystemKind, Rounds> rounds;
    std::vector<double> round_ops;  // timed requests per wall second, per round
    std::vector<double> slowdowns{host_slowdown()};
    const std::int64_t begin = now_ns();
    for (int round = 0;
         round < kRounds || 1e-9 * static_cast<double>(now_ns() - begin) < options.seconds;
         ++round) {
        double round_loop = 0;
        double round_timed = 0;
        for (std::size_t k = 0; k < std::size(kStacks); ++k) {
            // Rotate the order so no stack always runs first or last.
            const SystemKind system =
                kStacks[(k + static_cast<std::size_t>(round)) % std::size(kStacks)];
            StackPart part = run_stack_isolated(shape, system, options, round, budget_s(system));
            slowdowns.push_back(host_slowdown());
            const double slowdown = 0.5 * (slowdowns[slowdowns.size() - 2] + slowdowns.back());
            merge(out, part.result);
            if (part.died) continue;  // counted as failed; the round has no figures
            Rounds& r = rounds[system];
            const std::string s = stack_key(system);
            r.rps.push_back(metric(part.result, s + ".rps") * slowdown);
            r.p50.push_back(metric(part.result, s + ".p50_ms") / slowdown);
            r.p90.push_back(metric(part.result, s + ".p90_ms") / slowdown);
            r.setup.push_back(part.setup_s / slowdown);
            r.cpu_ms_per_req.push_back(1e3 * part.cpu_s / static_cast<double>(part.timed));
            r.samples += metric(part.result, s + ".latency_samples");
            r.timed += static_cast<double>(part.timed);
            round_loop += part.loop_s / slowdown;
            round_timed += static_cast<double>(part.timed);
        }
        if (round_loop > 0) round_ops.push_back(round_timed / round_loop);
    }
    double setup_total = 0;
    for (auto& [system, r] : rounds) {
        const std::string s = stack_key(system);
        out.add(s + ".rps", interquartile_mean(r.rps), "1/s");
        out.add(s + ".p50_ms", interquartile_mean(r.p50), "ms");
        out.add(s + ".p90_ms", interquartile_mean(r.p90), "ms");
        setup_total += median(r.setup);
        char line[128];
        std::snprintf(line, sizeof line,
                      "%s: %.0f timed requests, %.0f latency samples over %zu rounds", s.c_str(),
                      r.timed, r.samples, r.rps.size());
        out.notes.push_back(std::string(line) + "; per round (scaled): rps " +
                            min_median_max(r.rps) + ", CPU ms/req (unscaled) " +
                            min_median_max(r.cpu_ms_per_req));
    }
    out.notes.push_back("host slowdown between rounds: " + min_median_max(slowdowns));
    out.add("ops_per_s", interquartile_mean(round_ops), "1/s");
    out.add("setup_s", setup_total, "s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    return out;
}

}  // namespace perfbench
