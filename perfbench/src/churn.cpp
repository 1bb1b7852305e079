// `churn-explore`: explorer episodes with crash -> recover -> rejoin arcs,
// run one at a time on the driver thread through scenario::run_scenario and
// judged by the builtin invariant checkers (no shrinking).
//
// The grammar is the CI churn campaign's (explore_cli --budget smoke
// --churn): n = 4, batching off, 6 messages per member, up to 3 fault
// events, checkpoints every 25 requests, and its pinned explorer seed (7).
// FS-NewTOP and PBFT draw churn arcs; plain NewTOP runs the same grammar
// without them (a crashed NewTOP member is only excluded under the timeout
// suspectors, which the explorer documents as unsound), so all three stacks
// are timed on the recovery-era fault mix. Episode e of a stack is
// generate_episode(config, stack, 4, 1, e).
//
// The episode set is pinned so that the share of violated episodes is the
// same in every run (it includes the two known rejoin defects); --seed
// orders the episodes within each pass. A pass runs every episode of every
// stack; passes repeat until the time budget is spent, and each figure is
// the interquartile mean over passes. Each repeat must reproduce the first run's
// verdicts and trace hashes exactly (episodes are pure functions of their
// inputs). A violated episode run counts as a failed operation, every time
// it runs.
#include <algorithm>
#include <cstdlib>
#include <map>
#include <optional>
#include <random>

#include "explore/explore.hpp"
#include "scenario/runner.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using failsig::explore::ExploreConfig;
using failsig::scenario::Scenario;
using failsig::scenario::ScenarioReport;
using failsig::scenario::SystemKind;

constexpr SystemKind kStacks[] = {SystemKind::kNewTop, SystemKind::kFsNewTop, SystemKind::kPbft};
constexpr int kMembers = 4;
/// The CI churn campaign's explorer seed.
constexpr std::uint64_t kChurnSeed = 7;
/// Explorer episodes per stack: the pinned set (e0-e59).
constexpr int kEpisodes = 60;
/// Episodes whose first run of each stack warms the process up.
constexpr int kWarmupEpisodes = 5;

const char* stack_key(SystemKind system) {
    switch (system) {
        case SystemKind::kNewTop: return "newtop";
        case SystemKind::kFsNewTop: return "fsnewtop";
        case SystemKind::kPbft: return "pbft";
    }
    return "?";
}

ExploreConfig churn_config() {
    ExploreConfig config;
    config.systems.assign(std::begin(kStacks), std::end(kStacks));
    config.group_sizes = {kMembers};
    config.batch_sizes = {1};
    config.episodes_per_cell = kEpisodes;
    config.seed = kChurnSeed;
    config.workload.msgs_per_member = 6;
    config.grammar.max_fault_events = 3;
    config.grammar.churn = true;
    config.shrink = false;
    config.jobs = 1;
    return config;
}

struct Episode {
    SystemKind system;
    Scenario scenario;
};

/// Generates every episode of every stack, stacks interleaved per index.
std::vector<Episode> generate_all(const ExploreConfig& config) {
    std::vector<Episode> episodes;
    for (int e = 0; e < config.episodes_per_cell; ++e) {
        for (const SystemKind system : kStacks) {
            const Tracer::Scope span(tracer(), SpanName::kGenerate, static_cast<std::uint64_t>(e));
            episodes.push_back(
                {system, failsig::explore::generate_episode(config, system, kMembers, 1, e)});
        }
    }
    return episodes;
}

/// What one episode run produced, reduced to what the benchmark checks.
struct Verdict {
    std::uint64_t trace_hash{0};
    std::vector<std::string> failing;  ///< names of failed checkers

    bool operator==(const Verdict&) const = default;
};

Verdict verdict_of(const ScenarioReport& report) {
    Verdict v;
    v.trace_hash = failsig::explore::fnv1a(report.trace.canonical());
    for (const auto& r : report.invariants) {
        if (!r.passed) v.failing.push_back(r.name);
    }
    return v;
}

/// Per-stack accumulation over one or more passes.
struct StackTotals {
    std::vector<double> episode_ms;
    double wall_s{0};
    double cpu_s{0};
    double ctx{0};
    double requests{0};     ///< workload requests submitted in the episodes
    double deliveries{0};   ///< (request, member) delivery pairs
    double msgs{0}, bytes{0}, copied{0};
    double batched{0}, batches{0}, deadline_flushes{0};
    double checkpoints{0};
    double verify_ops{0}, verify_hits{0};
    double events{0};  ///< simulator events fired (count_events)
    std::uint64_t log_high_water{0};
};

struct PassTotals {
    std::map<SystemKind, StackTotals> stacks;
    double wall_s{0};
    std::uint64_t runs{0};
    std::uint64_t violated{0};
    double trace_events{0};
    double rejoins{0}, state_transfers{0};
    std::map<std::string, std::uint64_t> violations;  ///< checker -> failing runs
};

/// Runs every episode once in the order `order`, checking each verdict
/// against `expected` (filled by an episode's first run).
void run_pass(const std::vector<Episode>& episodes, const std::vector<std::size_t>& order,
              std::vector<std::optional<Verdict>>& expected, bool rejudge, PassTotals& totals,
              RunResult& out) {
    const std::int64_t pass0 = now_ns();
    for (const std::size_t i : order) {
        const Episode& ep = episodes[i];
        StackTotals& st = totals.stacks[ep.system];
        const ProcUsage u0 = proc_usage();
        const std::int64_t t0 = now_ns();
        ScenarioReport report;
        {
            const Tracer::Scope span(tracer(), SpanName::kScenario, i);
            report = failsig::scenario::run_scenario(ep.scenario);
        }
        const std::int64_t t1 = now_ns();
        const ProcUsage u1 = proc_usage();
        st.episode_ms.push_back(1e-6 * static_cast<double>(t1 - t0));
        st.wall_s += 1e-9 * static_cast<double>(t1 - t0);
        st.cpu_s += u1.cpu_s - u0.cpu_s;
        st.ctx += static_cast<double>(u1.ctx_switches - u0.ctx_switches);
        const auto& m = report.metrics;
        st.requests += static_cast<double>(m.messages_sent);
        st.deliveries += static_cast<double>(m.observed_deliveries);
        st.msgs += static_cast<double>(m.network_messages);
        st.bytes += static_cast<double>(m.network_bytes);
        st.copied += static_cast<double>(m.payload_bytes_copied);
        st.batched += static_cast<double>(m.requests_batched);
        st.batches += static_cast<double>(m.batches_formed);
        st.deadline_flushes += static_cast<double>(m.flushes_on_deadline);
        st.checkpoints += static_cast<double>(report.recovery.checkpoints_taken);
        st.verify_ops += static_cast<double>(m.verify_ops);
        st.verify_hits += static_cast<double>(m.verify_cache_hits);
        st.log_high_water = std::max(st.log_high_water, report.recovery.log_slots_retained);
        totals.trace_events += static_cast<double>(report.trace.size());
        totals.rejoins += static_cast<double>(report.recovery.rejoins_completed);
        totals.state_transfers += static_cast<double>(report.recovery.state_transfers_served);

        if (rejudge) {
            // Re-time the judging on the episode's own trace; the verdicts
            // must match the ones run_scenario returned.
            std::vector<failsig::scenario::InvariantResult> again;
            {
                const Tracer::Scope span(tracer(), SpanName::kEvaluate, i);
                again = failsig::scenario::evaluate(ep.scenario, report.trace);
            }
            bool same = again.size() == report.invariants.size();
            for (std::size_t k = 0; same && k < again.size(); ++k) {
                same = again[k].name == report.invariants[k].name &&
                       again[k].passed == report.invariants[k].passed;
            }
            if (!same) out.fail_check(ep.scenario.name + ": re-judged verdicts differ");
        }

        Verdict verdict = verdict_of(report);
        ++totals.runs;
        if (!verdict.failing.empty()) {
            ++totals.violated;
            for (const auto& name : verdict.failing) ++totals.violations[name];
        }
        if (!expected[i]) {
            if (!verdict.failing.empty()) {
                out.notes.push_back("violation: " + ep.scenario.name + " — " +
                                    verdict.failing.front());
            }
            expected[i] = std::move(verdict);
        } else if (!(verdict == *expected[i])) {
            out.fail_check(ep.scenario.name + ": a repeat run gave a different trace or verdict");
        }
    }
    totals.wall_s += 1e-9 * static_cast<double>(now_ns() - pass0);
}

/// The `sim.events_fired` gauge of a run_scenario metrics snapshot.
std::uint64_t events_fired(const std::string& metrics_json) {
    const std::string key = "\"sim.events_fired\":";
    const auto at = metrics_json.find(key);
    if (at == std::string::npos) return 0;
    return std::strtoull(metrics_json.c_str() + at + key.size(), nullptr, 10);
}

/// Runs every episode once more with the scenario's observability on, so
/// that run_scenario reports its event loop's fired-event count; the trace
/// and verdicts must stay those of the episode's first run. Untimed.
void count_events(const std::vector<Episode>& episodes,
                  const std::vector<std::optional<Verdict>>& expected, PassTotals& totals,
                  RunResult& out) {
    for (std::size_t i = 0; i < episodes.size(); ++i) {
        Scenario observed = episodes[i].scenario;
        observed.obs.enabled = true;
        const ScenarioReport report = failsig::scenario::run_scenario(observed);
        if (!expected[i] || !(verdict_of(report) == *expected[i])) {
            out.fail_check(observed.name + ": observability changed the trace or verdict");
        }
        totals.stacks[episodes[i].system].events +=
            static_cast<double>(events_fired(report.metrics_json));
    }
}

double per(double value, double base) { return base > 0 ? value / base : 0.0; }

}  // namespace

RunResult run_churn(const Options& options) {
    RunResult out;
    const ExploreConfig config = churn_config();
    tracer().enable(options.trace);  // the traced run also times generation

    // Set-up: generate every episode and warm up on the first few episodes
    // of each stack; repeated, the median is reported. Untraced runs scale
    // every set-up and pass to the reference host by the host slowdown read
    // just before and just after it (see run_steady).
    std::vector<double> slowdowns;
    const auto slowdown_since_last = [&] {
        if (options.trace) return 1.0;
        slowdowns.push_back(host_slowdown());
        return 0.5 * (slowdowns[slowdowns.size() - 2] + slowdowns.back());
    };
    if (!options.trace) slowdowns.push_back(host_slowdown());
    std::vector<Episode> episodes;
    std::vector<double> setups;
    for (int r = 0; r < 3; ++r) {
        const std::int64_t t0 = now_ns();
        const Tracer::Scope span(tracer(), SpanName::kSetup, static_cast<std::uint64_t>(r));
        episodes = generate_all(config);
        const std::size_t warm = std::size(kStacks) * kWarmupEpisodes;
        for (std::size_t i = 0; i < warm && i < episodes.size(); ++i) {
            (void)failsig::scenario::run_scenario(episodes[i].scenario);
        }
        const double setup_s = 1e-9 * static_cast<double>(now_ns() - t0);
        setups.push_back(setup_s / slowdown_since_last());
    }
    // --seed orders the episodes of each pass.
    std::mt19937_64 shuffle(options.seed);
    const auto next_order = [&] {
        std::vector<std::size_t> order(episodes.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        std::shuffle(order.begin(), order.end(), shuffle);
        return order;
    };
    const double generate_us =
        tracer().enabled()
            ? 1e-3 * static_cast<double>(tracer().aggregate(SpanName::kGenerate).total_ns) /
                  static_cast<double>(std::max<std::uint64_t>(
                      tracer().aggregate(SpanName::kGenerate).count, 1))
            : 0.0;

    std::vector<std::optional<Verdict>> expected(episodes.size());
    PassTotals totals;
    if (!options.trace) {
        // Timed passes until the budget is spent (at least one).
        std::map<SystemKind, std::vector<double>> rps, p50, p90;
        std::vector<double> ops;
        const std::int64_t begin = now_ns();
        do {
            PassTotals pass;
            run_pass(episodes, next_order(), expected, false, pass, out);
            const double slowdown = slowdown_since_last();
            for (auto& [system, st] : pass.stacks) {
                rps[system].push_back(per(st.deliveries / kMembers, st.wall_s) * slowdown);
                p50[system].push_back(percentile(st.episode_ms, 0.50) / slowdown);
                p90[system].push_back(percentile(st.episode_ms, 0.90) / slowdown);
            }
            ops.push_back(per(static_cast<double>(pass.runs), pass.wall_s) * slowdown);
            out.attempted += pass.runs;
            out.failed += pass.violated;
        } while (1e-9 * static_cast<double>(now_ns() - begin) < options.seconds);
        for (const SystemKind system : kStacks) {
            const std::string s = stack_key(system);
            out.add(s + ".rps", interquartile_mean(rps[system]), "1/s");
            out.add(s + ".p50_ms", interquartile_mean(p50[system]), "ms");
            out.add(s + ".p90_ms", interquartile_mean(p90[system]), "ms");
        }
        out.add("ops_per_s", interquartile_mean(ops), "1/s");
        out.add("setup_s", median(setups), "s");
        out.add("peak_rss_mb", peak_rss_mb(), "MB");
        out.notes.push_back(std::to_string(episodes.size()) + " episodes per pass, " +
                            std::to_string(ops.size()) + " passes, " +
                            std::to_string(out.attempted) + " runs timed, " +
                            std::to_string(out.failed) + " violated");
        out.notes.push_back("host slowdown between passes: " + min_median_max(slowdowns));
        return out;
    }
    {
        // One untraced pass, then one traced pass with re-judging.
        tracer().enable(false);
        PassTotals base;
        run_pass(episodes, next_order(), expected, false, base, out);
        tracer().enable(true);
        tracer().reset();
        run_pass(episodes, next_order(), expected, true, totals, out);
        tracer().enable(false);
        out.attempted += base.runs;
        out.failed += base.violated;
        out.add("trace.overhead_ms", 1e3 * (totals.wall_s - base.wall_s), "ms");
        totals.stacks.swap(base.stacks);  // outside-in readings from the untraced pass
    }
    count_events(episodes, expected, totals, out);
    out.attempted += totals.runs;
    out.failed += totals.violated;
    const double runs = static_cast<double>(totals.runs);
    out.notes.push_back(std::to_string(episodes.size()) + " episodes per pass, " +
                        std::to_string(totals.runs) + " runs traced, " +
                        std::to_string(totals.violated) + " violated");

    for (const SystemKind system : kStacks) {
        StackTotals& st = totals.stacks[system];
        const std::string s = stack_key(system);
        const double n = st.requests;
        out.add(s + ".latency_samples", static_cast<double>(st.episode_ms.size()), "count");
        out.add(s + ".p99_ms", percentile(st.episode_ms, 0.99), "ms");
        out.add(s + ".deploy.cpu_ms_per_req", per(1e3 * st.cpu_s, n), "ms");
        out.add(s + ".deploy.cpu_util", per(st.cpu_s, st.wall_s), "cores");
        out.add(s + ".deploy.ctx_switches_per_req", per(st.ctx, n), "count");
        // Episodes run on the driver thread: all of their CPU is its CPU.
        out.add(s + ".deploy.coordinator_cpu_ms_per_req", per(1e3 * st.cpu_s, n), "ms");
        out.add(s + ".net.msgs_per_req", per(st.msgs, n), "count");
        out.add(s + ".net.bytes_per_req", per(st.bytes, n), "B");
        out.add(s + ".net.copied_bytes_per_req", per(st.copied, n), "B");
        out.add(s + ".sim.events_per_req", per(st.events, n), "count");
        out.add(s + ".batch.reqs_per_round", st.batches > 0 ? st.batched / st.batches : 1.0,
                "count");
        out.add(s + ".batch.deadline_flush_ratio", per(st.deadline_flushes, st.batches), "ratio");
        out.add(s + ".app.checkpoints_per_kreq", per(1e3 * st.checkpoints, n), "count");
        // No child spans inside run_scenario: its whole wall time is
        // unattributed from outside.
        out.add(s + ".stack.unattributed_us_per_req", per(1e6 * st.wall_s, n), "us");
        if (system == SystemKind::kFsNewTop) {
            out.add(s + ".crypto.verifies_per_req", per(st.verify_ops, n), "count");
            out.add(s + ".crypto.memo_hit_ratio",
                    per(st.verify_hits, st.verify_ops + st.verify_hits), "ratio");
        }
        if (system == SystemKind::kPbft) {
            out.add(s + ".log_high_water", static_cast<double>(st.log_high_water), "count");
        }
    }
    const Tracer& t = tracer();
    const auto mean_ms = [&](SpanName name) {
        const SpanAggregate& a = t.aggregate(name);
        return a.count == 0 ? 0.0
                            : 1e-6 * static_cast<double>(a.total_ns) / static_cast<double>(a.count);
    };
    out.add("explore.generate_us", generate_us, "us");
    out.add("scenario.run_ms", mean_ms(SpanName::kScenario), "ms");
    out.add("scenario.evaluate_ms", mean_ms(SpanName::kEvaluate), "ms");
    out.add("scenario.trace_events", per(totals.trace_events, runs), "count");
    out.add("recovery.rejoins_per_episode", per(totals.rejoins, runs), "count");
    out.add("recovery.state_transfers_per_episode", per(totals.state_transfers, runs), "count");
    for (const auto& checker : failsig::scenario::builtin_invariants()) {
        const auto it = totals.violations.find(checker->name());
        out.add("scenario.violations." + checker->name(),
                it == totals.violations.end() ? 0.0 : static_cast<double>(it->second), "count");
    }
    add_probes(out, ProbeShape{});
    return out;
}

}  // namespace perfbench
