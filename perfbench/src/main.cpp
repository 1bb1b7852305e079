// Wall-clock benchmark driver for the three protocol stacks.
//
//   perfbench --workload tcp-small|sim-batched-1k|churn-explore --seed N
//             --seconds S --trace 0|1
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (see perfbench/NOTES.md). Human-readable notes go first; the last line of
// stdout is one JSON object {correct, attempted, failed, metrics}. Every
// workload reports every metric of its mode: a layer a workload does not
// exercise reads 0.
//
// Test hooks (not used by the benchmark command): --min-requests N,
// --withhold K, --list-metrics.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "scenario/invariants.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr const char* kStacks[] = {"newtop", "fsnewtop", "pbft"};

struct Spec {
    std::string name;
    std::string unit;
};

std::vector<Spec> end_to_end_metrics() {
    std::vector<Spec> specs;
    for (const char* s : kStacks) {
        specs.push_back({std::string(s) + ".rps", "1/s"});
        specs.push_back({std::string(s) + ".p50_ms", "ms"});
        specs.push_back({std::string(s) + ".p90_ms", "ms"});
    }
    specs.push_back({"ops_per_s", "1/s"});
    specs.push_back({"setup_s", "s"});
    specs.push_back({"peak_rss_mb", "MB"});
    return specs;
}

std::vector<Spec> per_layer_metrics() {
    std::vector<Spec> specs;
    for (const char* s : kStacks) {
        const std::string p = s;
        for (const Spec& row : std::vector<Spec>{
                 {".latency_samples", "count"},
                 {".p99_ms", "ms"},
                 {".deploy.cpu_ms_per_req", "ms"},
                 {".deploy.cpu_util", "cores"},
                 {".deploy.ctx_switches_per_req", "count"},
                 {".deploy.coordinator_cpu_ms_per_req", "ms"},
                 {".deploy.executor_cpu_ms_per_req", "ms"},
                 {".deploy.submit_us", "us"},
                 {".net.reactor_cpu_ms_per_req", "ms"},
                 {".net.msgs_per_req", "count"},
                 {".net.bytes_per_req", "B"},
                 {".net.copied_bytes_per_req", "B"},
                 {".net.send_ns", "ns"},
                 {".orb.ingress_ns", "ns"},
                 {".sim.events_per_req", "count"},
                 {".stack.unattributed_us_per_req", "us"},
                 {".batch.reqs_per_round", "count"},
                 {".batch.deadline_flush_ratio", "ratio"},
                 {".app.checkpoints_per_kreq", "count"},
             }) {
            specs.push_back({p + row.name, row.unit});
        }
    }
    specs.push_back({"fsnewtop.crypto.verifies_per_req", "count"});
    specs.push_back({"fsnewtop.crypto.memo_hit_ratio", "ratio"});
    specs.push_back({"pbft.log_high_water", "count"});
    specs.push_back({"sim.event_ns", "ns"});
    specs.push_back({"crypto.verify_ns.64", "ns"});
    specs.push_back({"crypto.verify_ns.1k", "ns"});
    specs.push_back({"crypto.memo_hit_ns", "ns"});
    specs.push_back({"orb.decode_ns.64", "ns"});
    specs.push_back({"orb.decode_ns.1k", "ns"});
    specs.push_back({"app.apply_ns.1k", "ns"});
    specs.push_back({"explore.generate_us", "us"});
    specs.push_back({"scenario.run_ms", "ms"});
    specs.push_back({"scenario.evaluate_ms", "ms"});
    specs.push_back({"scenario.trace_events", "count"});
    specs.push_back({"recovery.rejoins_per_episode", "count"});
    specs.push_back({"recovery.state_transfers_per_episode", "count"});
    for (const auto& checker : failsig::scenario::builtin_invariants()) {
        specs.push_back({"scenario.violations." + checker->name(), "count"});
    }
    specs.push_back({"host.cpu_steal_frac", "ratio"});
    specs.push_back({"failed_frac", "ratio"});
    specs.push_back({"trace.overhead_ms", "ms"});
    return specs;
}

/// Puts the workload's metrics in canonical order; a layer the workload did
/// not exercise reads 0. A name outside the list or a wrong unit is a bug in
/// the driver and fails the run's checks.
void canonicalize(RunResult& result, const std::vector<Spec>& specs) {
    std::vector<Metric> ordered;
    for (const Spec& spec : specs) {
        double value = 0;
        for (const Metric& m : result.metrics) {
            if (m.name != spec.name) continue;
            if (m.unit != spec.unit) result.fail_check(m.name + " has unit " + m.unit);
            value = m.value;
        }
        ordered.push_back({spec.name, value, spec.unit});
    }
    for (const Metric& m : result.metrics) {
        bool known = false;
        for (const Spec& spec : specs) known = known || spec.name == m.name;
        if (!known) result.fail_check("unlisted metric " + m.name);
    }
    result.metrics = std::move(ordered);
}

int usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload tcp-small|sim-batched-1k|"
                 "churn-explore --seed N --seconds S --trace 0|1\n",
                 why);
    return 2;
}

/// Confines the driver, its stack threads and its children to the CPU it
/// started on. On a shared VM the TCP stacks' six threads spread over
/// several vCPUs are at the mercy of cross-CPU wake-ups and of the
/// hypervisor stealing any one of them; on one CPU the runs measure
/// per-message cost and were both faster and several times steadier
/// (NOTES.md, "One CPU for the bounded figures").
void pin_to_current_cpu() {
    const int cpu = sched_getcpu();
    if (cpu < 0) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    (void)sched_setaffinity(0, sizeof set, &set);
}

/// CPUs this process may run on.
int usable_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 0;
}

bool parse_u64(const char* text, std::uint64_t& out) {
    char* end = nullptr;
    out = std::strtoull(text, &end, 10);
    return end != text && *end == '\0';
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Options options;
    bool list = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-metrics") {
            list = true;
            continue;
        }
        if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
        const char* value = argv[++i];
        std::uint64_t number = 0;
        if (arg == "--workload") {
            options.workload = value;
        } else if (arg == "--seed" && parse_u64(value, number)) {
            options.seed = number;
        } else if (arg == "--seconds") {
            options.seconds = std::atof(value);
            if (!(options.seconds > 0 && options.seconds <= 600)) return usage("bad --seconds");
        } else if (arg == "--trace" &&
                   (std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0)) {
            options.trace = value[0] == '1';
        } else if (arg == "--min-requests" && parse_u64(value, number) && number > 0) {
            options.min_requests = number;
        } else if (arg == "--withhold" && parse_u64(value, number)) {
            options.withhold = static_cast<std::int64_t>(number);
        } else if (arg == "--trace-out") {
            options.trace_out = value;
        } else {
            return usage(("bad argument " + arg + " " + value).c_str());
        }
    }
    if (list) {
        for (const auto& s : end_to_end_metrics()) {
            std::printf("end_to_end %s %s\n", s.name.c_str(), s.unit.c_str());
        }
        for (const auto& s : per_layer_metrics()) {
            std::printf("per_layer %s %s\n", s.name.c_str(), s.unit.c_str());
        }
        return 0;
    }

    // The traced socket run keeps every CPU: its per-layer rows show the
    // stacks' multi-core behaviour (CPU utilization above one core, the
    // slow mode) and the races that one CPU hides. Bounded figures come
    // from the pinned runs.
    const bool multi_core = options.trace && options.workload == "tcp-small";
    if (!multi_core) pin_to_current_cpu();
    RunResult result;
    const HostCpu host0 = host_cpu();
    try {
        if (options.workload == "tcp-small") {
            result = run_steady(options, true);
        } else if (options.workload == "sim-batched-1k") {
            result = run_steady(options, false);
        } else if (options.workload == "churn-explore") {
            result = run_churn(options);
        } else {
            return usage("unknown --workload");
        }
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s failed: %s\n", options.workload.c_str(), e.what());
        return 1;
    }
    if (result.attempted == 0) {
        std::fprintf(stderr, "perfbench: no operation was attempted\n");
        return 1;
    }
    result.notes.push_back("ran on " + std::to_string(usable_cpus()) + " CPU(s)" +
                           (multi_core ? " (traced socket run, not pinned)" : " (pinned)"));
    // Other guests' load on the host shows up as stolen CPU time; the TCP
    // workload's lockstep barrier is the most sensitive to it.
    const double steal = steal_share(host0, host_cpu());
    char line[96];
    std::snprintf(line, sizeof line, "host CPU steal during the run: %.2f%%", 100 * steal);
    result.notes.push_back(line);
    if (options.trace) {
        result.add("host.cpu_steal_frac", steal, "ratio");
        result.add("failed_frac",
                   static_cast<double>(result.failed) / static_cast<double>(result.attempted),
                   "ratio");
        if (!options.trace_out.empty() && tracer().kept() != 0 &&
            !tracer().write(options.trace_out)) {
            result.notes.push_back("could not write spans to " + options.trace_out);
        }
    }
    canonicalize(result, options.trace ? per_layer_metrics() : end_to_end_metrics());
    for (const auto& note : result.notes) std::printf("# %s\n", note.c_str());
    std::printf("%s\n", to_json(result).c_str());
    return 0;
}
