// Shared plumbing of the wall-clock benchmark driver: clocks, percentile
// math, outside-in process/thread CPU readings, the in-memory span tracer
// and the metric list every workload fills.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
std::int64_t now_ns();

/// Median of `values` (copied; empty -> 0).
double median(std::vector<double> values);

/// Interquartile mean: the mean of `values` without their lowest and
/// highest quarter (empty -> 0).
double interquartile_mean(std::vector<double> values);

/// "min A median B max C" of a non-empty sample, for note lines.
std::string min_median_max(const std::vector<double>& values);

/// The splitmix64 generator: advances `state` and returns the next value.
inline std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Nearest-rank percentile (q in [0,1]) of an unsorted sample; sorts it.
double percentile(std::vector<double>& values, double q);

// --- outside-in resource readings ------------------------------------------

/// Whole-process CPU and context switches (getrusage(RUSAGE_SELF)).
struct ProcUsage {
    double cpu_s{0};
    std::int64_t ctx_switches{0};  ///< voluntary + involuntary
};
ProcUsage proc_usage();

/// Host-wide CPU time (all CPUs, /proc/stat) and the part of it the
/// hypervisor stole for other guests, in clock ticks.
struct HostCpu {
    double total{0};
    double steal{0};
};
HostCpu host_cpu();

/// Share of host CPU time stolen between two readings.
double steal_share(const HostCpu& before, const HostCpu& after);

/// The reference host's time for reference_ms(), measured on the 4-vCPU VM
/// the benchmark was built on while it ran at its fast speed.
inline constexpr double kReferenceMs = 0.9;

/// Wall time in ms of a fixed computation that is the benchmark's own code,
/// not the program's (byte hashing, buffer copies, hash-table updates with
/// allocation, sorting): the median of seven timings on the calling CPU.
/// No change to the program can change its work, so it measures how fast
/// the shared host runs this guest at that moment.
double reference_ms();

/// reference_ms() / kReferenceMs: how many times slower than the reference
/// host this CPU runs right now (1 on the reference host, 2 at half speed).
double host_slowdown();

/// Peak resident set size in MiB of this process or of its largest
/// finished child (the steady workloads run each stack in a child).
double peak_rss_mb();

/// Live thread ids of this process (/proc/self/task).
std::vector<int> thread_ids();

/// CPU seconds (utime + stime) a thread has consumed; 0 once it exited.
double thread_cpu_s(int tid);

/// Sum of thread_cpu_s over `tids`.
double threads_cpu_s(const std::vector<int>& tids);

/// Thread id of the calling thread.
int self_tid();

/// Ids in `after` that are not in `before` (threads born in between).
std::vector<int> born_between(const std::vector<int>& before, const std::vector<int>& after);

// --- span tracer -------------------------------------------------------------

/// Span names. Fixed so aggregation is an array index on the hot path.
enum class SpanName : std::uint8_t {
    kSetup,     ///< deployment construction + warm-up (or episode generation)
    kRun,       ///< one Deployment::run/run_until call (the stack's work)
    kSubmit,    ///< Deployment::submit
    kSend,      ///< Transport::send through the decorating transport
    kIngress,   ///< a bound receive handler: ORB decode + pool enqueue
    kDeliver,   ///< the benchmark's delivery observer
    kGenerate,  ///< explore::generate_episode
    kScenario,  ///< scenario::run_scenario
    kEvaluate,  ///< scenario::evaluate on the episode's trace
    kCount
};
const char* span_label(SpanName name);

struct SpanRecord {
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::uint64_t id;      ///< request seq / episode index / chunk index
    std::int32_t parent;   ///< index into the record buffer, -1 = root / not kept
    SpanName name;
};

struct SpanAggregate {
    std::uint64_t count{0};
    std::int64_t total_ns{0};
    std::int64_t self_ns{0};  ///< duration minus the time direct children cover
};

/// In-memory tracer. Spans nest per thread (a thread-local stack gives each
/// span its parent); every span feeds its name's aggregate, and the first
/// `keep` spans are also kept verbatim and written out at exit. Disabled
/// tracers cost one branch per scope.
class Tracer {
public:
    static constexpr std::size_t kKeep = 200000;

    void enable(bool on) { enabled_ = on; }
    [[nodiscard]] bool enabled() const { return enabled_; }
    void reset();

    [[nodiscard]] const SpanAggregate& aggregate(SpanName name) const {
        return aggregates_[static_cast<std::size_t>(name)];
    }
    [[nodiscard]] std::size_t kept() const { return kept_.size(); }
    /// Writes the kept spans as tab-separated lines; false on I/O error.
    bool write(const std::string& path) const;

    class Scope {
    public:
        Scope(Tracer& tracer, SpanName name, std::uint64_t id = 0);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        Tracer* tracer_;
        SpanName name_;
        std::uint64_t id_;
        std::int64_t start_{0};
        std::int64_t child_ns_{0};
        std::int32_t index_{-1};
        Scope* outer_{nullptr};
    };

private:
    friend class Scope;
    bool enabled_{false};
    SpanAggregate aggregates_[static_cast<std::size_t>(SpanName::kCount)]{};
    std::vector<SpanRecord> kept_;
};

/// The process-wide tracer (the decorating transport and the observers
/// reach it without plumbing).
Tracer& tracer();

// --- metric output -----------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

struct RunResult {
    bool correct{true};
    std::uint64_t attempted{0};
    std::uint64_t failed{0};
    std::vector<Metric> metrics;
    /// Human-readable lines printed before the JSON result.
    std::vector<std::string> notes;

    void add(std::string name, double value, std::string unit) {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
    void fail_check(const std::string& what) {
        correct = false;
        notes.push_back("CHECK FAILED: " + what);
    }
};

/// Renders the one-line result object.
std::string to_json(const RunResult& result);

}  // namespace perfbench
