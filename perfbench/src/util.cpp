#include "util.hpp"

#include <dirent.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <set>
#include <sstream>
#include <unordered_map>

namespace perfbench {

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double median(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double interquartile_mean(std::vector<double> values) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t drop = values.size() / 4;
    double sum = 0;
    for (std::size_t i = drop; i < values.size() - drop; ++i) sum += values[i];
    return sum / static_cast<double>(values.size() - 2 * drop);
}

std::string min_median_max(const std::vector<double>& values) {
    char text[96];
    std::snprintf(text, sizeof text, "min %.4g median %.4g max %.4g",
                  *std::min_element(values.begin(), values.end()), median(values),
                  *std::max_element(values.begin(), values.end()));
    return text;
}

double percentile(std::vector<double>& values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = std::ceil(q * static_cast<double>(values.size()));
    const std::size_t index =
        std::min(values.size() - 1, static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
    return values[index];
}

ProcUsage proc_usage() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    ProcUsage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
    u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
    return u;
}

HostCpu host_cpu() {
    std::ifstream in("/proc/stat");
    std::string label;
    in >> label;  // "cpu": user nice system idle iowait irq softirq steal ...
    HostCpu h;
    double value = 0;
    for (int i = 0; i < 8 && in >> value; ++i) {
        h.total += value;
        if (i == 7) h.steal = value;
    }
    return h;
}

double steal_share(const HostCpu& before, const HostCpu& after) {
    const double total = after.total - before.total;
    return total > 0 ? (after.steal - before.steal) / total : 0.0;
}

namespace {

/// One reference computation; returns a value that depends on all of it.
std::uint64_t reference_work() {
    std::uint64_t state = 0x2545f4914f6cdd1dULL;
    std::uint64_t acc = 0;
    std::vector<std::uint8_t> fresh(1024), copy(1024);
    std::vector<std::uint32_t> keys(256);
    std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> table;
    for (int round = 0; round < 96; ++round) {
        for (std::uint8_t& byte : fresh) byte = static_cast<std::uint8_t>(splitmix64(state));
        std::memcpy(copy.data(), fresh.data(), copy.size());
        std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a
        for (const std::uint8_t byte : copy) hash = (hash ^ byte) * 0x100000001b3ULL;
        table[hash & 63].assign(copy.begin(), copy.begin() + 64 + static_cast<long>(hash % 512));
        for (std::uint32_t& key : keys) key = static_cast<std::uint32_t>(splitmix64(state));
        std::sort(keys.begin(), keys.end());
        acc += hash + keys[hash & 255] + table.size();
    }
    return acc;
}

}  // namespace

double reference_ms() {
    static volatile std::uint64_t sink = 0;
    std::vector<double> times;
    for (int i = 0; i < 7; ++i) {
        const std::int64_t t0 = now_ns();
        sink = sink + reference_work();
        times.push_back(1e-6 * static_cast<double>(now_ns() - t0));
    }
    return median(times);
}

double host_slowdown() { return reference_ms() / kReferenceMs; }

double peak_rss_mb() {
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);  // the largest waited-for child
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;  // KiB
}

std::vector<int> thread_ids() {
    std::vector<int> ids;
    DIR* dir = opendir("/proc/self/task");
    if (dir == nullptr) return ids;
    while (const dirent* entry = readdir(dir)) {
        const int id = std::atoi(entry->d_name);
        if (id > 0) ids.push_back(id);
    }
    closedir(dir);
    std::sort(ids.begin(), ids.end());
    return ids;
}

double thread_cpu_s(int tid) {
    const std::string task = "/proc/self/task/" + std::to_string(tid);
    {
        // schedstat's first field is time on CPU in ns; stat only has ticks.
        std::ifstream sched(task + "/schedstat");
        double on_cpu_ns = 0;
        if (sched >> on_cpu_ns) return 1e-9 * on_cpu_ns;
    }
    std::ifstream in(task + "/stat");
    std::string line;
    if (!std::getline(in, line)) return 0.0;
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line (11 and 12 after the ')').
    const auto close = line.rfind(')');
    if (close == std::string::npos) return 0.0;
    std::istringstream rest(line.substr(close + 2));
    std::string field;
    double ticks = 0;
    for (int i = 1; i <= 13 && rest >> field; ++i) {
        if (i == 12 || i == 13) ticks += std::atof(field.c_str());
    }
    return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double threads_cpu_s(const std::vector<int>& tids) {
    double total = 0;
    for (const int tid : tids) total += thread_cpu_s(tid);
    return total;
}

int self_tid() { return static_cast<int>(syscall(SYS_gettid)); }

std::vector<int> born_between(const std::vector<int>& before, const std::vector<int>& after) {
    const std::set<int> old(before.begin(), before.end());
    std::vector<int> born;
    for (const int id : after) {
        if (!old.contains(id)) born.push_back(id);
    }
    return born;
}

// --- tracer ------------------------------------------------------------------

namespace {
std::mutex g_trace_mu;
thread_local Tracer::Scope* t_current = nullptr;
}  // namespace

const char* span_label(SpanName name) {
    switch (name) {
        case SpanName::kSetup: return "setup";
        case SpanName::kRun: return "run";
        case SpanName::kSubmit: return "submit";
        case SpanName::kSend: return "net.send";
        case SpanName::kIngress: return "orb.ingress";
        case SpanName::kDeliver: return "deliver";
        case SpanName::kGenerate: return "explore.generate";
        case SpanName::kScenario: return "scenario.run";
        case SpanName::kEvaluate: return "scenario.evaluate";
        case SpanName::kCount: break;
    }
    return "?";
}

void Tracer::reset() {
    const std::lock_guard<std::mutex> lock(g_trace_mu);
    for (auto& a : aggregates_) a = SpanAggregate{};
    kept_.clear();
}

bool Tracer::write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "# index\tname\tstart_ns\tend_ns\tparent\tid\n");
    const std::int64_t base = kept_.empty() ? 0 : kept_.front().start_ns;
    for (std::size_t i = 0; i < kept_.size(); ++i) {
        const SpanRecord& r = kept_[i];
        std::fprintf(f, "%zu\t%s\t%lld\t%lld\t%d\t%llu\n", i, span_label(r.name),
                     static_cast<long long>(r.start_ns - base),
                     static_cast<long long>(r.end_ns - base), r.parent,
                     static_cast<unsigned long long>(r.id));
    }
    return std::fclose(f) == 0;
}

Tracer::Scope::Scope(Tracer& tracer, SpanName name, std::uint64_t id)
    : tracer_(tracer.enabled_ ? &tracer : nullptr), name_(name), id_(id) {
    if (tracer_ == nullptr) return;
    outer_ = t_current;
    t_current = this;
    {
        const std::lock_guard<std::mutex> lock(g_trace_mu);
        if (tracer_->kept_.size() < kKeep) {
            index_ = static_cast<std::int32_t>(tracer_->kept_.size());
            tracer_->kept_.push_back(
                SpanRecord{0, 0, id_, outer_ != nullptr ? outer_->index_ : -1, name_});
        }
    }
    start_ = now_ns();
}

Tracer::Scope::~Scope() {
    if (tracer_ == nullptr) return;
    const std::int64_t end = now_ns();
    const std::int64_t duration = end - start_;
    t_current = outer_;
    if (outer_ != nullptr) outer_->child_ns_ += duration;
    const std::lock_guard<std::mutex> lock(g_trace_mu);
    SpanAggregate& a = tracer_->aggregates_[static_cast<std::size_t>(name_)];
    ++a.count;
    a.total_ns += duration;
    a.self_ns += duration - child_ns_;
    if (index_ >= 0) {
        tracer_->kept_[static_cast<std::size_t>(index_)].start_ns = start_;
        tracer_->kept_[static_cast<std::size_t>(index_)].end_ns = end;
    }
}

Tracer& tracer() {
    static Tracer instance;
    return instance;
}

// --- output --------------------------------------------------------------------

std::string to_json(const RunResult& result) {
    std::ostringstream out;
    out << "{\"correct\": " << (result.correct ? "true" : "false")
        << ", \"attempted\": " << result.attempted << ", \"failed\": " << result.failed
        << ", \"metrics\": {";
    bool first = true;
    for (const Metric& m : result.metrics) {
        char value[64];
        // Finite numbers only; %.17g keeps every digit the measurement has.
        std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
        out << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << value
            << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    out << "}}";
    return out.str();
}

}  // namespace perfbench
