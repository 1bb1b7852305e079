// The three benchmark workloads. Each drives the library only through its
// public entry points (deploy::make_deployment + Deployment, scenario::
// run_scenario/evaluate, explore::generate_episode) and times it from
// outside.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util.hpp"

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed{1};
    double seconds{10};
    bool trace{false};
    /// Floor on timed requests per stack and run (steady workloads), spread
    /// over the rounds of an untraced run. A traced run times a quarter of
    /// it, so its p99 has ten (request, member) samples beyond it.
    std::uint64_t min_requests{1000};
    /// Test hook: the timed request with this ordinal is counted as
    /// attempted but never submitted (-1 = off), so the checks must report
    /// it as failed.
    std::int64_t withhold{-1};
    /// Where the traced run writes its kept spans ("" = nowhere).
    std::string trace_out;
};

/// `tcp-small` (tcp = true) or `sim-batched-1k`.
RunResult run_steady(const Options& options, bool tcp);

/// `churn-explore`.
RunResult run_churn(const Options& options);

/// Inputs the layer probes take from the run they accompany.
struct ProbeShape {
    /// Verify-memo entries the run accumulated (FS-NewTOP verify ops).
    std::uint64_t memo_entries{4096};
    /// Pending events observed in the run's event queue.
    std::size_t queue_depth{256};
};

/// Times the listed public functions on the workloads' input shapes and
/// appends the probe metrics (traced runs only).
void add_probes(RunResult& result, const ProbeShape& shape);

}  // namespace perfbench
