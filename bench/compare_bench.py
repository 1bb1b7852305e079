#!/usr/bin/env python3
"""Gate the perf-regression bench on its deterministic counters.

Usage: compare_bench.py CURRENT.json BASELINE.json

Diffs a failsig-bench-v1 report produced by `bench_perf_regression` against a
checked-in baseline and exits non-zero on any counter regression:

* Counters (integers, booleans, strings — payload copies, body encodes,
  verify ops / cache hits, network message/byte totals, batching counters,
  invariant verdicts) must match the baseline EXACTLY. They are pure
  functions of (mode, seed) on the deterministic simulator, so any change is
  a real behaviour change: either a regression, or an intended improvement
  that must be accompanied by a refreshed baseline in the same PR
  (regenerate with `bench_perf_regression --smoke --out <baseline>`).
* Simulated-time floats (mean_latency_ms, throughput_msg_s, ratios, ...)
  must match within a tiny relative tolerance — they derive from the same
  deterministic counters.
* Wall-clock / host-speed fields (wall_ms, *_ops_s, envelope_verify_cold_ms)
  are machine-dependent and only REPORTED, never gated.
* The batching section's amortization ratios are additionally held to the
  acceptance floors: verify_ops_ratio_b1_over_b8 >= 4 and
  delivered_per_round_ratio_b8_over_b1 >= 2.

Stdlib only; runs anywhere Python 3.8+ exists.
"""

import json
import sys

# Machine-dependent fields: informational, never gated.
TIMING_KEYS = {
    "wall_ms",
    "rsa_sign_ops_s",
    "rsa_verify_ops_s",
    "link_mac_tag_ops_s",
    "link_mac_verify_ops_s",
    "envelope_verify_cold_ms",
    "envelope_verify_memo_ops_s",
    "envelope_chain12_sign_ops_s",
    "envelope_verify_memo_8k_ops_s",
    "envelope_sign_8k_ops_s",
    # The SHA-256 kernel's 1 KiB hash rate; which kernel ran (sha256_kernel)
    # is machine-dependent too and stays out of the gated baseline.
    "sha256_1k_ops_s",
    # The obs section's disabled/enabled wall-clock pair: what tracing costs
    # on a real machine is informational; the gated obs facts are the
    # trace-identical bool and the span-stage counters.
    "wall_ms_obs_off",
    "wall_ms_obs_on",
    # The tcp_wallclock section's real-socket numbers: throughput and latency
    # on localhost TCP depend on the machine and the thread interleaving.
    # The gated facts in that section are the offered/delivered counts.
    "wall_throughput_msg_s",
    "wall_ms_per_delivery",
}

# Floors the batching section must clear regardless of the baseline (the
# PR-4 acceptance criteria; see ISSUE/EXPERIMENTS.md).
THRESHOLDS = {
    ("batching", "verify_ops_ratio_b1_over_b8"): 4.0,
    ("batching", "delivered_per_round_ratio_b8_over_b1"): 2.0,
}

FLOAT_REL_TOL = 1e-6


def fmt_path(path):
    return "/".join(str(p) for p in path) or "<root>"


def refresh_command(baseline, baseline_path):
    # Full mode is the bench's no-flag default; only smoke has a flag.
    mode_flag = "--smoke " if baseline.get("mode", "smoke") == "smoke" else ""
    return (f"bench_perf_regression {mode_flag}--seed {baseline.get('seed', 42)} "
            f"--out {baseline_path}")


class Comparison:
    def __init__(self):
        self.failures = []
        self.notes = []

    def fail(self, path, message):
        self.failures.append(f"{fmt_path(path)}: {message}")

    def note(self, path, message):
        self.notes.append(f"{fmt_path(path)}: {message}")

    def compare(self, path, current, baseline):
        if isinstance(baseline, dict):
            if not isinstance(current, dict):
                self.fail(path, f"expected object, got {type(current).__name__}")
                return
            for key, base_value in baseline.items():
                if key not in current:
                    self.fail(path + [key], "counter missing from current report")
                    continue
                self.compare(path + [key], current[key], base_value)
            for key in current.keys() - baseline.keys():
                self.note(path + [key], "new field (not in baseline; not gated)")
        elif isinstance(baseline, list):
            if not isinstance(current, list):
                self.fail(path, f"expected array, got {type(current).__name__}")
                return
            self.compare_lists(path, current, baseline)
        else:
            self.compare_leaf(path, current, baseline)

    def compare_lists(self, path, current, baseline):
        # Arrays of named objects (sweep cells, batching cells) are matched
        # by name so reordering or appending cells never misreports drift in
        # unrelated cells; anything else is matched by index.
        by_name = all(isinstance(x, dict) and "name" in x for x in baseline)
        if by_name:
            current_by_name = {
                x["name"]: x for x in current if isinstance(x, dict) and "name" in x
            }
            for cell in baseline:
                name = cell["name"]
                if name not in current_by_name:
                    self.fail(path + [name], "cell missing from current report")
                    continue
                self.compare(path + [name], current_by_name[name], cell)
            for name in current_by_name.keys() - {c["name"] for c in baseline}:
                self.note(path + [name], "new cell (not in baseline; not gated)")
            return
        if len(current) != len(baseline):
            self.fail(path, f"array length {len(current)} != baseline {len(baseline)}")
            return
        for i, (cur, base) in enumerate(zip(current, baseline)):
            self.compare(path + [i], cur, base)

    def compare_leaf(self, path, current, baseline):
        key = str(path[-1]) if path else ""
        if key in TIMING_KEYS:
            if (
                isinstance(baseline, (int, float))
                and isinstance(current, (int, float))
                and baseline
            ):
                drift = (current - baseline) / baseline * 100.0
                self.note(path, f"timing {current:g} vs baseline {baseline:g} "
                                f"({drift:+.1f}%, informational)")
            return
        # bool is an int subtype in Python: check it first.
        if isinstance(baseline, bool) or isinstance(current, bool):
            if current is not baseline:
                self.fail(path, f"{current} != baseline {baseline}")
        elif isinstance(baseline, float) or isinstance(current, float):
            denom = max(abs(baseline), abs(current), 1e-12)
            if abs(current - baseline) / denom > FLOAT_REL_TOL:
                self.fail(path, f"{current!r} != baseline {baseline!r} "
                                f"(beyond {FLOAT_REL_TOL} relative)")
        elif current != baseline:
            self.fail(path, f"{current!r} != baseline {baseline!r}")


def check_thresholds(comparison, current):
    for (section, field), floor in THRESHOLDS.items():
        value = current.get(section, {}).get(field)
        if value is None:
            comparison.fail([section, field], "threshold field missing")
        elif not value >= floor:
            comparison.fail([section, field], f"{value:g} below acceptance floor {floor:g}")
        else:
            comparison.note([section, field], f"{value:g} >= floor {floor:g}")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    current_path, baseline_path = argv[1], argv[2]
    with open(current_path) as f:
        current = json.load(f)
    with open(baseline_path) as f:
        baseline = json.load(f)

    comparison = Comparison()
    for doc, which in ((current, current_path), (baseline, baseline_path)):
        if doc.get("format") != "failsig-bench-v1":
            print(f"error: {which} is not a failsig-bench-v1 report", file=sys.stderr)
            return 2
    for key in ("mode", "seed"):
        if current.get(key) != baseline.get(key):
            print(
                f"error: {key} mismatch (current {current.get(key)!r} vs baseline "
                f"{baseline.get(key)!r}); regenerate the baseline with the same flags:\n"
                f"  {refresh_command(baseline, baseline_path)}",
                file=sys.stderr,
            )
            return 2

    # "pr" is the provenance label of the run that produced each file; it is
    # expected to differ between a PR's run and an older baseline.
    baseline_gated = {k: v for k, v in baseline.items() if k != "pr"}
    comparison.compare([], {k: v for k, v in current.items() if k != "pr"}, baseline_gated)
    check_thresholds(comparison, current)

    for note in comparison.notes:
        print(f"note: {note}")
    if comparison.failures:
        print(f"\nFAIL: {len(comparison.failures)} counter regression(s) vs {baseline_path}:")
        for failure in comparison.failures:
            print(f"  {failure}")
        print(
            "\nIf this change is intended, refresh the baseline in the same PR:\n"
            f"  {refresh_command(baseline, baseline_path)}"
        )
        return 1
    print(f"OK: all gated counters match {baseline_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
