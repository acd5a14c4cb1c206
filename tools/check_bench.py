#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh BENCH_service.json against the
committed baseline and fail on significant throughput regressions.

Usage:
    check_bench.py FRESH BASELINE [--max-regression=0.25]

Both files are flat JSON objects of numeric members (what
harness::UpdateBenchJson writes). Only the GATED keys fail the build —
higher-is-better throughput series whose fresh value may not fall more
than --max-regression below the baseline. Every other key shared by the
two files is reported informationally. A gated key missing from the fresh
file fails (the bench stopped emitting it); one missing from the baseline
only warns (a new metric — land it in the baseline with the next update).

Update the baseline by copying the release-bench job's BENCH_service.json
artifact over BENCH_baseline.json in a PR that justifies the new numbers.
"""

import json
import sys

# Higher-is-better series the gate enforces.
GATED = [
    "wfit_auto_stmts_per_min",
    "tenants_aggregate_stmts_per_min",
    "net_rpc_round_trips_per_sec",
    "cluster_two_node_stmts_per_min",
]

# Lower-is-better series: the fresh value may not rise more than
# --max-regression above the baseline.
GATED_LOWER = [
    "migration_handoff_ms",
    "failover_takeover_ms",
    "qos_light_tenant_p99_ms",
]

# Absolute ceilings, enforced against the fresh value alone (no baseline
# needed). tracing_overhead_pct: runtime-enabled tracing may cost at most
# this percentage of single-threaded replay wall time.
GATED_ABSOLUTE_MAX = {
    "tracing_overhead_pct": 5.0,
}


def load(path):
    try:
        with open(path) as f:
            data = json.load(f)
    except (OSError, ValueError) as e:
        sys.exit(f"check_bench: cannot read {path}: {e}")
    if not isinstance(data, dict):
        sys.exit(f"check_bench: {path} is not a flat JSON object")
    return {k: v for k, v in data.items() if isinstance(v, (int, float))}


def main(argv):
    args = [a for a in argv[1:] if not a.startswith("--")]
    opts = [a for a in argv[1:] if a.startswith("--")]
    if len(args) != 2:
        sys.exit(__doc__)
    max_regression = 0.25
    for opt in opts:
        if opt.startswith("--max-regression="):
            max_regression = float(opt.split("=", 1)[1])
        else:
            sys.exit(f"check_bench: unknown option {opt}")

    fresh = load(args[0])
    baseline = load(args[1])
    failures = []

    print(f"bench-regression gate (max regression {max_regression:.0%})")
    for key in GATED + GATED_LOWER:
        lower_is_better = key in GATED_LOWER
        if key not in baseline:
            print(f"  WARN  {key}: not in baseline (new metric?)")
            continue
        if key not in fresh:
            failures.append(f"{key}: missing from fresh results")
            print(f"  FAIL  {key}: missing from fresh results")
            continue
        base, now = baseline[key], fresh[key]
        if base <= 0:
            print(f"  WARN  {key}: non-positive baseline {base}")
            continue
        change = (now - base) / base
        regressed = (
            change > max_regression if lower_is_better
            else change < -max_regression
        )
        verdict = "ok"
        if regressed:
            verdict = "FAIL"
            failures.append(
                f"{key}: {now:.0f} vs baseline {base:.0f} ({change:+.1%})"
            )
        print(f"  {verdict:4}  {key}: {now:.0f} vs {base:.0f} ({change:+.1%})")

    for key, bound in GATED_ABSOLUTE_MAX.items():
        if key not in fresh:
            failures.append(f"{key}: missing from fresh results")
            print(f"  FAIL  {key}: missing from fresh results")
            continue
        now = fresh[key]
        if now > bound:
            failures.append(f"{key}: {now:.2f} exceeds absolute bound {bound}")
            print(f"  FAIL  {key}: {now:.2f} > {bound} (absolute bound)")
        else:
            print(f"  ok    {key}: {now:.2f} <= {bound} (absolute bound)")

    informational = sorted(
        k for k in fresh.keys() & baseline.keys()
        if k not in GATED and k not in GATED_LOWER
        and k not in GATED_ABSOLUTE_MAX
    )
    if informational:
        print("informational drift:")
        for key in informational:
            base, now = baseline[key], fresh[key]
            if base:
                change = (now - base) / base
            else:
                change = 0.0 if now == base else float("inf")
            print(f"        {key}: {now:g} vs {base:g} ({change:+.1%})")

    if failures:
        print("\nFAILED:", "; ".join(failures))
        return 1
    print("\nPASS: no gated regression")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
