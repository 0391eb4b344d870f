#!/usr/bin/env python3
"""Check the checked-in perf trajectory against the benchmark's schema.

    python3 scripts/check-bench-trajectory.py [BENCH_solvebench.json] [BENCHMARK.json]

BENCH_solvebench.json holds one record per perf change: the claim, the
host fingerprint, the protocol, and per workload and metric the parent
and change median, quartiles and wins. The check fails when a record
names a workload or a metric that BENCHMARK.json does not list, when a
field is missing, or when a median lies outside its quartiles.
"""

import json
import sys

RECORD_FIELDS = ("pr", "title", "claim", "host", "protocol", "results")
RESULT_FIELDS = ("workload", "metric", "unit", "parent", "change", "wins")
SIDE_FIELDS = ("median", "q1", "q3")


def check(trajectory, benchmark):
    workloads = {w["name"] for w in benchmark["workloads"]}
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    errors = []
    records = trajectory.get("records")
    if not records:
        return ["no records"]
    for rec in records:
        where = f"record {rec.get('pr', '?')}"
        errors += [f"{where}: missing {f!r}" for f in RECORD_FIELDS if f not in rec]
        named = [(rec.get("claim", {}), f"{where} claim")]
        named += [(r, f"{where} {r.get('workload')}/{r.get('metric')}") for r in rec.get("results", [])]
        for item, at in named:
            if item.get("workload") not in workloads:
                errors.append(f"{at}: workload {item.get('workload')!r} is not in BENCHMARK.json")
            if item.get("metric") not in units:
                errors.append(f"{at}: metric {item.get('metric')!r} is not in BENCHMARK.json")
        for r, at in named[1:]:
            errors += [f"{at}: missing {f!r}" for f in RESULT_FIELDS if f not in r]
            if r.get("metric") in units and r.get("unit") != units[r["metric"]]:
                errors.append(f"{at}: unit {r.get('unit')!r}, BENCHMARK.json says {units[r['metric']]!r}")
            for side in ("parent", "change"):
                s = r.get(side, {})
                if any(f not in s for f in SIDE_FIELDS):
                    errors.append(f"{at}: {side} needs {', '.join(SIDE_FIELDS)}")
                elif not s["q1"] <= s["median"] <= s["q3"]:
                    errors.append(f"{at}: {side} median outside [q1, q3]")
    return errors


def main():
    args = sys.argv[1:] + ["BENCH_solvebench.json", "BENCHMARK.json"][len(sys.argv) - 1:]
    with open(args[0]) as f:
        trajectory = json.load(f)
    with open(args[1]) as f:
        benchmark = json.load(f)
    errors = check(trajectory, benchmark)
    for e in errors:
        print(f"error: {args[0]}: {e}", file=sys.stderr)
    if errors:
        sys.exit(1)
    n = sum(len(r["results"]) for r in trajectory["records"])
    print(f"{args[0]}: {len(trajectory['records'])} records, {n} results, all named in {args[1]}")


if __name__ == "__main__":
    main()
