#!/usr/bin/env python3
"""Compares two sets of perfbench results.

    python3 perfbench/compare.py BASE_DIR NEW_DIR [--benchmark BENCHMARK.json]

Each directory holds the saved standard output of run.py invocations, one
file per run (any file name), for example

    for s in 1 2 3 4 5 6 7 8 9 10; do
      python3 perfbench/run.py --workload summarize --seed $s --seconds 30 \\
          --trace 0 > base/summarize-$s.txt
    done

For every workload and end-to-end metric it prints both medians with their
quartiles, the ratio NEW/BASE (the base is BASE's median), and a verdict
against the metric's bound from BENCHMARK.json:

    worse       NEW's median is worse than BASE's by more than the bound;
    better      NEW's median is better by more than the bound and by more
                than BASE's own quartile spread;
    unresolved  either set's quartile spread exceeds the bound, unless every
                NEW run beats (better) or trails (worse) every BASE run;
    within      none of the above.

setup_s is judged by its medians alone (worse / better / within): set-up
runs a few times per run, and its spread is not held to the bound.

Counts are compared exactly: attempted and failed operations per workload,
and, for traced runs of the same seed in both sets, every deterministic
per-layer counter, as NEW - BASE deltas.
"""

import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import spec  # noqa: E402  (perfbench/spec.py, next to this file)


def load_set(directory):
    """{(workload, trace): [result, ...]} from every run file in a dir."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        meta, result = None, None
        with open(path) as f:
            for line in f:
                line = line.strip()
                if not line.startswith("{"):
                    continue
                record = json.loads(line)
                if "meta" in record:
                    meta = record["meta"]
                elif "metrics" in record:
                    result = record
        if meta is None or result is None:
            print("skipping %s: no run.py output" % path, file=sys.stderr)
            continue
        result["seed"] = meta["seed"]
        result["layers"] = meta.get("layers", {})
        runs.setdefault((meta["workload"], meta["trace"]), []).append(result)
    return runs


def counter(result, name):
    """A traced run's counter, from its per-layer metrics or, for the
    sharded-only ones, from the layer figures of its meta line."""
    if name in result["metrics"]:
        return result["metrics"][name]["value"]
    return result["layers"].get(name)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, new, better, bound, median_only=False):
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    change = sign * (nm - bm) / bm  # > 0: NEW is worse
    if median_only:
        return ("worse" if change > bound else
                "better" if -change > bound else "within")
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    all_worse = all(sign * (n - b) > 0 for n in new for b in base)
    base_spread = (b3 - b1) / abs(bm)
    spread = max(base_spread, (n3 - n1) / abs(nm) if nm else float("inf"))
    if spread > bound and not (all_better or all_worse):
        return "unresolved"
    if change > bound or (spread > bound and all_worse):
        return "worse"
    if (-change > bound and -change > base_spread) or \
            (spread > bound and all_better):
        return "better"
    return "within"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=spec.BENCHMARK_JSON)
    args = parser.parse_args()
    bench = spec.load(args.benchmark)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    base, new = load_set(args.base), load_set(args.new)

    print("%-20s %-20s %12s %22s %12s %22s %8s  %s" % (
        "workload", "metric", "base median", "base q1..q3", "new median",
        "new q1..q3", "new/base", "verdict"))
    for workload in [w["name"] for w in bench["workloads"]]:
        b_runs, n_runs = base.get((workload, 0), []), new.get((workload, 0), [])
        if not b_runs or not n_runs:
            print("%-20s (no untraced runs in both sets)" % workload)
            continue
        for name, m in bounds.items():
            bv = [r["metrics"][name]["value"] for r in b_runs
                  if name in r["metrics"]]
            nv = [r["metrics"][name]["value"] for r in n_runs
                  if name in r["metrics"]]
            if not bv or not nv:
                continue
            b1, bm, b3 = quartiles(bv)
            n1, nm, n3 = quartiles(nv)
            unit = b_runs[0]["metrics"][name]["unit"]
            print("%-20s %-20s %12.6g %22s %12.6g %22s %8.4f  %s (bound %g)"
                  % (workload, name + " " + unit, bm,
                     "%.5g..%.5g" % (b1, b3), nm, "%.5g..%.5g" % (n1, n3),
                     nm / bm if bm else float("nan"),
                     verdict(bv, nv, m["better"], m["bound"],
                             name in spec.MEDIAN_ONLY), m["bound"]))
        for key in ("attempted", "failed"):
            bm = statistics.median([r[key] for r in b_runs])
            nm = statistics.median([r[key] for r in n_runs])
            print("%-20s %-20s %12g %22s %12g %22s %+8g  (exact delta)"
                  % (workload, key + " (median)", bm, "", nm, "", nm - bm))
        b_share = sum(r["failed"] for r in b_runs) / max(
            1, sum(r["attempted"] for r in b_runs))
        n_share = sum(r["failed"] for r in n_runs) / max(
            1, sum(r["attempted"] for r in n_runs))
        print("%-20s %-20s %12.6g %22s %12.6g" % (
            workload, "failed share", b_share, "", n_share))

    # Counters are deterministic per seed: compare runs of the same seed.
    for workload in [w["name"] for w in bench["workloads"]]:
        b_runs = {r["seed"]: r for r in base.get((workload, 1), [])}
        n_runs = {r["seed"]: r for r in new.get((workload, 1), [])}
        seeds = sorted(set(b_runs) & set(n_runs))
        if not seeds:
            continue
        for name in spec.COUNTERS:
            deltas = []
            for seed in seeds:
                b, n = (counter(runs[seed], name)
                        for runs in (b_runs, n_runs))
                if b is not None and n is not None and (b or n):
                    deltas.append((seed, b, n))
            if not deltas:
                continue
            changed = [d for d in deltas if d[1] != d[2]]
            if not changed:
                print("%-20s %-26s unchanged on %d seeds (seed %d: %g)"
                      % (workload, name, len(deltas), deltas[0][0],
                         deltas[0][1]))
            for seed, b, n in changed:
                print("%-20s %-26s seed %d: %g -> %g, delta %+g"
                      % (workload, name, seed, b, n, n - b))


if __name__ == "__main__":
    main()
