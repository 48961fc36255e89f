"""What run.py and compare.py share: the benchmark's definition as
BENCHMARK.json gives it, and the facts about its workloads that the JSON
file has no place for.

BENCHMARK.json sits at the repository root, one level above this
directory; metric names, units, bounds and the run length are read from
it and nowhere else.
"""

import json
import os

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SOURCE_ROOT = os.path.dirname(BENCH_DIR)
BENCHMARK_JSON = os.path.join(SOURCE_ROOT, "BENCHMARK.json")

# The workloads perfbench implements. Every one reports every end-to-end
# metric of BENCHMARK.json, and every per-layer metric in a traced run.
WORKLOADS = ("summarize", "serve-personalized", "serve-sharded")

# Per-layer counters that must repeat bit for bit across traced runs of one
# seed and one binary.
COUNTERS = (
    "core.iterations", "core.merge_evaluations", "core.merges",
    "core.superedges_dropped", "core.psb_bytes", "shard.frame_bytes",
    "shard.fanout", "serve.cache_hits", "serve.cache_computations",
    "serve.cache_hit_ratio",
)

# Set-up time is compared by its median only: set-up runs a few times per
# run, so its spread across runs is not held to the metric's bound.
MEDIAN_ONLY = ("setup_s",)


def load(path=BENCHMARK_JSON):
    """BENCHMARK.json as a dict; raises OSError/ValueError when absent or
    malformed."""
    with open(path) as f:
        spec = json.load(f)
    workloads = {w["name"] for w in spec["workloads"]}
    if workloads != set(WORKLOADS):
        raise ValueError("BENCHMARK.json names workloads %s, perfbench "
                         "knows %s" % (sorted(workloads), sorted(WORKLOADS)))
    return spec
