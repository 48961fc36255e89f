#!/usr/bin/env python3
"""End-to-end benchmark of PeGaSus: build, set up, measure, check.

Run from the repository root:

    python3 perfbench/run.py --workload summarize --seed 1 --seconds 30 --trace 0

It builds the library and the perfbench binary from source (Release, into
.bench_build/), runs the output-check self-test once per build, sets the
workload up in one process (repeated, so set-up time is a median), measures
it in another, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of the workload, --trace 1 the
per-layer metrics of a traced run. The line before it is {"meta": {...}}:
machine, build and run facts, and the workload's context figures.

    python3 perfbench/run.py --selftest     # only build + self-test
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import spec  # noqa: E402  (perfbench/spec.py, next to this file)

BENCH_DIR = spec.BENCH_DIR
SOURCE_ROOT = spec.SOURCE_ROOT
BUILD_ROOT = os.path.join(os.getcwd(), ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(CMAKE_DIR, "perfbench")

# Set-up repetitions per run; set-up time is their median.
SETUP_REPEATS = {"summarize": 15, "serve-personalized": 7, "serve-sharded": 4}
# Self-test, set-up and measurement together end within this many seconds
# of the build.
MEASURE_BUDGET_S = 170

_children = set()


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def stop(proc):
    """Kills a child's whole process group and reaps the child."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def on_signal(signum, _frame):
    for proc in list(_children):
        stop(proc)
    sys.exit(128 + signum)


def run_child(cmd, timeout, **kwargs):
    """subprocess.run in a process group of its own, so that a timeout or a
    signal to this script stops the child and everything it started."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    _children.add(proc)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        stop(proc)
        raise
    finally:
        _children.discard(proc)
    return subprocess.CompletedProcess(cmd, proc.returncode, out, err)


def captured(cmd, timeout):
    return run_child(cmd, timeout, stdout=subprocess.PIPE,
                     stderr=subprocess.PIPE, text=True)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "w") as log:
        try:
            return run_child(cmd, timeout, stdout=log,
                             stderr=subprocess.STDOUT).returncode
        except (OSError, subprocess.TimeoutExpired) as err:
            log.write("\n%s\n" % err)
            return 1


def log_tail(path, lines=30):
    try:
        with open(path) as f:
            return "".join(f.readlines()[-lines:])
    except OSError:
        return ""


def build():
    """Configures (once) and builds the Release binary; exits on failure."""
    if not os.path.isfile(os.path.join(SOURCE_ROOT, "CMakeLists.txt")):
        fail("no library sources next to %s: run from a full checkout"
             % BENCH_DIR, 2)
    os.makedirs(CMAKE_DIR, exist_ok=True)
    log = os.path.join(BUILD_ROOT, "build.log")
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        code = run_logged(["cmake", "-S", BENCH_DIR, "-B", CMAKE_DIR,
                           "-DCMAKE_BUILD_TYPE=Release"], log, 600)
        if code != 0:
            fail("configure failed:\n" + log_tail(log), 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    code = run_logged(["cmake", "--build", CMAKE_DIR, "--target", "perfbench",
                       "-j", jobs], log, 850)
    if code != 0:
        fail("build failed:\n" + log_tail(log), 2)


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def source_digest():
    """Digest of the library and benchmark sources: identifies the code
    measured when the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        base = os.path.join(SOURCE_ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SOURCE_ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = captured(["git", "-C", SOURCE_ROOT, "rev-parse", "HEAD"], 10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return "unknown"


def binary_info():
    out = captured([BINARY, "info"], 30)
    if out.returncode != 0:
        fail("cannot query the perfbench binary", 2)
    info = json.loads(out.stdout.strip().splitlines()[-1])
    if not info.get("release"):
        fail("refusing to measure a non-Release build (%s)"
             % info.get("build_type"), 3)
    return info


def selftest(deadline, force=False):
    """Runs the output-check self-test once per built binary."""
    marker = os.path.join(BUILD_ROOT, "selftest.ok")
    digest = file_digest(BINARY)
    if not force and os.path.isfile(marker):
        with open(marker) as f:
            if f.read().strip() == digest:
                return
    work = os.path.join(BUILD_ROOT, "selftest")
    os.makedirs(work, exist_ok=True)
    try:
        out = captured([BINARY, "selftest", "--dir", work],
                       max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("output-check self-test timed out", 4)
    print(out.stdout, end="", file=sys.stderr if not force else sys.stdout)
    if out.returncode != 0:
        fail("output-check self-test failed", 4)
    with open(marker, "w") as f:
        f.write(digest + "\n")


def invoke(args, deadline):
    try:
        out = captured([BINARY] + args, max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("'%s' timed out" % " ".join(args[:2]))
    if out.returncode != 0 or not out.stdout.strip():
        fail("'%s' exited with %d:\n%s" % (" ".join(args[:2]),
                                           out.returncode, out.stderr[-3000:]))
    return json.loads(out.stdout.strip().splitlines()[-1])


def check_counters(workload, seed, layers, binary_digest):
    """Deterministic counters must repeat exactly across traced runs of one
    seed and one binary; returns a list of mismatches."""
    store = os.path.join(BUILD_ROOT, "counters")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-%d.json" % (workload, seed))
    counters = {k: layers[k] for k in spec.COUNTERS if k in layers}
    record = {"binary": binary_digest, "counters": counters}
    mismatches = []
    if os.path.isfile(path):
        with open(path) as f:
            previous = json.load(f)
        if previous.get("binary") == binary_digest:
            for key, value in counters.items():
                old = previous["counters"].get(key)
                if old is not None and old != value:
                    mismatches.append("%s: %r then %r" % (key, old, value))
    with open(path, "w") as f:
        json.dump(record, f)
    return mismatches


def main():
    try:
        bench = spec.load()
    except (OSError, ValueError, KeyError) as err:
        fail("cannot read %s: %s" % (spec.BENCHMARK_JSON, err), 2)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the output-check self-test only")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, on_signal)
    build()
    deadline = time.monotonic() + MEASURE_BUDGET_S
    info = binary_info()
    selftest(deadline, force=args.selftest)
    if args.selftest:
        return

    work = os.path.join(BUILD_ROOT, "work", args.workload)
    os.makedirs(work, exist_ok=True)
    for name in os.listdir(work):
        os.remove(os.path.join(work, name))
    common = ["--seed", str(args.seed), "--dir", work]
    setup = invoke(["setup", args.workload] + common +
                   ["--repeats", str(SETUP_REPEATS[args.workload])], deadline)
    run = invoke(["run", args.workload] + common +
                 ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                 deadline)

    correct = setup["correct"] and run["correct"]
    errors = setup["errors"] + run["errors"]
    for message in errors:
        print("perfbench: check failed: " + message, file=sys.stderr)
    context = dict(setup["info"])
    context.update(run["info"])
    setup_s = statistics.median(setup["info"]["setup_s"])
    setup_s += run["info"].get("fleet_start_s", 0.0)

    metrics = {}
    layer_context = {}
    if args.trace == 0:
        values = dict(setup["metrics"])
        values.update(run["metrics"])
        values["setup_s"] = setup_s
        for name, unit in units.items():
            if name not in values:
                fail("the perfbench binary did not report %s" % name)
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        layers = dict(setup["layers"])
        layers.update(run["layers"])
        mismatches = check_counters(args.workload, args.seed, layers,
                                    file_digest(BINARY))
        for m in mismatches:
            correct = False
            print("perfbench: check failed: deterministic counter changed "
                  "between traced runs: " + m, file=sys.stderr)
        for name, unit in per_layer:
            if name not in layers:
                fail("the perfbench binary did not report %s" % name)
            metrics[name] = {"value": layers.pop(name), "unit": unit}
        # Figures of layers only this workload runs (the sharded path's)
        # go with the run's facts.
        layer_context = layers

    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "effective_cores": context.get("effective_cores"),
        "compiler": info["compiler"], "build_type": info["build_type"],
        "commit": commit(), "source_digest": source_digest(),
        "setup_s_each": setup["info"]["setup_s"],
        "context": context,
    }
    if layer_context:
        meta["layers"] = layer_context
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(run["attempted"]),
                      "failed": int(run["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
