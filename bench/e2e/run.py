#!/usr/bin/env python3
"""locsim's end-to-end benchmark: the one command that prints every metric.

Each pass is one run of `locsim_bench` (built from this directory's CMake
project into build-e2e/) in a fresh process. It runs one workload, a fixed
batch of simulation jobs. This script runs the passes, checks every result
against the golden digests, and reports each metric's median, quartiles
and sample count. See README.md for the workloads, the metrics and their
bounds.

  python3 bench/e2e/run.py                      # every workload, R = 11 passes
  python3 bench/e2e/run.py --traced             # plus one traced pass each
  python3 bench/e2e/run.py --out set.json       # keep the raw set
  python3 bench/e2e/run.py --compare BASE CUR   # regression check of two sets
  python3 bench/e2e/run.py --smoke              # windows / 10, one pass each
  python3 bench/e2e/run.py --self-test          # compare logic over fixtures
  python3 bench/e2e/run.py --record-golden --seed S
  python3 bench/e2e/run.py --workload W --seed S --seconds T --trace 0|1
      # one benchmark run: passes for T seconds, then one JSON line
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, "build-e2e")
TMP = os.path.join(BUILD, "tmp")
TRACES = os.path.join(BUILD, "traces")
GOLDEN_DIR = os.path.join(HERE, "golden")
FIXTURES = os.path.join(HERE, "fixtures")
DEFAULT_BUILD_TYPE = "RelWithDebInfo"
DEFAULT_SEED = 12345
# Passes per workload in a full set (R). Changing it changes the
# benchmark, and --compare refuses sets with different R.
PASSES = 11
# A benchmark run (--workload) takes at least MIN_RUN_PASSES passes,
# however short --seconds is, so its median never rests on one or two
# samples.
MIN_RUN_PASSES = 3
PASS_TIMEOUT_S = 150


class Metric:
    """A reported metric. `bound` is the share of the base median by which
    it may worsen before it counts as a regression; `floor` is an absolute
    allowance in the metric's unit that applies when it is larger."""

    def __init__(self, name, unit, better, bound=None, floor=0.0,
                 center=statistics.median):
        self.name = name
        self.unit = unit
        self.better = better
        self.bound = bound
        self.floor = floor
        self.center = center

    def allowed(self, base_median):
        return max(self.bound * abs(base_median), self.floor)

    def worsening(self, base, cur):
        return cur - base if self.better == "lower" else base - cur


# BENCHMARK.json holds the workloads, the metrics, their units,
# directions and bounds; run.py adds only what it lacks. The floors let
# --compare tolerate a change too small to matter in the metric's unit
# (a few milliseconds of set-up, a tenth of a point of model error).
with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)
FLOORS = {"setup_s": 0.02, "model_err_pct": 0.1}
# Peak memory is the largest of the passes' peaks. How glibc's
# per-thread malloc arenas fragment depends on the timing of the
# lockstep shard threads, so the same scaling_sweep pass peaks at either
# ~28 or ~32 MB; a median would flip between the two, the largest stays
# on the upper one.
CENTERS = {"peak_rss_mb": max}
RUN_SECONDS = SPEC["run_seconds"]
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
END_TO_END = [Metric(m["name"], m["unit"], m["better"], m["bound"],
                     FLOORS.get(m["name"], 0.0),
                     CENTERS.get(m["name"], statistics.median))
              for m in SPEC["end_to_end"]]
PER_LAYER = [Metric(m["name"], m["unit"], m["better"])
             for m in SPEC["per_layer"]]
# Always 0 on a healthy tree, so it is no contract metric (those must
# never read 0); run sets and --compare carry it, and a benchmark run
# reports it through its `failed` count. Any failed pass is a
# regression, so it compares the worst pass, not the median.
FAIL_RATIO = Metric("fail_ratio", "ratio", "lower", 0.0, center=max)


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def child_env():
    # Every LOCSIM_* variable (shards, cache dir, SIMD clamp, threads)
    # would silently change what a pass measures.
    return {k: v for k, v in os.environ.items() if not k.startswith("LOCSIM_")}


# --------------------------------------------------------------------------
# Build.

def build_type_of(cache_path):
    with open(cache_path) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def ensure_driver(driver=None):
    """Path of an up-to-date locsim_bench, building it in build-e2e/."""
    if driver:
        return os.path.abspath(driver)
    cache = os.path.join(BUILD, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=" + DEFAULT_BUILD_TYPE]
        if subprocess.run(configure, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            raise BenchError("configuring the benchmark failed")
    build_type = build_type_of(cache)
    if build_type != DEFAULT_BUILD_TYPE:
        raise BenchError(f"build-e2e/ is configured as '{build_type}', not "
                         f"the repository default {DEFAULT_BUILD_TYPE}; "
                         "remove build-e2e/ and rerun")
    jobs = min(4, len(os.sched_getaffinity(0)))
    build = ["cmake", "--build", BUILD, "--target", "locsim_bench",
             "-j", str(jobs)]
    if subprocess.run(build, stdout=sys.stderr,
                      stderr=sys.stderr).returncode != 0:
        raise BenchError("building locsim_bench failed")
    return os.path.join(BUILD, "locsim_bench")


def build_info(driver):
    out = subprocess.run([driver, "--build-info"], env=child_env(),
                         capture_output=True, text=True, check=True).stdout
    info = {}
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        info[key] = value
    return info


def host_info():
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, "nproc": len(os.sched_getaffinity(0)),
            "kernel": platform.release()}


# --------------------------------------------------------------------------
# Goldens and passes.

def load_goldens():
    """cell id -> digest from every golden file. Ids name the seed only
    when the inputs depend on it, so seed-independent cells are checked
    under any seed."""
    goldens, seeds = {}, set()
    if not os.path.isdir(GOLDEN_DIR):
        return goldens, seeds
    for name in sorted(os.listdir(GOLDEN_DIR)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(GOLDEN_DIR, name)) as f:
            data = json.load(f)
        seeds.add(int(data["seed"]))
        for cell, digest in data["cells"].items():
            if goldens.setdefault(cell, digest) != digest:
                raise BenchError(f"golden files disagree on {cell}")
    return goldens, seeds


class Checker:
    """Checks every pass's cells: no throw, no coherence violation, the
    golden digest where one exists, and the same digest in every pass."""

    def __init__(self, goldens):
        self.goldens = goldens
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.golden_checked = 0
        self.problems = []

    def check(self, result):
        failed = 0
        for cell in result["cells"]:
            problem = cell["error"]
            gold = self.goldens.get(cell["id"])
            if gold is not None:
                self.golden_checked += 1
                if cell["digest"] != gold:
                    problem = problem or "digest differs from the golden"
            if self.seen.setdefault(cell["id"], cell["digest"]) != cell["digest"]:
                problem = problem or "digest differs between passes"
            if problem:
                failed += 1
                self.problems.append(f"{result['workload']} {cell['id']}: "
                                     f"{problem}")
        for name, value in result["metrics"].items():
            if value is None:
                failed += 1
                self.problems.append(f"{result['workload']}: metric {name} "
                                     "is not a finite number")
        self.attempted += len(result["cells"])
        self.failed += failed
        return failed

    def note(self, seed, golden_seeds):
        coverage = f"{self.golden_checked} of {self.attempted} cells"
        if seed in golden_seeds:
            return f"golden: checked {coverage} against seed {seed}'s goldens"
        return (f"golden: seed {seed} has no golden file; checked {coverage} "
                "whose inputs do not depend on the seed. The rest are "
                "checked only for no throw, no coherence violation and the "
                "same digest in every pass")


def run_pass(driver, workload, seed, traced=False, smoke=False):
    os.makedirs(TMP, exist_ok=True)
    cmd = [driver, "--workload", workload, "--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    if traced:
        os.makedirs(TRACES, exist_ok=True)
        cmd += ["--trace-out", os.path.join(TRACES, workload + ".json")]
    cache_dir = None
    if workload == "prefix_sweep":
        cache_dir = tempfile.mkdtemp(prefix="pass-", dir=TMP)
        cmd += ["--cache-dir", cache_dir]
    try:
        proc = subprocess.run(cmd, env=child_env(), capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s")
    finally:
        if cache_dir:
            shutil.rmtree(cache_dir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} pass failed (exit {proc.returncode}): "
                         + proc.stderr.strip()[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["build_type"] != DEFAULT_BUILD_TYPE:
        raise BenchError(f"locsim_bench is a {result['build_type']} build, "
                         f"not {DEFAULT_BUILD_TYPE}")
    return result


# --------------------------------------------------------------------------
# Statistics.

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def fmt(value):
    if value == 0 or not math.isfinite(value):
        return f"{value:g}"
    if abs(value) >= 1e5 or abs(value) < 1e-3:
        return f"{value:.4e}"
    return f"{value:.4f}"


def print_table(headers, rows, out=sys.stdout):
    widths = [max(len(str(r[i])) for r in [headers] + rows)
              for i in range(len(headers))]
    for row in [headers] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip(),
              file=out)


# --------------------------------------------------------------------------
# One benchmark run: one workload, passes for --seconds, one JSON line.

def benchmark_run(args):
    driver = ensure_driver(args.driver)
    goldens, golden_seeds = load_goldens()
    checker = Checker(goldens)
    plain, traced = [], []
    start = time.monotonic()
    # A warm-up pass, checked but not timed, keeps first-start costs (a
    # cold page cache, a freshly built driver) out of the medians.
    checker.check(run_pass(driver, args.workload, args.seed))
    while True:
        want_traced = args.trace == 1 and len(traced) < len(plain)
        t0 = time.monotonic()
        result = run_pass(driver, args.workload, args.seed,
                          traced=want_traced)
        result["pass_s"] = time.monotonic() - t0
        checker.check(result)
        (traced if want_traced else plain).append(result)
        done = plain + traced
        elapsed = time.monotonic() - start
        typical = statistics.median(r["pass_s"] for r in done)
        enough = len(done) >= MIN_RUN_PASSES and (args.trace == 0 or traced)
        if enough and elapsed + typical / 2 >= args.seconds:
            break
    log(checker.note(args.seed, golden_seeds))
    for problem in checker.problems[:20]:
        log("FAIL", problem)

    if args.trace == 0:
        metrics = {m.name: {"value": m.center(
                                [r["metrics"][m.name] for r in plain]),
                            "unit": m.unit}
                   for m in END_TO_END}
    else:
        layer = per_layer_values(traced, plain)
        metrics = {m.name: {"value": statistics.median(layer[m.name]),
                            "unit": m.unit}
                   for m in PER_LAYER}
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}))
    return 0


def per_layer_values(traced, plain):
    """Per-layer metric -> values over the traced passes, with the tracing
    overhead taken against the median untraced wall clock."""
    base_wall = statistics.median(r["metrics"]["wall_s"] for r in plain)
    values = {}
    for m in PER_LAYER:
        if m.name == "trace.overhead_pct":
            values[m.name] = [100.0 * (r["metrics"]["wall_s"] / base_wall - 1)
                              for r in traced]
        else:
            values[m.name] = [r["metrics"][m.name] for r in traced]
    return values


# --------------------------------------------------------------------------
# A full set: every workload, R passes each, alternating order.

def full_set(args):
    driver = ensure_driver(args.driver)
    goldens, golden_seeds = load_goldens()
    workloads = WORKLOAD_NAMES
    passes = 1 if args.smoke else PASSES
    info = build_info(driver)
    host = host_info()
    host["loadavg_before"] = os.getloadavg()
    checkers = {w: Checker(goldens) for w in workloads}
    samples = {w: [] for w in workloads}
    for i in range(passes):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            result = run_pass(driver, w, args.seed, smoke=args.smoke)
            failed = checkers[w].check(result)
            result["metrics"]["fail_ratio"] = failed / max(1, len(result["cells"]))
            samples[w].append(result["metrics"])
            log(f"pass {i + 1}/{passes} {w}: "
                f"wall {result['metrics']['wall_s']:.3f} s, "
                f"{failed} failed")
    layers = {}
    if args.traced:
        for w in workloads:
            result = run_pass(driver, w, args.seed, traced=True,
                              smoke=args.smoke)
            checkers[w].check(result)
            plain = [{"metrics": s} for s in samples[w]]
            layers[w] = {k: v[0] for k, v in
                         per_layer_values([result], plain).items()}
            log(f"traced {w}: spans in {os.path.join(TRACES, w + '.json')}")
    host["loadavg_after"] = os.getloadavg()

    metrics = END_TO_END + [FAIL_RATIO]
    results = {w: {m.name: [s[m.name] for s in samples[w]] for m in metrics}
               for w in workloads}
    print(f"locsim end-to-end benchmark: seed {args.seed}, {passes} "
          f"pass(es) per workload, {info.get('threads')} threads, "
          f"{info.get('build_type')} build, simd {info.get('simd')}")
    print(f"host: {host['cpu_model']}, nproc {host['nproc']}, loadavg "
          f"{host['loadavg_before'][0]:.2f} -> {host['loadavg_after'][0]:.2f}")
    for w in workloads:
        print(f"{w}: {checkers[w].note(args.seed, golden_seeds)}")
    rows = []
    for w in workloads:
        for m in metrics:
            s = summary(results[w][m.name])
            rows.append([w, m.name, m.unit, fmt(s["median"]), fmt(s["q1"]),
                         fmt(s["q3"]), s["n"]])
    print()
    print_table(["workload", "metric", "unit", "median", "q1", "q3", "n"], rows)
    if layers:
        print()
        rows = [[w, m.name, m.unit, fmt(layers[w][m.name])]
                for w in workloads for m in PER_LAYER]
        print_table(["workload", "per-layer metric (traced pass)", "unit",
                     "value"], rows)
    problems = [p for c in checkers.values() for p in c.problems]
    for problem in problems[:20]:
        print("FAIL", problem)
    if args.out:
        data = {"schema": "locsim-e2e-set-v1", "seed": args.seed,
                "passes": passes, "smoke": args.smoke,
                "threads": int(info["threads"]),
                "host": host, "build": info, "results": results,
                "per_layer": layers}
        with open(args.out, "w") as f:
            json.dump(data, f, indent=1, sort_keys=True)
            f.write("\n")
    return 1 if problems else 0


# --------------------------------------------------------------------------
# Compare two sets.

def compare_sets(base, cur):
    """Rows of (workload, metric, base median, cur median, change %, bound,
    verdict) over every metric of every workload both sets hold."""
    rows = []
    for w in WORKLOAD_NAMES:
        if w not in base["results"] or w not in cur["results"]:
            continue
        for m in END_TO_END + [FAIL_RATIO]:
            b = base["results"][w].get(m.name)
            c = cur["results"][w].get(m.name)
            if not b or not c:
                continue
            bm, cm = m.center(b), m.center(c)
            allowed = m.allowed(bm)
            # A metric judged on its worst pass has no spread to resolve.
            spread = (max(q3 - q1 for q1, q3 in (quartiles(b), quartiles(c)))
                      if m.center is statistics.median else 0.0)
            if m.better == "lower":
                cur_beats_all = max(c) < min(b)
            else:
                cur_beats_all = min(c) > max(b)
            if m.worsening(bm, cm) > allowed:
                verdict = "regression"
            elif spread > allowed and not cur_beats_all:
                verdict = "unresolved"
            else:
                verdict = "ok"
            change = f"{100.0 * (cm - bm) / bm:+.2f}%" if bm else f"{cm:+g}"
            bound = f"{100 * m.bound:g}%"
            if m.floor:
                bound += f" or {m.floor:g} {m.unit}"
            rows.append([w, m.name, fmt(bm), fmt(cm), change, bound,
                         verdict])
    return rows


def compare(base_path, cur_path, out=sys.stdout):
    with open(base_path) as f:
        base = json.load(f)
    with open(cur_path) as f:
        cur = json.load(f)
    for key in ("passes", "smoke"):
        if base.get(key) != cur.get(key):
            raise BenchError(f"the sets differ in {key} ({base.get(key)} vs "
                             f"{cur.get(key)}), so they do not compare")
    rows = compare_sets(base, cur)
    print(f"compare BASE {base_path} -> CUR {cur_path}", file=out)
    print_table(["workload", "metric", "base", "cur", "change", "bound",
                 "verdict"], rows, out)
    counts = {v: sum(1 for r in rows if r[-1] == v)
              for v in ("ok", "unresolved", "regression")}
    print(f"{counts['regression']} regression(s), {counts['unresolved']} "
          f"unresolved, {counts['ok']} ok", file=out)
    return 1 if counts["regression"] else 0


# --------------------------------------------------------------------------
# Self-test: compare verdicts over fixtures, and the contract files.

def self_test():
    def verdicts(base, cur):
        with open(os.path.join(FIXTURES, base)) as f:
            b = json.load(f)
        with open(os.path.join(FIXTURES, cur)) as f:
            c = json.load(f)
        return {(r[0], r[1]): r[-1] for r in compare_sets(b, c)}

    failures = []

    def expect(what, got, want):
        if got != want:
            failures.append(f"{what}: got {got!r}, want {want!r}")

    grid, net = "validation_grid", "open_loop_net"
    same = verdicts("base.json", "base.json")
    expect("a set against itself: spread wider than the bound",
           same.pop((grid, "model_err_pct")), "unresolved")
    expect("a set against itself: the rest", set(same.values()), {"ok"})
    moved = verdicts("base.json", "cur.json")
    expect("wall_s 40% slower", moved[(grid, "wall_s")], "regression")
    expect("throughput 40% lower (higher is better)",
           moved[(grid, "node_cycles_per_s")], "regression")
    expect("cpu_s 5% slower, within its bound", moved[(grid, "cpu_s")], "ok")
    expect("setup_s +0.01 s, inside the 0.02 s floor",
           moved[(grid, "setup_s")], "ok")
    expect("peak_rss_mb judged on the worst pass: 70 MB against 51 MB",
           moved[(grid, "peak_rss_mb")], "regression")
    expect("model_err_pct wide spread but every CUR run better",
           moved[(grid, "model_err_pct")], "ok")
    expect("any failed cell", moved[(grid, "fail_ratio")], "regression")
    expect("faster open_loop_net wall_s", moved[(net, "wall_s")], "ok")
    base_only = verdicts("base.json", "cur.json").keys()
    expect("workloads missing from one side are skipped",
           any(w == "scaling_sweep" for w, _ in base_only), False)

    base_path = os.path.join(FIXTURES, "base.json")
    with open(os.devnull, "w") as sink:
        expect("exit status on regression",
               compare(base_path, os.path.join(FIXTURES, "cur.json"), sink), 1)
        expect("exit status without regression",
               compare(base_path, base_path, sink), 0)
        with tempfile.TemporaryDirectory() as tmp:
            with open(base_path) as f:
                other = dict(json.load(f), passes=7)
            other_path = os.path.join(tmp, "other.json")
            with open(other_path, "w") as f:
                json.dump(other, f)
            try:
                compare(base_path, other_path, sink)
                refused = False
            except BenchError:
                refused = True
            expect("sets with a different R are refused", refused, True)

    checker = Checker({"a": "1"})
    checker.check({"workload": "w", "metrics": {"wall_s": 1.0},
                   "cells": [{"id": "a", "digest": "2", "error": ""},
                             {"id": "b", "digest": "3", "error": ""},
                             {"id": "c", "digest": "4", "error": "boom"}]})
    checker.check({"workload": "w", "metrics": {"wall_s": None},
                   "cells": [{"id": "b", "digest": "5", "error": ""}]})
    expect("golden mismatch, throw, pass-to-pass drift and a non-finite "
           "metric each fail", checker.failed, 4)
    expect("cells attempted", checker.attempted, 4)

    for failure in failures:
        print("FAIL", failure)
    print(f"self-test: {'FAILED' if failures else 'ok'}")
    return 1 if failures else 0


# --------------------------------------------------------------------------

def parse_args(argv):
    p = argparse.ArgumentParser(
        description="locsim end-to-end benchmark",
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="one benchmark run of this workload (with --seconds)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=RUN_SECONDS,
                   help="measuring time of one benchmark run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="benchmark run: 0 end-to-end metrics, 1 per-layer")
    p.add_argument("--traced", action="store_true",
                   help="add one traced pass per workload to a set")
    p.add_argument("--smoke", action="store_true",
                   help="windows / 10, one pass per workload")
    p.add_argument("--out", help="write the set's raw samples here")
    p.add_argument("--compare", nargs=2, metavar=("BASE", "CUR"))
    p.add_argument("--self-test", action="store_true")
    p.add_argument("--record-golden", action="store_true",
                   help="write golden/seed-<seed>.json from the plain path")
    p.add_argument("--driver", help="use this locsim_bench, do not build")
    args = p.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        p.error("--seconds must be positive and --seed >= 0")
    return args


def record_golden(args):
    driver = ensure_driver(args.driver)
    digests = subprocess.run(
        [driver, "--record-golden", "--seed", str(args.seed)],
        env=child_env(), stdout=subprocess.PIPE, text=True,
        check=True).stdout
    json.loads(digests)
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    path = os.path.join(GOLDEN_DIR, f"seed-{args.seed}.json")
    with open(path, "w") as f:
        f.write(digests)
    log(f"wrote {path}")
    return 0


def main(argv):
    args = parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.compare:
            return compare(*args.compare)
        if args.record_golden:
            return record_golden(args)
        if args.workload:
            return benchmark_run(args)
        return full_set(args)
    except (BenchError, OSError, subprocess.CalledProcessError,
            json.JSONDecodeError) as e:
        log(f"run.py: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
