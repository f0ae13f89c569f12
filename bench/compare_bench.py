#!/usr/bin/env python3
"""Compare micro_perf --json outputs against a committed baseline.

Usage:
    compare_bench.py BASELINE.json CURRENT.json [CURRENT2.json ...]
        [--threshold PCT] [--strict] [--assume-cores N]
    compare_bench.py --self-test

When several CURRENT files are given (repeated runs), the median
ns_per_op / allocs_per_op per benchmark is compared, which filters the
run-to-run noise of a loaded CI box. A benchmark regresses when its
median is more than --threshold percent (default 10) above the
baseline. Allocation counts are near-deterministic, so they are held
to a stricter contract: any increase beyond the threshold regresses,
and a benchmark whose baseline is allocation-free (allocs_per_op == 0)
regresses on ANY nonzero value — zero-allocation steady state is a
property, not a quantity, so there is no tolerance band around it.

The large-radix benchmarks additionally report bytes_per_node (the
machine's deterministic explicit memory accounting, the same figure
run manifests publish as mem.bytes_per_node). When the baseline entry
records it, it is gated by the same percentage threshold — a change
that bloats per-node resident state fails even if it is not slower.
peak_rss_mb is never gated: it is a cumulative process high-water
mark and depends on benchmark ordering and the host allocator.

Baseline entries may carry "multicore_only": true (the sharded
BM_FullMachineCycles variants). Those measure parallel speedup, which
does not exist on a single-core host: there the shard barriers only
add cost and the numbers swing with scheduler behavior. Such entries
are reported but excluded from regression flagging when the host has
fewer than 2 usable cores (see docs/PERFORMANCE.md; --assume-cores
overrides detection, mainly for the self-test).

Baseline entries may also carry an "aggregate_speedup" gate (the
prefix-cached sweep, BM_PrefixSweep/prefix):

    "aggregate_speedup": {"vs": "BM_PrefixSweep/noprefix",
                          "lanes": 1, "min": 2.0}

The entry's iteration does the work of `lanes` iterations of the
benchmark named by "vs", so its aggregate speedup over it is
lanes * median_ns(vs) / median_ns(entry), computed from the CURRENT
runs (both sides from the same host and load, so the ratio is robust
where absolute ns/op is not). A speedup below "min" regresses.

With --explain BASE_MANIFEST CURRENT_MANIFEST (two --run-report JSON
files, e.g. from `micro_perf --run-report`), a fired gate is followed
by a host-time phase attribution. Each manifest's profile.phases are
turned into self time (a nesting phase minus the phases it contains,
see src/obs/profiler.hh), and one rule names the phase whose self time
grew most, with the change in ms and in share points of profiled
time: "router_scan +3200.0 ms, +21.4 pts" localizes a regression
before anyone opens a profiler. Manifests with profiling disabled are
reported as such and skipped.

Exit status: 0 when nothing regressed, or always 0 without --strict
(report-only mode for informational CI steps); 1 with --strict when at
least one benchmark regressed; 2 on malformed input. --self-test runs
the comparison logic against the fixture pair in bench/fixtures/ and
exits 0/1.
"""

import argparse
import json
import os
import statistics
import sys

METRICS = (("ns_per_op", "ns/op"), ("allocs_per_op", "allocs/op"),
           ("bytes_per_node", "bytes/node"))


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        return {b["name"]: b for b in doc["benchmarks"]}
    except (OSError, ValueError, KeyError) as e:
        print(f"compare_bench: cannot read {path}: {e}",
              file=sys.stderr)
        sys.exit(2)


def median_metric(runs, name, key):
    values = [r[name][key] for r in runs
              if name in r and key in r[name]]
    return statistics.median(values) if values else None


def compare(baseline, runs, threshold, cores):
    """Return (lines, regressions, skipped).

    lines: printable report rows. regressions: (name, label, base,
    current, delta) tuples. skipped: names excluded as multicore-only
    on a single-core host.
    """
    lines = []
    regressions = []
    skipped = []
    width = max((len(n) for n in baseline), default=4)
    lines.append(f"{'benchmark':<{width}}  {'base ns/op':>12} "
                 f"{'median ns/op':>12} {'delta':>8}")
    for name, base in sorted(baseline.items()):
        gate = True
        note = ""
        if base.get("multicore_only") and cores < 2:
            gate = False
            note = "  (multi-core only; not gated)"
            skipped.append(name)
        for key, label in METRICS:
            if key not in base:
                continue
            current = median_metric(runs, name, key)
            if current is None:
                if key == "ns_per_op":
                    lines.append(f"{name:<{width}}  "
                                 f"{base[key]:>12.4g} {'missing':>12}")
                continue
            delta = ((current - base[key]) / base[key] * 100.0
                     if base[key] > 0 else 0.0)
            if key == "ns_per_op":
                lines.append(f"{name:<{width}}  {base[key]:>12.4g} "
                             f"{current:>12.4g} {delta:>+7.1f}%{note}")
            if not gate:
                continue
            if delta > threshold:
                regressions.append((name, label, base[key],
                                    current, delta))
            elif (key == "allocs_per_op" and base[key] == 0
                  and current > 0):
                # Nonzero-from-zero: the steady state started
                # allocating. Percentage math cannot see this (the
                # base is 0), so it is flagged unconditionally.
                regressions.append((name, label, base[key],
                                    current, float("inf")))
        spec = base.get("aggregate_speedup")
        if spec:
            entry_ns = median_metric(runs, name, "ns_per_op")
            solo_ns = median_metric(runs, spec["vs"], "ns_per_op")
            if entry_ns and solo_ns:
                speedup = spec["lanes"] * solo_ns / entry_ns
                met = speedup >= spec["min"]
                verdict = "ok" if met else "BELOW TARGET"
                lines.append(
                    f"{name:<{width}}  aggregate x{speedup:.2f} "
                    f"vs {spec['vs']} (target >= "
                    f"{spec['min']:g}x; {verdict})")
                if gate and not met:
                    shortfall = ((speedup - spec["min"])
                                 / spec["min"] * 100.0)
                    regressions.append(
                        (name, "aggregate speedup", spec["min"],
                         speedup, shortfall))
            else:
                lines.append(f"{name:<{width}}  aggregate speedup "
                             f"vs {spec['vs']}: missing")

    new_names = set(runs[0]) - set(baseline) if runs else set()
    for name in sorted(new_names):
        lines.append(f"{name:<{width}}  {'(new)':>12}")
    return lines, regressions, skipped


def load_manifest_phases(path):
    """Read profile.phases from a --run-report manifest.

    Returns {phase_name: ns} or None when the manifest has profiling
    disabled (still exit 2 on unreadable/malformed files, matching
    load()).
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
        profile = doc["profile"]
    except (OSError, ValueError, KeyError) as e:
        print(f"compare_bench: cannot read manifest {path}: {e}",
              file=sys.stderr)
        sys.exit(2)
    if not profile.get("enabled") or "phases" not in profile:
        return None
    return {name: entry["ns"]
            for name, entry in profile["phases"].items()}


# Phases the profiler records inside another (src/obs/profiler.hh):
# engine phase A dispatches the router and coherence ticks, and the
# router scan contains the latch kernel.
PARENT = {"router_scan": "engine_dispatch",
          "coherence": "engine_dispatch",
          "router_kernel": "router_scan"}


def self_times(phases):
    """Per-phase self time in ns: a phase's time minus its children's."""
    own = dict(phases)
    for child, parent in PARENT.items():
        if child in phases and parent in own:
            own[parent] -= phases[child]
    return {name: max(0, ns) for name, ns in own.items()}


def explain(base_phases, cur_phases):
    """Attribute a regression to host phases.

    Returns printable lines: per-phase self-time share before and
    after plus the change in ms, then the phase whose self time grew
    most.
    """
    base = self_times(base_phases)
    cur = self_times(cur_phases)
    base_total = sum(base.values()) or 1
    cur_total = sum(cur.values()) or 1
    rows = []
    for name in sorted(set(base) | set(cur)):
        b = base.get(name, 0)
        c = cur.get(name, 0)
        rows.append(((c - b) / 1e6, name, b / base_total * 100.0,
                     c / cur_total * 100.0))
    rows.sort(key=lambda r: -r[0])
    lines = ["phase attribution (self time, share of profiled host "
             "time):"]
    for ms, name, b, c in rows:
        lines.append(f"  {name:<18} {b:6.1f}% -> {c:6.1f}%  "
                     f"({ms:+.1f} ms, {c - b:+.1f} pts)")
    ms, name, b, c = rows[0]
    if ms > 0:
        lines.append(f"grew most: {name} ({ms:+.1f} ms self time, "
                     f"{c - b:+.1f} share points) — look there first")
    else:
        lines.append("no phase's self time grew; the regression is "
                     "outside the instrumented phases")
    return lines


def report(lines, regressions, threshold):
    for line in lines:
        print(line)
    if regressions:
        print(f"\n{len(regressions)} regression(s) beyond "
              f"{threshold:.0f}%:")
        for name, label, base, cur, delta in regressions:
            kind = ("now allocates" if delta == float("inf")
                    else f"{delta:+.1f}%")
            print(f"  {name} {label}: {base:.4g} -> {cur:.4g} "
                  f"({kind})")
    else:
        print("\nno regressions beyond "
              f"{threshold:.0f}% threshold")


def self_test():
    """Exercise compare() on the committed fixture pair."""
    here = os.path.dirname(os.path.abspath(__file__))
    base = load(os.path.join(here, "fixtures", "compare_base.json"))
    cur = load(os.path.join(here, "fixtures", "compare_current.json"))

    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)

    # Single-core host: multicore-only entries are not gated.
    _, regs, skipped = compare(base, [cur], 10.0, cores=1)
    flagged = {(n, l) for n, l, *_ in regs}
    expect(("BM_SlowPath", "ns/op") in flagged,
           "ns/op regression beyond threshold not flagged")
    expect(("BM_ZeroAlloc", "allocs/op") in flagged,
           "nonzero-from-zero allocs_per_op not flagged")
    expect(("BM_WithinNoise", "ns/op") not in flagged,
           "within-threshold delta wrongly flagged")
    # Footprint gate: bytes_per_node grew ~49%, well past threshold;
    # the 18x peak_rss_mb jump must NOT fire (never gated).
    expect(("BM_Footprint", "bytes/node") in flagged,
           "bytes_per_node regression beyond threshold not flagged")
    expect(("BM_Footprint", "ns/op") not in flagged,
           "within-threshold footprint ns/op wrongly flagged")
    expect(("BM_ShardedOnly", "ns/op") not in flagged,
           "multicore-only entry gated on a single-core host")
    expect(skipped == ["BM_ShardedOnly"],
           f"unexpected skip list: {skipped}")
    # Aggregate-speedup gates: 8 * 1000/2000 = x4.0 meets the 3x
    # target, 4 * 1000/2000 = x2.0 misses it.
    expect(("BM_BatchMet", "aggregate speedup") not in flagged,
           "met aggregate-speedup target wrongly flagged")
    expect(("BM_BatchMissed", "aggregate speedup") in flagged,
           "missed aggregate-speedup target not flagged")
    expect(len(flagged) == 4, f"unexpected regressions: {flagged}")

    # Multi-core host: the sharded entry is gated like any other.
    _, regs, skipped = compare(base, [cur], 10.0, cores=8)
    flagged = {(n, l) for n, l, *_ in regs}
    expect(("BM_ShardedOnly", "ns/op") in flagged,
           "multicore-only entry not gated on a multi-core host")
    expect(skipped == [], f"unexpected skip list: {skipped}")

    # Median across repeated runs filters a single noisy file.
    noisy = {n: dict(b) for n, b in cur.items()}
    noisy["BM_WithinNoise"] = dict(noisy["BM_WithinNoise"],
                                   ns_per_op=1.0e9)
    _, regs, _ = compare(base, [cur, noisy, cur], 10.0, cores=1)
    expect(("BM_WithinNoise", "ns/op")
           not in {(n, l) for n, l, *_ in regs},
           "median did not filter a single noisy run")

    # --explain: the steady fixture shifts self time into
    # router_scan, the checkpoint fixture into checkpoint_restore.
    base_phases = load_manifest_phases(
        os.path.join(here, "fixtures", "manifest_base.json"))
    cur_phases = load_manifest_phases(
        os.path.join(here, "fixtures", "manifest_current.json"))
    ckpt_phases = load_manifest_phases(
        os.path.join(here, "fixtures", "manifest_checkpoint.json"))
    expect(None not in (base_phases, cur_phases, ckpt_phases),
           "fixture manifests did not load")
    explain_lines = explain(base_phases, cur_phases)
    expect(any(l.startswith("grew most: router_scan (+3200.0 ms")
               for l in explain_lines),
           f"router_scan growth not attributed: {explain_lines}")
    ckpt_lines = explain(base_phases, ckpt_phases)
    expect(any(l.startswith("grew most: checkpoint_restore (+4500.0 ms")
               for l in ckpt_lines),
           f"checkpoint_restore growth not attributed: {ckpt_lines}")
    # A disabled-profile manifest is detected, not crashed on.
    disabled = load_manifest_phases(
        os.path.join(here, "fixtures", "manifest_disabled.json"))
    expect(disabled is None,
           "profiling-disabled manifest not reported as None")

    if failures:
        for f in failures:
            print(f"self-test FAILED: {f}")
        return 1
    print("self-test passed")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description="flag micro_perf regressions vs a baseline")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="*")
    parser.add_argument("--threshold", type=float, default=10.0,
                        help="regression threshold in percent "
                             "(default: 10)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 if any benchmark regressed")
    parser.add_argument("--assume-cores", type=int, default=None,
                        help="override detected core count for the "
                             "multicore-only gate")
    parser.add_argument("--explain", nargs=2,
                        metavar=("BASE_MANIFEST", "CURRENT_MANIFEST"),
                        help="on regression, attribute the shift to "
                             "host phases using two --run-report "
                             "manifests")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture-based self-test")
    args = parser.parse_args()

    if args.self_test:
        sys.exit(self_test())
    if args.baseline is None or not args.current:
        parser.error("baseline and at least one current file required")

    cores = (args.assume_cores if args.assume_cores is not None
             else os.cpu_count() or 1)
    baseline = load(args.baseline)
    runs = [load(p) for p in args.current]

    lines, regressions, skipped = compare(baseline, runs,
                                          args.threshold, cores)
    report(lines, regressions, args.threshold)
    if skipped:
        print(f"skipped (multi-core only, {cores} core(s) here): "
              + ", ".join(skipped))
    if regressions and args.explain:
        base_phases = load_manifest_phases(args.explain[0])
        cur_phases = load_manifest_phases(args.explain[1])
        print()
        if base_phases is None or cur_phases is None:
            print("cannot explain: a manifest has profiling disabled "
                  "(rerun with --run-report and --profile)")
        else:
            for line in explain(base_phases, cur_phases):
                print(line)
    if regressions and args.strict:
        sys.exit(1)


if __name__ == "__main__":
    main()
