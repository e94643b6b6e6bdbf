#!/usr/bin/env python3
"""Compare two uhtm-bench-v1 JSON outputs and flag throughput regressions.

Usage:
    bench_compare.py BASELINE CANDIDATE [--threshold PCT] [--metric NAME]

BASELINE and CANDIDATE are either two BENCH_<figure>.json files or two
directories of them (matched by file name). Jobs are matched by key; a
job whose metric drops by more than the threshold (default 10%) fails
the comparison, as does a job that disappeared or stopped succeeding.
New jobs in the candidate are reported but do not fail.

When both directories also carry METRICS_<figure>.json observability
sidecars (uhtm-metrics-v1, written by --metrics), their aggregate
blocks are diffed too: counters must match exactly, gauges within
relative 1e-9, distribution counts exactly. A sidecar present on only
one side is reported but never fails (baselines predating the metrics
layer stay comparable); --ignore-metrics skips the sidecars entirely.

With --latency-tolerance PCT, latency distributions (aggregate
distributions whose name ends in "_ns", e.g. the service figure's
service.sojourn_ns) additionally have their p50/p99/p999 upper bounds
derived from the power-of-two histogram and compared with the given
relative tolerance, so intentional-but-bounded latency drift can be
reviewed without loosening the strict BENCH comparison. The percentile
check is opt-in: without the flag the comparison stays exactly as
before.

ANALYSIS_<figure>.json sidecars (uhtm-analysis-v1, written by
`uhtm_trace --out=DIR` from --trace output) are diffed exactly when both sides
carry a pair: the analysis is deterministic integers, so any delta in
the aggregate abort-causality, hot-line or critical-path numbers is a
reported difference. A sidecar present on only one side is a note,
never a failure (regression runs without tracing legitimately produce
none); --ignore-analysis skips them entirely.

TIMING_<figure>.json sidecars (written by --wall) are purely
informational: wall-clock and events/sec deltas are printed when both
directories carry a pair, but host timing is machine-dependent and
never affects the exit status.

Exit status: 0 = within threshold, 1 = regression, 2 = usage/IO error.
Only the standard library is used.
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "uhtm-bench-v1":
        raise ValueError(f"{path}: unknown schema {doc.get('schema')!r}")
    return doc


def job_metric(job, metric):
    """Extract the comparison metric from one job entry (None if n/a)."""
    if not job.get("ok"):
        return None
    value = job.get("metrics", {}).get(metric)
    return float(value) if value is not None else None


def compare_docs(base, cand, *, threshold, metric, label, out):
    """Compare two parsed documents; return the number of regressions."""
    base_jobs = {j["key"]: j for j in base.get("jobs", [])}
    cand_jobs = {j["key"]: j for j in cand.get("jobs", [])}
    regressions = 0

    for key, bjob in sorted(base_jobs.items()):
        cjob = cand_jobs.get(key)
        if cjob is None:
            print(f"FAIL {label}/{key}: job disappeared", file=out)
            regressions += 1
            continue
        if bjob.get("ok") and not cjob.get("ok"):
            err = cjob.get("error", "?")
            print(f"FAIL {label}/{key}: now failing ({err})", file=out)
            regressions += 1
            continue
        bval = job_metric(bjob, metric)
        cval = job_metric(cjob, metric)
        if bval is None or bval == 0.0 or cval is None:
            continue  # nothing meaningful to compare
        delta_pct = 100.0 * (cval - bval) / bval
        status = "ok"
        if delta_pct < -threshold:
            status = "FAIL"
            regressions += 1
        print(f"{status:4} {label}/{key}: {metric} {bval:.0f} -> "
              f"{cval:.0f} ({delta_pct:+.1f}%)", file=out)

    for key in sorted(set(cand_jobs) - set(base_jobs)):
        print(f"new  {label}/{key}: no baseline", file=out)

    return regressions


def load_metrics(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "uhtm-metrics-v1":
        raise ValueError(f"{path}: unknown schema {doc.get('schema')!r}")
    return doc


def quantile_upper_bound(dist, q):
    """Mirror obs::DistSnapshot::quantileUpperBound for a JSON dist.

    Bucket 0 holds samples < 1; bucket i >= 1 holds [2^(i-1), 2^i).
    Returns the upper edge of the bucket where the cumulative count
    crosses q * count, clamped to the observed max; 0 when empty.
    """
    count = dist.get("count", 0)
    if not count:
        return 0.0
    hist = dist.get("log2_hist", [])
    dmax = dist.get("max", 0.0)
    target = q * count
    cum = 0
    for i, n in enumerate(hist):
        cum += n
        if cum >= target:
            edge = 1.0 if i == 0 else float(1 << min(i, 63))
            return min(dmax, edge)
    return dmax


def compare_latency_percentiles(name, bdist, cdist, *, tolerance_pct,
                                label, out):
    """Compare p50/p99/p999 of one latency distribution; return #diffs."""
    diffs = 0
    for q, qname in ((0.50, "p50"), (0.99, "p99"), (0.999, "p999")):
        bval = quantile_upper_bound(bdist, q)
        cval = quantile_upper_bound(cdist, q)
        scale = max(abs(bval), abs(cval))
        if scale == 0.0:
            continue
        delta_pct = 100.0 * abs(cval - bval) / scale
        status = "ok"
        if delta_pct > tolerance_pct:
            status = "FAIL"
            diffs += 1
        print(f"{status:4} {label}/metrics {name} {qname}: "
              f"{bval:.0f} -> {cval:.0f} ({delta_pct:.1f}% vs "
              f"{tolerance_pct}% tolerance)", file=out)
    return diffs


def compare_metrics_docs(base, cand, *, label, out, latency_tolerance=None):
    """Diff the aggregate blocks of two metrics sidecars; return #diffs."""
    bagg = base.get("aggregate", {})
    cagg = cand.get("aggregate", {})
    diffs = 0

    bc = bagg.get("counters", {})
    cc = cagg.get("counters", {})
    for name in sorted(set(bc) | set(cc)):
        bval, cval = bc.get(name), cc.get(name)
        if bval != cval:
            print(f"FAIL {label}/metrics counter {name}: "
                  f"{bval} -> {cval}", file=out)
            diffs += 1

    bg = bagg.get("gauges", {})
    cg = cagg.get("gauges", {})
    for name in sorted(set(bg) | set(cg)):
        bval, cval = bg.get(name), cg.get(name)
        if bval is None or cval is None:
            print(f"FAIL {label}/metrics gauge {name}: "
                  f"{bval} -> {cval}", file=out)
            diffs += 1
            continue
        scale = max(abs(bval), abs(cval), 1e-300)
        if abs(bval - cval) / scale > 1e-9:
            print(f"FAIL {label}/metrics gauge {name}: "
                  f"{bval!r} -> {cval!r}", file=out)
            diffs += 1

    bd = bagg.get("distributions", {})
    cd = cagg.get("distributions", {})
    for name in sorted(set(bd) | set(cd)):
        bval = bd.get(name, {}).get("count")
        cval = cd.get(name, {}).get("count")
        if bval != cval:
            print(f"FAIL {label}/metrics distribution {name}: "
                  f"count {bval} -> {cval}", file=out)
            diffs += 1
        elif (latency_tolerance is not None and name.endswith("_ns")
              and name in bd and name in cd):
            diffs += compare_latency_percentiles(
                name, bd[name], cd[name],
                tolerance_pct=latency_tolerance, label=label, out=out)

    if not diffs:
        print(f"ok   {label}/metrics: aggregates match", file=out)
    return diffs


def pair_metrics_paths(base, cand):
    """Yield (label, base_file, cand_file) for METRICS sidecar pairs.

    Only directory comparisons carry sidecars; a file present on one
    side only is yielded as (label, path-or-None): the caller treats a
    sidecar the baseline has but the candidate lost as an error (a
    silently vanished figure is exactly the regression this tool
    exists to catch), and one only the candidate has as a note (new
    figures land before their goldens do).
    """
    if not (os.path.isdir(base) and os.path.isdir(cand)):
        return
    names = sorted(
        set(n for n in os.listdir(base)
            if n.startswith("METRICS_") and n.endswith(".json")) |
        set(n for n in os.listdir(cand)
            if n.startswith("METRICS_") and n.endswith(".json")))
    for name in names:
        bpath = os.path.join(base, name)
        cpath = os.path.join(cand, name)
        yield (name,
               bpath if os.path.isfile(bpath) else None,
               cpath if os.path.isfile(cpath) else None)


def load_analysis(path):
    with open(path, "r", encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("schema") != "uhtm-analysis-v1":
        raise ValueError(f"{path}: unknown schema {doc.get('schema')!r}")
    return doc


def json_diff(bval, cval, path=""):
    """Yield "path: b -> c" lines for every leaf difference."""
    if isinstance(bval, dict) and isinstance(cval, dict):
        for key in sorted(set(bval) | set(cval)):
            yield from json_diff(bval.get(key), cval.get(key),
                                 f"{path}.{key}" if path else key)
    elif isinstance(bval, list) and isinstance(cval, list):
        if len(bval) != len(cval):
            yield f"{path}: {len(bval)} entries -> {len(cval)}"
        else:
            for i, (b, c) in enumerate(zip(bval, cval)):
                yield from json_diff(b, c, f"{path}[{i}]")
    elif bval != cval:
        yield f"{path}: {bval!r} -> {cval!r}"


def compare_analysis_docs(base, cand, *, label, out):
    """Diff two analysis sidecars exactly; return #differences.

    The analysis is a pure integer function of the traces, so the
    whole aggregate block (abort causality, hot lines, critical-path
    stage sums) plus the run count must match bit for bit.
    """
    diffs = 0
    for line in json_diff({"runs_n": base.get("runs_n"),
                           "aggregate": base.get("aggregate")},
                          {"runs_n": cand.get("runs_n"),
                           "aggregate": cand.get("aggregate")}):
        print(f"FAIL {label}/analysis {line}", file=out)
        diffs += 1
    if not diffs:
        print(f"ok   {label}/analysis: aggregates match", file=out)
    return diffs


def pair_analysis_paths(base, cand):
    """Yield (label, base_file, cand_file) for ANALYSIS sidecar pairs.

    Lenient on both sides: ANALYSIS sidecars only exist when a run was
    traced and analyzed, so (unlike METRICS) a file missing from
    either directory is a note, never an error.
    """
    if not (os.path.isdir(base) and os.path.isdir(cand)):
        return
    names = sorted(
        set(n for n in os.listdir(base)
            if n.startswith("ANALYSIS_") and n.endswith(".json")) |
        set(n for n in os.listdir(cand)
            if n.startswith("ANALYSIS_") and n.endswith(".json")))
    for name in names:
        bpath = os.path.join(base, name)
        cpath = os.path.join(cand, name)
        yield (name,
               bpath if os.path.isfile(bpath) else None,
               cpath if os.path.isfile(cpath) else None)


def report_timing(base, cand, *, out):
    """Print wall-clock deltas from TIMING_*.json pairs (never fails)."""
    if not (os.path.isdir(base) and os.path.isdir(cand)):
        return
    names = sorted(
        set(n for n in os.listdir(base)
            if n.startswith("TIMING_") and n.endswith(".json")) &
        set(n for n in os.listdir(cand)
            if n.startswith("TIMING_") and n.endswith(".json")))
    for name in names:
        try:
            with open(os.path.join(base, name), encoding="utf-8") as f:
                bdoc = json.load(f)
            with open(os.path.join(cand, name), encoding="utf-8") as f:
                cdoc = json.load(f)
        except (OSError, json.JSONDecodeError) as e:
            print(f"note {name}: unreadable ({e}), skipped", file=out)
            continue
        bw = bdoc.get("wall_seconds")
        cw = cdoc.get("wall_seconds")
        if not bw or cw is None:
            continue
        delta_pct = 100.0 * (cw - bw) / bw
        line = (f"time {name}: {bw:.2f}s -> {cw:.2f}s "
                f"({delta_pct:+.1f}%)")
        beps = bdoc.get("events_per_second")
        ceps = cdoc.get("events_per_second")
        if beps and ceps:
            line += (f", {beps / 1e6:.1f} -> {ceps / 1e6:.1f} "
                     f"Mevents/s")
        print(line, file=out)


def pair_paths(base, cand):
    """Yield (label, base_file, cand_file) pairs for files or dirs."""
    if os.path.isfile(base) and os.path.isfile(cand):
        yield os.path.basename(cand), base, cand
        return
    if not (os.path.isdir(base) and os.path.isdir(cand)):
        raise ValueError("arguments must be two files or two directories")
    names = sorted(n for n in os.listdir(base)
                   if n.startswith("BENCH_") and n.endswith(".json"))
    if not names:
        raise ValueError(f"no BENCH_*.json files in {base}")
    for name in names:
        cpath = os.path.join(cand, name)
        if not os.path.isfile(cpath):
            raise ValueError(f"candidate is missing {name}")
        yield name, os.path.join(base, name), cpath


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("baseline", help="baseline file or directory")
    ap.add_argument("candidate", help="candidate file or directory")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="max tolerated drop in percent (default 10)")
    ap.add_argument("--metric", default="ops_per_sec",
                    help="metrics field to compare (default ops_per_sec)")
    ap.add_argument("--ignore-metrics", action="store_true",
                    help="skip METRICS_*.json sidecar comparison")
    ap.add_argument("--ignore-analysis", action="store_true",
                    help="skip ANALYSIS_*.json sidecar comparison")
    ap.add_argument("--latency-tolerance", type=float, default=None,
                    metavar="PCT",
                    help="also compare p50/p99/p999 of *_ns aggregate "
                         "distributions with this relative tolerance "
                         "in percent (default: off)")
    args = ap.parse_args(argv)

    regressions = 0
    try:
        for label, bpath, cpath in pair_paths(args.baseline, args.candidate):
            regressions += compare_docs(load(bpath), load(cpath),
                                        threshold=args.threshold,
                                        metric=args.metric,
                                        label=label, out=sys.stdout)
        if not args.ignore_metrics:
            for label, bpath, cpath in pair_metrics_paths(args.baseline,
                                                          args.candidate):
                if cpath is None:
                    # The baseline expects this sidecar; the candidate
                    # run not producing it means a figure silently
                    # dropped out of the sweep — fail, don't skip.
                    raise ValueError(f"candidate is missing {label}")
                if bpath is None:
                    print(f"note {label}: missing in baseline, skipped")
                    continue
                regressions += compare_metrics_docs(
                    load_metrics(bpath), load_metrics(cpath),
                    label=label, out=sys.stdout,
                    latency_tolerance=args.latency_tolerance)
        if not args.ignore_analysis:
            for label, bpath, cpath in pair_analysis_paths(
                    args.baseline, args.candidate):
                if bpath is None or cpath is None:
                    # Tracing is opt-in, so a one-sided ANALYSIS
                    # sidecar is normal (e.g. an untraced regression
                    # run against a traced golden directory).
                    side = "baseline" if bpath is None else "candidate"
                    print(f"note {label}: missing in {side}, skipped")
                    continue
                regressions += compare_analysis_docs(
                    load_analysis(bpath), load_analysis(cpath),
                    label=label, out=sys.stdout)
        # Informational only: host timing never gates the exit status.
        report_timing(args.baseline, args.candidate, out=sys.stdout)
    except (OSError, ValueError, json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    if regressions:
        print(f"{regressions} regression(s) beyond "
              f"{args.threshold}% on {args.metric}")
        return 1
    print("no regressions")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
