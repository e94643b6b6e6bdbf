#!/usr/bin/env python3
"""Paired parent/change runs of perfbench, appended to the perf trajectory.

Runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
in two source trees, PAIRS (10) times per workload, alternating which tree
runs first (pair 0: parent first, pair 1: change first, ...). T is
`run_seconds` from the change tree's BENCHMARK.json. Each tree builds into
its own directory under --build-root. Prints every pair and, per workload
and end-to-end metric, each side's median and quartiles, the change's pair
wins, and whether a gain is claimable: the change wins at least 9 of the
10 pairs, its median beats the parent's by more than the parent's
interquartile range, every change run passes its reference check, and the
change fails no more jobs than the parent.

Usage (from the repository root, after extracting the parent commit with
`git archive PARENT | tar -x -C DIR`):

    python3 tools/perf_pairs.py --parent-src DIR --change-src . \\
        --parent-commit PARENT --build-root /tmp/pairs \\
        --workload service_many_jobs --seed 42 \\
        --append bench/perf/trajectory.json

--append adds one entry to the trajectory file: the parent and change
commits, the host, each side's median and quartiles, and every sample.
Measure the change as it will be committed; when the commit does not
exist yet, the entry names it as the commit that adds the entry.

    python3 tools/perf_pairs.py --table bench/perf/trajectory.json

prints the README "Performance" table of a trajectory file instead: one
row per entry and workload, each metric as parent median -> change
median, and the change's pair wins on wall_s.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

PAIRS = 10
METRICS = ("wall_s", "setup_s", "host_ns_per_access", "host_us_per_commit",
           "peak_rss_mb")  # all lower-is-better


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": model, "cpu_count": os.cpu_count(),
            "system": platform.system(), "release": platform.release(),
            "build": "RelWithDebInfo (perfbench/CMakeLists.txt)"}


def run_side(src, build_dir, workload, seed, seconds):
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    p = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                        workload, "--seed", str(seed), "--seconds",
                        str(seconds), "--trace", "0"], cwd=src, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        sys.exit("perfbench failed in %s (exit %d)" % (src, p.returncode))
    res = json.loads(p.stdout.strip().splitlines()[-1])
    return {"correct": res["correct"], "failed": res["failed"],
            "attempted": res["attempted"],
            **{m: res["metrics"][m]["value"] for m in METRICS}}


def summary(parent, change):
    out = {}
    sound = (len(change) >= PAIRS and all(r["correct"] for r in change)
             and sum(r["failed"] for r in change)
             <= sum(r["failed"] for r in parent))
    for m in METRICS:
        ps, cs = [r[m] for r in parent], [r[m] for r in change]
        pq = statistics.quantiles(ps, n=4, method="inclusive")
        cq = statistics.quantiles(cs, n=4, method="inclusive")
        wins = sum(c < p for p, c in zip(ps, cs))
        out[m] = {
            "parent": {"median": pq[1], "q1": pq[0], "q3": pq[2]},
            "change": {"median": cq[1], "q1": cq[0], "q3": cq[2]},
            "change_wins": wins,
            "gain_claimable": (sound and wins * 10 >= 9 * len(ps)
                               and pq[1] - cq[1] > pq[2] - pq[0]),
        }
    return out


TABLE_COLUMNS = (("wall_s", "wall s"), ("host_ns_per_access", "ns/access"),
                 ("host_us_per_commit", "us/commit"),
                 ("peak_rss_mb", "peak RSS MB"))


def num(v):
    """Three significant digits, never in exponent form."""
    return "%.0f" % v if v >= 100 else "%#.3g" % v


def table(path):
    """The README Performance table of the trajectory file at path."""
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    rows = ["| Change (parent) | Seed | Workload | "
            + " | ".join(h for _, h in TABLE_COLUMNS) + " |",
            "|---|---|---|" + "---|" * len(TABLE_COLUMNS)]
    for e in doc["entries"]:
        for w, res in e["workloads"].items():
            cells = []
            for m, _ in TABLE_COLUMNS:
                v = res["summary"][m]
                cell = "%s → %s" % (num(v["parent"]["median"]),
                                    num(v["change"]["median"]))
                if m == "wall_s":
                    cell += " (%d/%d)" % (v["change_wins"], e["pairs"])
                cells.append(cell)
            rows.append("| %s (%s) | %d | `%s` | %s |" % (
                e["note"], e["parent"][:7], e["seed"], w, " | ".join(cells)))
    return "\n".join(rows) + "\n"


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--table", metavar="TRAJECTORY",
                    help="print the README table of a trajectory file")
    ap.add_argument("--parent-src")
    ap.add_argument("--change-src")
    ap.add_argument("--parent-commit")
    ap.add_argument("--change-commit",
                    default="the commit that adds this entry")
    ap.add_argument("--build-root")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--note", default="")
    ap.add_argument("--append", help="trajectory JSON file to append to")
    args = ap.parse_args(argv)
    if args.table:
        sys.stdout.write(table(args.table))
        return 0
    missing = [o for o in ("parent_src", "change_src", "parent_commit",
                           "build_root", "workload", "seed")
               if getattr(args, o) is None]
    if missing:
        ap.error("the following arguments are required: " + ", ".join(
            "--" + o.replace("_", "-") for o in missing))
    with open(os.path.join(args.change_src, "BENCHMARK.json"),
              encoding="utf-8") as f:
        seconds = json.load(f)["run_seconds"]

    sides = {"parent": os.path.abspath(args.parent_src),
             "change": os.path.abspath(args.change_src)}
    entry = {"parent": args.parent_commit, "change": args.change_commit,
             "note": args.note, "host": host(), "seed": args.seed,
             "seconds": seconds, "pairs": PAIRS, "workloads": {}}
    for w in args.workload:
        runs = {"parent": [], "change": []}
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change",
                                                             "parent")
            for side in order:
                runs[side].append(run_side(
                    sides[side], os.path.join(args.build_root, side), w,
                    args.seed, seconds))
            print("%s pair %d (%s first): %s" % (
                w, i, order[0], "  ".join(
                    "%s %.3f/%.3f" % (m, runs["parent"][-1][m],
                                      runs["change"][-1][m])
                    for m in METRICS)), flush=True)
        s = summary(runs["parent"], runs["change"])
        for m, v in s.items():
            print("%s %-20s parent %.4g [%.4g, %.4g]  change %.4g "
                  "[%.4g, %.4g]  wins %d/%d%s" % (
                      w, m, v["parent"]["median"], v["parent"]["q1"],
                      v["parent"]["q3"], v["change"]["median"],
                      v["change"]["q1"], v["change"]["q3"],
                      v["change_wins"], PAIRS,
                      "  GAIN" if v["gain_claimable"] else ""))
        entry["workloads"][w] = {"summary": s, "samples": runs}

    if args.append:
        doc = {"schema": "uhtm-perf-trajectory-v1", "entries": []}
        if os.path.exists(args.append):
            with open(args.append, encoding="utf-8") as f:
                doc = json.load(f)
        doc["entries"].append(entry)
        os.makedirs(os.path.dirname(os.path.abspath(args.append)),
                    exist_ok=True)
        with open(args.append, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
