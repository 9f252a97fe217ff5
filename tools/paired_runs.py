#!/usr/bin/env python3
"""Paired parent/change runs of the repository benchmark, and their verdict.

    python3 tools/paired_runs.py --parent DIR --change DIR --workload NAME \\
        [--seed 1] [--pairs 10] [--seconds 10] [--out paired.jsonl]
    python3 tools/paired_runs.py --self-test

DIR is the root of a checkout. Each tree is built and run by its own
benchmark/run.sh, from its own root and into its own build directory
(DIR/.bench_build). One untimed --trace 1 --seconds 1 run per tree first
builds it and records its deterministic ("det") metrics; then each pair
runs both trees with --trace 0, the parent first in even pairs and the
change first in odd ones. Every timed run's summary line, with its digest,
side and pair, is appended to --out as one JSON object.

For each end-to-end metric of BENCHMARK.json (read from the change tree)
it prints each side's median and quartiles (statistics.quantiles' default
method, as rina_bench_compare uses), the pairs the change wins (ties count
for neither), the ratio of the medians, and a verdict:

    gain          the change wins at least 9 pairs in 10, and its median
                  is better than the parent's by more than the parent's
                  interquartile range;
    regression    the change's median is worse than the parent's by more
                  than the metric's bound (a fraction of the parent's);
    unresolved    neither, and the parent's interquartile range is wider
                  than the bound, unless every change run beats every
                  parent run;
    within bound  otherwise.

Then each side's failed and attempted operations, whether the digests
agree, and "det metrics: same" or each det metric of the traced runs that
differs (name, parent value, change value) or that one side lacks. Those
lines report, they do not fail: a change may move det metrics on purpose.
Exits 1 when a run fails or reports a failed check.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def quartiles(values):
    if len(values) == 1:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def compare(metric, parent, change):
    """The verdict row for one metric; parent[i] and change[i] are pair i."""
    sign = 1 if metric["better"] == "higher" else -1
    bound = metric["bound"]
    pq, cq = quartiles(parent), quartiles(change)
    pm, cm = pq[1], cq[1]
    spread = pq[2] - pq[0]
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    ties = sum(1 for p, c in zip(parent, change) if c == p)
    gained = sign * (cm - pm)
    if 10 * wins >= 9 * len(parent) and gained > spread:
        verdict = "gain"
    elif -gained > bound * abs(pm):
        verdict = "regression"
    elif spread > bound * abs(pm) and not (
        sign * (min(change) if sign > 0 else max(change))
        > sign * (max(parent) if sign > 0 else min(parent))
    ):
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "metric": metric["name"],
        "parent": pq,
        "change": cq,
        "wins": wins,
        "ties": ties,
        "pairs": len(parent),
        "ratio": cm / pm if pm else float("nan"),
        "verdict": verdict,
    }


def parse_run(stdout):
    """(digest line, summary line, {det metric: value}) of one rina_bench
    run's stdout."""
    digest, summary, det = None, None, {}
    for line in stdout.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "digest" in obj:
            digest = obj
        if "metrics" in obj and "correct" in obj:
            summary = obj
        if "metric" in obj and obj.get("det"):
            det[obj["metric"]] = obj["value"]
    return digest, summary, det


def det_diff(parent, change):
    """One line per det metric whose values differ or that one side lacks,
    in the parent's order, then the change's extras; empty when equal."""
    lines = []
    for name, p in parent.items():
        if name not in change:
            lines.append(f"  {name}: parent {p!r}, change lacks it")
        elif change[name] != p:
            lines.append(f"  {name}: parent {p!r}, change {change[name]!r}")
    lines += [f"  {name}: parent lacks it, change {c!r}"
              for name, c in change.items() if name not in parent]
    return lines


def run_tree(tree, args, seconds, trace=0):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(tree, ".bench_build"))
    cmd = ["bash", "benchmark/run.sh", "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True)
    digest, summary, det = parse_run(p.stdout)
    if p.returncode != 0 or summary is None:
        sys.exit(f"paired_runs: {tree}: run.sh exited {p.returncode}")
    return digest, summary, det


def report(metrics, records, det):
    by_side = {"parent": [], "change": []}
    for r in sorted(records, key=lambda r: r["pair"]):
        by_side[r["side"]].append(r)
    print(f"{'metric':<16}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}"
          f"{'wins':>8}{'ties':>6}{'ratio':>9}  verdict")
    for m in metrics:
        vals = {s: [r["summary"]["metrics"][m["name"]]["value"] for r in rs]
                for s, rs in by_side.items()}
        row = compare(m, vals["parent"], vals["change"])
        fmt = lambda q: f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"
        print(f"{m['name']:<16}{fmt(row['parent']):>34}{fmt(row['change']):>34}"
              f"{row['wins']:>4}/{row['pairs']:<3}{row['ties']:>6}{row['ratio']:>9.3f}"
              f"  {row['verdict']}")
    bad = False
    for side, rs in by_side.items():
        failed = sum(r["summary"]["failed"] for r in rs)
        attempted = sum(r["summary"]["attempted"] for r in rs)
        incorrect = sum(1 for r in rs if not r["summary"]["correct"])
        bad |= incorrect > 0
        print(f"{side}: {failed} of {attempted} operations failed; "
              f"{incorrect} of {len(rs)} runs failed a check")
    digests = {s: {r["digest"] for r in rs} for s, rs in by_side.items()}
    print("digests: " + ("same" if digests["parent"] == digests["change"]
                         else f"parent {sorted(digests['parent'])} change "
                              f"{sorted(digests['change'])}"))
    diff = det_diff(det["parent"], det["change"])
    print("det metrics: " + ("same" if not diff else "differ\n" + "\n".join(diff)))
    return bad


def self_test():
    """The verdicts on canned inputs: a gain, a regression, an unresolved
    metric, ties, the run parser, and equal, moved and missing det
    metrics."""
    higher = {"name": "sim_rate", "better": "higher", "bound": 0.25}
    lower = {"name": "setup_s", "better": "lower", "bound": 0.25}
    rss = {"name": "peak_rss_mb", "better": "lower", "bound": 0.05}
    ratio = {"name": "delivery_ratio", "better": "higher", "bound": 0.001}
    parent = [15.0, 15.4, 15.2, 16.3, 15.1, 15.5, 14.9, 15.6, 15.3, 16.0]
    checks = []

    gain = compare(higher, parent, [23.0, 24.1, 22.9, 25.5, 23.5, 23.7, 14.0, 24.0, 23.2, 24.4])
    checks.append(("9 of 10 wins, far apart: gain", gain["verdict"] == "gain" and gain["wins"] == 9))
    near = compare(higher, parent, [v + 0.1 for v in parent])
    checks.append(("10 wins inside the parent's spread: no gain",
                   near["verdict"] == "within bound" and near["wins"] == 10))
    eight = compare(higher, parent, [40.0] * 8 + [1.0] * 2)
    checks.append(("8 of 10 wins: no gain", eight["verdict"] != "gain" and eight["wins"] == 8))

    reg = compare(rss, [15.85] * 10, [16.9] * 10)
    checks.append(("+6.6% past a 5% bound: regression", reg["verdict"] == "regression"))
    ok = compare(rss, [15.85] * 10, [15.94] * 10)
    checks.append(("+0.6% inside a 5% bound", ok["verdict"] == "within bound"))

    noisy = [0.211, 0.381, 0.25, 0.3, 0.22, 0.35, 0.24, 0.33, 0.27, 0.29]
    unres = compare(lower, noisy, [v * 1.05 for v in noisy])
    checks.append(("parent spread wider than the bound: unresolved",
                   unres["verdict"] == "unresolved"))
    far = compare(lower, noisy, [0.1] * 10)
    checks.append(("every change run far better: gain", far["verdict"] == "gain"))
    beats = compare(lower, [0.2, 0.2, 0.4, 0.4], [0.19] * 4)
    checks.append(("every change run better, inside a wide spread: within bound",
                   beats["verdict"] == "within bound"))
    worse = compare(lower, noisy, [v * 1.4 for v in noisy])
    checks.append(("a median 40% worse is a regression even when noisy",
                   worse["verdict"] == "regression"))

    ties = compare(ratio, [1.0] * 10, [1.0] * 10)
    checks.append(("all ties: no wins, within bound",
                   ties["wins"] == 0 and ties["ties"] == 10 and ties["verdict"] == "within bound"))
    mixed = compare(higher, [1.0, 2.0, 3.0, 4.0], [1.0, 2.5, 2.0, 4.0])
    checks.append(("ties count for neither side", mixed["wins"] == 1 and mixed["ties"] == 2))
    checks.append(("quartiles as statistics.quantiles",
                   quartiles([1.0, 2.0, 3.0, 4.0]) == [1.25, 2.5, 3.75]
                   and quartiles([5.0]) == [5.0, 5.0, 5.0]))

    out = ('{"workload":"control_churn","seed":1,"digest":"53e8ef41c64c6e75","ok":true}\n'
           '{"correct":true,"attempted":5000,"failed":0,"metrics":{"sim_rate":'
           '{"value":17.6,"unit":"sim_s/s"}}}\n')
    digest, summary, _ = parse_run(out)
    checks.append(("parses the digest and summary lines",
                   digest["digest"] == "53e8ef41c64c6e75" and summary["attempted"] == 5000
                   and summary["metrics"]["sim_rate"]["value"] == 17.6))
    traced = ('{"workload":"control_churn","seed":1,"metric":"sim.events","value":91234,'
              '"unit":"count","kind":"layer","det":true}\n'
              '{"workload":"control_churn","seed":1,"metric":"sim.ns_per_event","value":61.5,'
              '"unit":"ns","kind":"layer","det":false}\n'
              '{"workload":"control_churn","seed":1,"metric":"converge_ms","value":0.405,'
              '"unit":"ms","kind":"e2e","det":true}\n' + out)
    det = parse_run(traced)[2]
    checks.append(("keeps the det metrics, e2e and layer, and only those",
                   det == {"sim.events": 91234, "converge_ms": 0.405}))
    checks.append(("equal det metrics: no line", det_diff(det, dict(det)) == []))
    moved = det_diff(det, {"sim.events": 91235, "converge_ms": 0.405})
    checks.append(("a moved det metric: its name and both values",
                   moved == ["  sim.events: parent 91234, change 91235"]))
    missing = det_diff(det, {"sim.events": 91234, "rmt.drops": 0})
    checks.append(("a det metric one side lacks, either way",
                   missing == ["  converge_ms: parent 0.405, change lacks it",
                               "  rmt.drops: parent lacks it, change 0"]))

    for name, passed in checks:
        print(("ok    " if passed else "FAIL  ") + name)
    return all(passed for _, passed in checks)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--out", default="paired.jsonl")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return 0 if self_test() else 1
    if not (args.parent and args.change and args.workload) or args.pairs < 1:
        ap.error("--parent, --change and --workload are required, and --pairs >= 1")
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
        metrics = json.load(f)["end_to_end"]

    # Build each tree and keep its det metrics; not timed.
    det = {side: run_tree(tree, args, 1, trace=1)[2] for side, tree in trees.items()}
    records = []
    with open(args.out, "a") as out:
        for pair in range(args.pairs):
            order = ["parent", "change"] if pair % 2 == 0 else ["change", "parent"]
            for side in order:
                digest, summary, _ = run_tree(trees[side], args, args.seconds)
                rec = {"side": side, "pair": pair, "first": side == order[0],
                       "workload": args.workload, "seed": args.seed,
                       "seconds": args.seconds, "digest": digest and digest.get("digest"),
                       "summary": summary}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                records.append(rec)
    print(f"{args.workload} seed {args.seed}: {args.pairs} pairs of {args.seconds:g} s")
    return 1 if report(metrics, records, det) else 0


if __name__ == "__main__":
    sys.exit(main())
