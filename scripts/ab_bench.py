#!/usr/bin/env python3
"""A/B the benchmark: a base revision against the working tree.

    python3 scripts/ab_bench.py --base HEAD~1
    python3 scripts/ab_bench.py --base main --workload pretrain-short --seeds 1-3 --seconds 30

Exports REV with `git archive` into a temporary directory outside the
checkout. Then, per workload and seed, it runs
`python3 perfbench/run.py --workload W --seed S --seconds N --trace 0`
once in the base tree and once in the working tree, alternating which of
the two goes first from one seed to the next. It prints, per end-to-end
metric of BENCHMARK.json, the base and change medians with their
quartiles, the median change, in how many seed pairs the change did
better, the same or worse, and a verdict (see `verdict`); each run's
metrics go to standard error as it ends. It exits 1
if any run fails a check (`failed` > 0), exits nonzero or prints no
result line.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text: str) -> list[int]:
    """`1-5` or `1,3,4` (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"no seeds in {text!r}")
    return seeds


def export(rev: str) -> str:
    """The tree of `rev`, extracted into a new temporary directory."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                         capture_output=True, check=True).stdout
    tree = tempfile.mkdtemp(prefix="offlm-ab-")
    if os.path.commonpath([tree, ROOT]) == ROOT:
        os.rmdir(tree)
        raise SystemExit(f"temporary directory {tree} is inside the checkout; set TMPDIR")
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(tree, filter="data")
    return tree


def run_once(tree: str, workload: str, seed: int, seconds: float) -> dict | None:
    """The result line of one benchmark run, or None if it printed none."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        line = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return None
    line["exit"] = proc.returncode
    return line


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value stands for all three."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def spread(values: list[float]) -> str:
    """`median [q1-q3]`."""
    if len(values) == 1:
        return f"{values[0]:.4g}"
    q1, q2, q3 = quartiles(values)
    return f"{q2:.4g} [{q1:.4g}-{q3:.4g}]"


def verdict(pairs: list[tuple[float, float]], better: str, bound: float) -> str:
    """The choosing-metrics rule over (base, change) pairs of one metric.

    "gain": of at least ten pairs, the change is better in nine tenths
    (ties count for neither), and its median is better than the base's by
    more than the base's interquartile range. "worse than bound": the
    change median is worse than the base median by more than `bound`, a
    share of the base median. "unresolved": otherwise, when the base's
    interquartile range is wider than that bound, unless every change run
    is better than every base run. Else "within bound".
    """
    sign = 1.0 if better == "higher" else -1.0
    base, change = [sign * b for b, _ in pairs], [sign * c for _, c in pairs]
    q1, b_med, q3 = quartiles(base)
    gain = statistics.median(change) - b_med
    wins = sum(c > b for b, c in zip(base, change))
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "gain"
    if -gain > bound * abs(b_med):
        return "worse than bound"
    if q3 - q1 > bound * abs(b_med) and min(change) <= max(base):
        return "unresolved"
    return "within bound"


def report(workload: str, spec: dict, runs: dict[str, list[dict]]) -> None:
    print(f"== {workload}: base -> change, median [quartiles], "
          "seed pairs where the change is better/equal/worse, verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        pairs = [(b["metrics"][name]["value"], c["metrics"][name]["value"])
                 for b, c in zip(runs["base"], runs["change"])
                 if name in b["metrics"] and name in c["metrics"]]
        if not pairs:
            continue
        base, change = [b for b, _ in pairs], [c for _, c in pairs]
        sign = 1.0 if metric["better"] == "higher" else -1.0
        gains = [sign * (c - b) for b, c in pairs]
        better, worse = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
        b_med, c_med = statistics.median(base), statistics.median(change)
        delta = f"{100.0 * (c_med - b_med) / b_med:+.2f}%" if b_med else "n/a"
        print(f"   {name:18s} {spread(base):>30s} -> {spread(change):30s} "
              f"{delta:>9s}  {better}/{len(pairs) - better - worse}/{worse} "
              f"better/equal/worse ({metric['better']} is better)  "
              f"{verdict(pairs, metric['better'], metric['bound'])}")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: every workload)")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-5"),
                        help="seeds, e.g. 1-5 or 1,3 (default 1-5)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    base_tree = export(args.base)
    trees = {"base": base_tree, "change": ROOT}
    ok = True
    try:
        for workload in args.workload or names:
            runs: dict[str, list[dict]] = {"base": [], "change": []}
            for i, seed in enumerate(args.seeds):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    line = run_once(trees[side], workload, seed, args.seconds)
                    if line is None or line["exit"] != 0 or line["failed"] > 0:
                        ok = False
                        print(f"{workload} seed {seed} {side}: FAILED "
                              f"({'no result' if line is None else line})", file=sys.stderr)
                        line = line or {"metrics": {}}
                    else:
                        values = " ".join(f"{name}={m['value']:.9g}"
                                          for name, m in line["metrics"].items())
                        print(f"{workload} seed {seed} {side}: {values}", file=sys.stderr,
                              flush=True)
                    runs[side].append(line)
            report(workload, spec, runs)
    finally:
        shutil.rmtree(base_tree, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
