#!/usr/bin/env python3
"""Run an offlm benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pretrain-short --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Each workload runs in a fresh child
process, one at a time, with the BLAS thread count pinned to at most the
number of usable CPUs. The command prints every metric by name, unit and
sample count, then, as its last line, one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with --trace 0, the per-layer metrics of a traced replay with --trace 1.
It exits nonzero when any output check fails. The full result, with the
environment record and the input properties, is written under
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
CHILD_TIMEOUT_S = 170

# what each generic end-to-end metric means on each workload
READABLE = {
    "pretrain-short": {"throughput_per_s": ("pretrain_tokens_per_s", "real tokens/s"),
                       "read_per_s": ("short_infer_seqs_per_s", "seqs/s"),
                       "loss_nats": ("pretrain_loss_last", "nats")},
    "finetune-full": {"throughput_per_s": ("finetune_examples_per_s", "examples/s"),
                      "read_per_s": ("infer_seqs_per_s", "seqs/s"),
                      "loss_nats": ("finetune_eval_loss", "nats")},
    "cli-pipeline": {"throughput_per_s": ("cli_commands_per_s", "commands/s"),
                     "read_per_s": ("evaluate_rows_per_s", "rows/s"),
                     "loss_nats": ("cli_pretrain_loss_mean", "nats")},
}


def blas_threads() -> str:
    usable = len(os.sched_getaffinity(0))
    requested = os.environ.get("OPENBLAS_NUM_THREADS", "")
    return str(min(usable, int(requested)) if requested.isdigit() and int(requested) > 0
               else usable)


def run_workload(name: str, args, spec: dict) -> tuple[int, dict]:
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    out_path = os.path.join(WORK, "results", f"{tag}.json")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    if os.path.exists(out_path):
        os.remove(out_path)
    env = dict(os.environ)
    threads = blas_threads()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    argv = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--workdir", os.path.join(WORK, tag),
            "--out", out_path]
    # its own process group, so a timeout also ends the CLI processes it runs
    proc = subprocess.Popen(argv, stdout=sys.stderr, env=env, cwd=ROOT, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1, {}
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if not os.path.exists(out_path):
        print(f"{name}: the workload wrote no result (exit {code})", file=sys.stderr)
        return 1, {}
    with open(out_path, encoding="utf-8") as f:
        result = json.load(f)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    if metrics and set(metrics) != {m["name"] for m in wanted}:
        print(f"{name}: metrics differ from BENCHMARK.json: "
              f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}", file=sys.stderr)
        return 1, {}
    line = {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in wanted if m["name"] in metrics}}
    why = next(w["why"] for w in spec["workloads"] if w["name"] == name)
    print_readable(name, why, result, line, bool(args.trace))
    return (0 if result["correct"] else 1), line


def print_readable(name: str, why: str, result: dict, line: dict, traced: bool) -> None:
    print(f"== {name} (seed {result['environment']['seed']}): {why}")
    print(f"   environment {json.dumps(result['environment'], sort_keys=True)}")
    print(f"   inputs {json.dumps(result.get('input_properties', {}), sort_keys=True)}")
    samples = result.get("samples", {})
    for metric, entry in line["metrics"].items():
        readable, unit = READABLE[name].get(metric, (metric, entry["unit"]))
        n = "" if traced else f"  n={samples.get(metric, '?')}"
        label = readable if readable == metric else f"{readable} [{metric}]"
        print(f"   {label:52s} {entry['value']:.6g} {unit}{n}")
    frac = line["failed"] / line["attempted"] if line["attempted"] else 1.0
    print(f"   ops_failed_frac {frac:.4g} ({line['failed']} of {line['attempted']} attempted)")
    for check in result.get("checks_failed", []):
        print(f"   FAILED CHECK: {check}")


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "offlm", "__init__.py")):
        print("src/offlm not found: run from the root of an offlm checkout", file=sys.stderr)
        return 2

    status, lines = 0, {}
    for name in names if args.workload == "all" else [args.workload]:
        code, line = run_workload(name, args, spec)
        status = status or code
        lines[name] = line
    if args.workload != "all":
        if lines[args.workload]:
            print(json.dumps(lines[args.workload]))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
