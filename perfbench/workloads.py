"""The three benchmark workloads. Each runs in its own child process:

    python3 perfbench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR --out RESULT.json

A workload is a list of phases. Each phase calls one offlm entry point
again and again, timing every call. The calls of all phases interleave
over the whole of --seconds, each phase getting its share of the time
and at least its minimum number of calls, so a slow spell of a shared
machine lands on every phase alike. End-to-end figures are medians over
those calls; every call's time is kept in the result file. As in timeit,
the garbage collector is paused inside each timed call.

With --trace 1 every phase instead runs exactly its minimum number of
calls twice, untraced and then under the outside-in tracer. The traced
outputs must equal the untraced ones bitwise; the difference in wall
time is the tracing overhead.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import gen
import tracer as tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

from offlm import corpus, evaluation, tokenizer, training  # noqa: E402
from offlm import model as M  # noqa: E402

EMOJI_MAP = os.path.join(SRC, "offlm", "data", "emoji_map.tsv")
TOY_CONFIG = os.path.join(ROOT, "tests", "fixtures", "toy_config.json")
SETUP_REPS = 3
CMD_TIMEOUT_S = 120


class CommandFailed(Exception):
    pass


@dataclass
class Phase:
    name: str
    share: float                     # of --seconds, untraced measuring
    min_reps: int                    # also the fixed plan of a traced run
    step: Callable[[int], object]    # one timed call, given its index
    units: Callable[[object], float]  # work units done by one call
    before: Callable[[], None] = lambda: None  # untimed, once per pass
    digest: Callable[[object], object] = lambda out: out  # kept for comparison


@dataclass
class PhaseResult:
    times: list = field(default_factory=list)
    units: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    last: object = None

    @property
    def wall(self) -> float:
        return sum(self.times)

    def median_rate(self) -> float:
        return statistics.median(u / t for u, t in zip(self.units, self.times))


class Checks:
    """Output checks; each one that fails counts as a failed operation."""

    def __init__(self):
        self.passed, self.failed = [], []

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        (self.passed if ok else self.failed).append(name)
        if not ok:
            print(f"CHECK FAILED: {name} {detail}", file=sys.stderr)


def run_phases(phases: list[Phase], seconds: float, fixed: bool) -> dict[str, PhaseResult]:
    """One pass: the first call of each phase in list order (a later phase
    may use what an earlier one made), then always the phase furthest
    behind its share of the time spent, while every minimum is unmet or
    the next call fits in --seconds. With `fixed`, exactly the minimum
    number of calls."""
    results = {phase.name: PhaseResult() for phase in phases}
    for phase in phases:
        phase.before()

    def behind(phase):
        return results[phase.name].wall / phase.share

    start = time.perf_counter()
    while True:
        pending = [p for p in phases if len(results[p.name].times) < p.min_reps]
        if fixed and not pending:
            break
        over = fixed or time.perf_counter() - start >= seconds
        firsts = [p for p in phases if not results[p.name].times]
        phase = firsts[0] if firsts else min(pending if over and pending else phases, key=behind)
        if not pending and time.perf_counter() - start + results[phase.name].times[-1] > seconds:
            break  # every minimum is met and the next call would overrun
        res = results[phase.name]
        gc.collect()  # like timeit: no collector pauses inside a timed call
        gc.disable()
        try:
            t0 = time.perf_counter()
            out = phase.step(len(res.times))
            res.times.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        res.units.append(phase.units(out))
        res.digests.append(phase.digest(out))
        res.last = out
    return results


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path) -> str:
    with open(path, "rb") as f:
        return sha256_bytes(f.read())


def params_equal(a: M.Model, b: M.Model) -> bool:
    return a.params.keys() == b.params.keys() and all(
        np.array_equal(a.params[k].data, b.params[k].data) for k in a.params)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_command(argv: list[str]) -> int:
    """Run a child process to its end and return its exit code. The wait
    blocks in waitpid, so a clock around this call stops when the child
    exits (subprocess.run with a timeout polls in sleeps of up to 50 ms,
    which rounds a 0.5 s command by up to 10%); a timer kills the child
    after CMD_TIMEOUT_S instead."""
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, env=child_env())
    timer = threading.Timer(CMD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        return proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def input_properties(texts: list[str], pieces: Optional[list[int]] = None,
                     max_len: Optional[int] = None, mask_prob: Optional[float] = None,
                     raw: Optional[list[str]] = None) -> dict:
    """What later changes will cite: shares of padding and of loss-carrying
    positions, mean real pieces, hashtag share, word types, distinct texts."""
    props = {"texts": len(texts), "distinct_texts": len(set(texts)),
             "word_types": len({w.lower() for t in texts for w in t.split()})}
    if raw is not None:
        props["hashtag_share"] = sum("#" in t for t in raw) / len(raw)
    if pieces is not None:
        real = [min(p, max_len - 2) + 2 for p in pieces]
        props["mean_real_pieces"] = statistics.fmean(pieces)
        props["padded_share"] = 1.0 - sum(real) / (len(real) * max_len)
        if mask_prob is not None:
            props["loss_carrying_share_of_real"] = mask_prob * sum(r - 2 for r in real) / sum(real)
    return props


# ---------------------------------------------------------------------------
# pretrain-short


class PretrainShort:
    vocab_size, batch, max_len, num_batches = 4000, 32, 128, 12
    loss_steps = 6  # pretrain_loss_last averages the last three of these steps
    sources = {"throughput_per_s": "train", "read_per_s": "read"}

    def __init__(self, seed: int, workdir: str, checks: Checks):
        self.seed, self.workdir, self.check = seed, workdir, checks

    def setup(self) -> dict:
        src = gen.TweetSource(self.seed, gen.read_emoji_map(EMOJI_MAP))
        tokens = src.model_vocab(self.vocab_size)
        vocab_set = frozenset(tokens)
        vocab_path = os.path.join(self.workdir, "vocab.txt")
        gen.write_lines(vocab_path, tokens)
        self.batches, pieces = [], []
        for _ in range(self.num_batches + 2):
            lengths = gen.stratified_lengths(src.rng, self.batch, 10, 50)
            self.batches.append([src.clean_text(p, vocab_set, False) for p in lengths])
            pieces += lengths
        self.heldout = self.batches.pop() + self.batches.pop()
        self.tokens_per_batch = sum(pieces[: self.batch]) + 2 * self.batch
        self.vocab = tokenizer.load_vocab(vocab_path)
        self.mcfg = M.ModelConfig(vocab_size=len(self.vocab), num_layers=2, hidden_size=128,
                                  num_heads=4, max_position=self.max_len, dropout_rate=0.1)
        self.pcfg = training.PretrainConfig(epochs=1, batch_size=self.batch,
                                            max_len=self.max_len, lr=1e-3, seed=self.seed)
        self.read_model = M.init_params(self.mcfg, self.seed + 1)
        warm = M.init_params(self.mcfg, self.seed)
        training.pretrain(self.heldout[: self.batch], self.vocab, warm, self.pcfg)
        training.predict_class_ids(self.heldout, self.vocab, self.read_model, self.max_len)
        return input_properties([t for b in self.batches for t in b], pieces,
                                self.max_len, self.pcfg.mask_prob)

    def phases(self) -> list[Phase]:
        def reset():
            self.model = M.init_params(self.mcfg, self.seed)

        def train(rep):
            cfg = dataclasses.replace(self.pcfg, seed=self.seed * 1000 + rep)
            return training.pretrain(self.batches[rep % self.num_batches], self.vocab,
                                     self.model, cfg)

        def read(rep):
            return training.predict_class_ids(self.heldout, self.vocab, self.read_model,
                                              self.max_len, batch_size=self.batch)

        return [
            Phase("train", 0.7, self.loss_steps, train, lambda log: self.tokens_per_batch,
                  before=reset, digest=lambda log: [(s.step, s.loss, s.grad_norm) for s in log.steps]),
            Phase("read", 0.3, 4, read, lambda preds: len(self.heldout)),
        ]

    def finish(self, res: dict[str, PhaseResult]) -> dict:
        logs = res["train"].digests
        self.check("pretrain: one step per call", all(len(d) == 1 for d in logs))
        losses = [d[0][1] for d in logs]
        self.check("pretrain: losses finite", all(math.isfinite(x) for x in losses))
        preds = res["read"].digests
        self.check("predict: labels declared", all(p in (0, 1) for p in preds[0]))
        self.check("predict: repeat calls agree", all(p == preds[0] for p in preds))
        return {
            "throughput_per_s": res["train"].median_rate(),
            "read_per_s": res["read"].median_rate(),
            "loss_nats": statistics.fmean(losses[self.loss_steps - 3: self.loss_steps]),
        }


# ---------------------------------------------------------------------------
# finetune-full


class FinetuneFull:
    vocab_size, max_len, batch = 4000, 64, 16
    num_train, num_heldout = 200, 128
    sources = {"throughput_per_s": "train", "read_per_s": "read"}

    def __init__(self, seed: int, workdir: str, checks: Checks):
        self.seed, self.workdir, self.check = seed, workdir, checks

    def setup(self) -> dict:
        src = gen.TweetSource(self.seed, gen.read_emoji_map(EMOJI_MAP))
        tokens = src.model_vocab(self.vocab_size)
        vocab_set = frozenset(tokens)
        vocab_path = os.path.join(self.workdir, "vocab.txt")
        gen.write_lines(vocab_path, tokens)
        lengths = [62 + int(src.rng.integers(9)) for _ in range(self.num_train + self.num_heldout)]
        rows = gen.labeled_clean(src, vocab_set, lengths, noise=0.1)
        train_path = os.path.join(self.workdir, "train.tsv")
        heldout_path = os.path.join(self.workdir, "heldout.tsv")
        header = ["id", "text", "label"]
        gen.write_tsv(train_path, header, [list(r) for r in rows[: self.num_train]])
        gen.write_tsv(heldout_path, header, [list(r) for r in rows[self.num_train:]])
        self.vocab = tokenizer.load_vocab(vocab_path)
        self.train = corpus.load_labeled(train_path, gen.LABELS)
        self.heldout = corpus.load_labeled(heldout_path, gen.LABELS)
        self.texts = [d.text for d in self.heldout]
        self.mcfg = M.ModelConfig(vocab_size=len(self.vocab), num_layers=2, hidden_size=128,
                                  num_heads=4, max_position=self.max_len, dropout_rate=0.1)
        self.fcfg = training.FinetuneConfig(
            epochs=2, batch_size=self.batch, lr=1e-3, max_len=self.max_len,
            eval_fraction=0.2, evals_per_epoch=2, eval_patience=2, seed=self.seed)
        warm = M.init_params(self.mcfg, self.seed)
        training.finetune(self.train[:40], self.vocab, warm,
                          dataclasses.replace(self.fcfg, epochs=1), gen.LABELS)
        training.predict_class_ids(self.texts[:32], self.vocab, warm, self.max_len)
        return input_properties([d.text for d in self.train + self.heldout], lengths,
                                self.max_len)

    def phases(self) -> list[Phase]:
        run_dir = os.path.join(self.workdir, "finetune")

        def train(rep):
            self.model = M.init_params(self.mcfg, self.seed)
            return training.finetune(self.train, self.vocab, self.model, self.fcfg,
                                     gen.LABELS, checkpoint_dir=run_dir)

        def read(rep):
            return training.predict_class_ids(self.texts, self.vocab, self.model,
                                              self.max_len, batch_size=32)

        def examples(log):
            return len(log.steps) * self.batch

        return [
            Phase("train", 0.7, 3, train, examples,
                  digest=lambda log: ([(s.step, s.loss, s.grad_norm) for s in log.steps],
                                      [(e.step, e.loss) for e in log.evals], log.stop_reason)),
            Phase("read", 0.3, 3, read, lambda preds: len(self.texts)),
        ]

    def finish(self, res: dict[str, PhaseResult]) -> dict:
        runs = res["train"].digests
        self.check("finetune: repeat runs agree", all(r == runs[0] for r in runs))
        n_train = self.num_train - round(self.num_train * self.fcfg.eval_fraction)
        self.check("finetune: whole batches", n_train % self.batch == 0)
        evals = [loss for _, loss in runs[0][1]]
        self.check("finetune: eval losses finite", bool(evals) and all(map(math.isfinite, evals)))
        best = M.load_checkpoint(os.path.join(self.workdir, "finetune", "best"))
        self.check("finetune: best/ reloads bitwise", params_equal(best, self.model))
        preds = res["read"].digests
        reloaded = training.predict_class_ids(self.texts, self.vocab, best, self.max_len,
                                              batch_size=32)
        self.check("finetune: best/ reproduces predictions", reloaded == preds[0])
        self.check("predict: repeat calls agree", all(p == preds[0] for p in preds))
        self.check("predict: labels declared", all(p in (0, 1) for p in preds[0]))
        names = [gen.LABELS[p] for p in preds[0]]
        cm = evaluation.confusion(names, [d.label for d in self.heldout], gen.LABELS)
        self.check("predict: confusion total is n", cm.total == len(self.heldout))
        report = evaluation.make_report(cm, "heldout", "finetune-full", {})
        print(f"finetune-full heldout macro F1 {report.macro_f1:.4f}", file=sys.stderr)
        return {
            "throughput_per_s": res["train"].median_rate(),
            "read_per_s": res["read"].median_rate(),
            "loss_nats": min(evals),
        }


# ---------------------------------------------------------------------------
# cli-pipeline


class CliPipeline:
    num_scored, num_labeled, num_heldout = 30, 20, 1000
    bins = "0.5:1.0,0.7:1.0"
    sources = {"throughput_per_s": "pipeline", "read_per_s": "evaluate"}

    def __init__(self, seed: int, workdir: str, checks: Checks):
        self.seed, self.workdir, self.check = seed, workdir, checks
        self.traced = False

    def setup(self) -> dict:
        src = gen.TweetSource(self.seed, gen.read_emoji_map(EMOJI_MAP))
        rows = gen.scored_rows(src, self.num_scored)
        vocab_set = frozenset(src.words[:2000])
        lengths = gen.stratified_lengths(src.rng, self.num_labeled, 6, 9)
        labeled = gen.labeled_clean(src, vocab_set, lengths)
        heldout = gen.labeled_clean(
            src, vocab_set, gen.stratified_lengths(src.rng, self.num_heldout, 6, 9))
        self.inputs = {name: os.path.join(self.workdir, name)
                       for name in ("scored.tsv", "labeled.tsv", "lexicon.tsv", "heldout.tsv")}
        gen.write_tsv(self.inputs["scored.tsv"], ["id", "text", "average"], rows)
        gen.write_tsv(self.inputs["labeled.tsv"], ["id", "text", "label"], [list(r) for r in labeled])
        gen.write_tsv(self.inputs["heldout.tsv"], ["id", "text", "label"], [list(r) for r in heldout])
        gen.write_lines(self.inputs["lexicon.tsv"], ["\t".join(r) for r in gen.lexicon_rows(src, 200)])
        with open(TOY_CONFIG, encoding="utf-8") as f:
            json.load(f)
        self.hashes = {path: sha256_file(path) for path in self.inputs.values()}
        if run_command([sys.executable, "-m", "offlm.cli", "--help"]) != 0:
            raise CommandFailed("offlm --help failed")
        return input_properties([r[1] for r in rows] + [r[1] for r in labeled],
                                raw=[r[1] for r in rows])

    def commands(self, work: str) -> list[tuple[str, list[str]]]:
        i = self.inputs
        sel, clean, vocab = (os.path.join(work, n) for n in ("selected.tsv", "clean.tsv", "vocab.txt"))
        return [
            ("select", ["select", "--input", i["scored.tsv"], "--lo", "0.5", "--hi", "1.0",
                        "--output", sel]),
            ("preprocess", ["preprocess", "--input", sel, "--output", clean,
                            "--emoji-map", EMOJI_MAP, "--lexicon", i["lexicon.tsv"]]),
            ("build-vocab", ["build-vocab", "--input", clean, "--size", "400", "--output", vocab]),
            ("pretrain", ["pretrain", "--config", TOY_CONFIG, "--corpus", clean, "--vocab", vocab,
                          "--output-dir", os.path.join(work, "pre")]),
            ("finetune", ["finetune", "--config", TOY_CONFIG, "--train", i["labeled.tsv"],
                          "--vocab", vocab, "--labels", "not,off",
                          "--init-checkpoint", os.path.join(work, "pre", "final"),
                          "--output-dir", os.path.join(work, "fine")]),
            ("evaluate", ["evaluate", "--model-dir", os.path.join(work, "fine"),
                          "--data", i["labeled.tsv"], "--output-dir", os.path.join(work, "eval"),
                          "--format", "markdown"]),
            ("sweep", ["sweep", "--config", TOY_CONFIG, "--scored", i["scored.tsv"],
                       "--train", i["labeled.tsv"], "--vocab", vocab, "--labels", "not,off",
                       "--bins", self.bins, "--output-dir", os.path.join(work, "sweep"),
                       "--format", "markdown"]),
        ]

    def run_cli(self, name: str, args: list[str], work: str) -> float:
        """One offlm command in a fresh interpreter (under the tracer when
        tracing); returns its wall time."""
        if self.traced:
            trace_path = os.path.join(work, f"trace-{len(self.traces)}-{name}.json")
            argv = [sys.executable, os.path.join(HERE, "cli_traced.py"), trace_path, *args]
        else:
            argv = [sys.executable, "-m", "offlm.cli", *args]
        t0 = time.perf_counter()
        code = run_command(argv)
        wall = time.perf_counter() - t0
        if code != 0:
            raise CommandFailed(f"offlm {name} exited {code}")
        if self.traced:
            with open(trace_path, encoding="utf-8") as f:
                self.traces.append(json.load(f))
        return wall

    def pipeline(self, rep: int) -> dict:
        work = os.path.join(self.workdir, f"{'traced' if self.traced else 'run'}-{rep}")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        walls = {name: self.run_cli(name, args, work) for name, args in self.commands(work)}
        self.walls.append(walls)
        return {"work": work, "walls": walls}

    def evaluate(self, rep: int) -> str:
        """`evaluate` of the first pipeline's fine-tuned model on the held-out
        file: the pipeline's read path, timed on its own."""
        first = self.first_work
        out = os.path.join(first, f"heldout-eval-{rep}")
        self.run_cli("evaluate", [
            "evaluate", "--model-dir", os.path.join(first, "fine"),
            "--data", self.inputs["heldout.tsv"], "--output-dir", out, "--format", "markdown"],
            first)
        return out

    def outputs(self, out: dict) -> dict:
        """Everything the pipeline wrote that must repeat bitwise."""
        work = out["work"]
        digests = {}
        for sub in ("pre/final", "fine/best", "fine/final", "sweep/bin-0/finetune/final",
                    "sweep/bin-1/finetune/final"):
            with open(os.path.join(work, sub, "manifest.json"), encoding="utf-8") as f:
                digests[sub] = {k: v["sha256"] for k, v in json.load(f)["params"].items()}
        for name in ("selected.tsv", "clean.tsv", "vocab.txt", "eval/report.md",
                     "eval/predictions.tsv", "sweep/sweep.md"):
            digests[name] = sha256_file(os.path.join(work, name))
        return digests

    def phases(self) -> list[Phase]:
        def start():
            self.walls, self.traces = [], []

        def pipeline(rep):
            out = self.pipeline(rep)
            if rep == 0:
                self.first_work = out["work"]
            return out

        def predictions(out):
            with open(os.path.join(out, "predictions.tsv"), encoding="utf-8") as f:
                return [ln.split("\t") for ln in f.read().splitlines()[1:]]

        return [
            Phase("pipeline", 0.75, 1, pipeline, lambda out: len(out["walls"]),
                  before=start, digest=self.outputs),
            Phase("evaluate", 0.25, 5, self.evaluate, lambda out: self.num_heldout,
                  digest=predictions),
        ]

    def finish(self, res: dict[str, PhaseResult]) -> dict:
        r = res["pipeline"]
        self.check("cli: repeat pipelines agree", all(d == r.digests[0] for d in r.digests))
        work = r.last["work"]
        manifests = {
            "selected.tsv.manifest.json": [self.inputs["scored.tsv"]],
            "clean.tsv.manifest.json": [self.inputs["lexicon.tsv"], EMOJI_MAP],
            "fine/manifest.json": [self.inputs["labeled.tsv"]],
            "eval/manifest.json": [self.inputs["labeled.tsv"]],
            "sweep/manifest.json": [self.inputs["scored.tsv"], self.inputs["labeled.tsv"]],
        }
        for rel, inputs in manifests.items():
            with open(os.path.join(work, rel), encoding="utf-8") as f:
                recorded = json.load(f)["inputs"]
            ok = all(recorded.get(p) == self.hashes.get(p, sha256_file(p)) for p in inputs)
            self.check(f"cli: {rel} hashes its inputs", ok)
        with open(os.path.join(work, "eval", "report.md"), encoding="utf-8") as f:
            f1 = [float(m.group(1)) for m in re.finditer(r"\|\s*([01]\.\d{4})\s*\|", f.read())]
        self.check("cli: evaluate report parses", len(f1) == 1 and 0.0 <= f1[0] <= 1.0)
        with open(os.path.join(work, "sweep", "sweep.md"), encoding="utf-8") as f:
            rows = [ln for ln in f.read().splitlines() if re.match(r"\|\s*0\.\d", ln)]
        self.check("cli: sweep table parses", len(rows) == len(self.bins.split(",")))
        with open(os.path.join(work, "pre", "trainlog.jsonl"), encoding="utf-8") as f:
            losses = [rec["loss"] for rec in map(json.loads, f) if rec["kind"] == "step"]
        self.check("cli: pretrain logged finite losses",
                   bool(losses) and all(map(math.isfinite, losses)))
        preds = res["evaluate"].digests
        self.check("cli: repeat evaluates agree", all(p == preds[0] for p in preds))
        self.check("cli: evaluate predicts every held-out row",
                   len(preds[0]) == self.num_heldout
                   and all(len(row) == 3 and row[2] in gen.LABELS for row in preds[0]))
        return {
            "throughput_per_s": r.median_rate(),
            "read_per_s": res["evaluate"].median_rate(),
            "loss_nats": statistics.fmean(losses),
        }


WORKLOADS = {"pretrain-short": PretrainShort, "finetune-full": FinetuneFull,
             "cli-pipeline": CliPipeline}


def environment(seed: int) -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except OSError:
        commit = None
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas_name, "blas_version": blas_version,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit, "seed": seed}


def timed_setup(workload) -> tuple[list[float], list[float], dict]:
    """Set the workload up SETUP_REPS times from scratch; each time includes
    a fresh interpreter importing the package."""
    walls, imports, props = [], [], {}
    code = ("import time; t = time.perf_counter(); import offlm.cli; "
            "print(time.perf_counter() - t)")
    for _ in range(SETUP_REPS):
        shutil.rmtree(workload.workdir, ignore_errors=True)
        os.makedirs(workload.workdir)
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, env=child_env(), timeout=CMD_TIMEOUT_S).stdout
        props = workload.setup()
        walls.append(time.perf_counter() - t0)
        imports.append(float(out))
    return walls, imports, props


def traced_metrics(workload, phases, untraced, imports) -> dict:
    """Replay the untraced plan under the tracer; per-layer totals over it."""
    if isinstance(workload, CliPipeline):
        workload.traced = True
    t = tracing.Tracer().install()
    try:
        traced = run_phases(phases, 0.0, fixed=True)
    finally:
        t.uninstall()
    for name, res in traced.items():
        workload.check(f"trace: {name} outputs bitwise equal untraced",
                       res.digests == untraced[name].digests)
    exports = [t.export()] + getattr(workload, "traces", [])
    os.makedirs(os.path.join(workload.workdir, "trace"), exist_ok=True)
    with open(os.path.join(workload.workdir, "trace", "spans.json"), "w", encoding="utf-8") as f:
        json.dump(exports, f)
    metrics = tracing.layer_metrics(tracing.merge(exports))
    cli_walls = workload.walls[-1] if isinstance(workload, CliPipeline) else {}
    for cmd in tracing.CLI_COMMANDS:
        metrics[f"cli.{cmd}.ms"] = cli_walls.get(cmd, 0.0) * 1e3
    metrics["cli.import_ms"] = statistics.median(imports) * 1e3
    metrics["trace.overhead_frac"] = (sum(r.wall for r in traced.values())
                                      / sum(r.wall for r in untraced.values()) - 1.0)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    checks = Checks()
    workload = WORKLOADS[args.workload](args.seed, args.workdir, checks)
    result = {"workload": args.workload, "environment": environment(args.seed)}
    errors = 0
    reps = 0
    try:
        setup_walls, imports, result["input_properties"] = timed_setup(workload)
        phases = workload.phases()
        untraced = run_phases(phases, args.seconds, fixed=bool(args.trace))
        reps = sum(len(r.times) for r in untraced.values())
        result["times_s"] = {name: r.times for name, r in untraced.items()}
        e2e = workload.finish(untraced)
        e2e["setup_s"] = statistics.median(setup_walls)
        self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        e2e["peak_rss_mb"] = (child_rss if isinstance(workload, CliPipeline) else self_rss) / 1024
        result["samples"] = {"setup_s": len(setup_walls), "peak_rss_mb": 1, "loss_nats": 1}
        for metric, phase in workload.sources.items():
            result["samples"][metric] = len(untraced[phase].times)
        result["metrics"] = traced_metrics(workload, phases, untraced, imports) if args.trace else e2e
        result["end_to_end_untraced"] = e2e
    except Exception:  # the workload boundary: report, count, and fail the run
        traceback.print_exc()
        errors += 1
    result["attempted"] = reps + len(checks.passed) + len(checks.failed) + errors
    result["failed"] = len(checks.failed) + errors
    result["checks_failed"] = checks.failed
    result["correct"] = result["failed"] == 0 and "metrics" in result
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1, sort_keys=True, default=float)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
