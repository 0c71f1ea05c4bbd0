"""Outside-in tracer for offlm.

`Tracer.install()` replaces every public function of the package's
modules with a timing wrapper, in every offlm module namespace that
holds a reference to it. That catches the names `offlm.training` and
`offlm.cli` import with `from .model import encode`, and the `ag.<op>`
lookups of `offlm.model`. Each operation returned by an autograd
primitive also gets its `ctx.backward_fn` wrapped, so backward time is
charged to the op that recorded it. `uninstall()` puts every original
back. Spans (name, start, end, parent) stay in memory until `dump()`.

Nothing under `src/` is edited; the wrappers only add clock reads and a
few counters, so traced results must equal untraced ones bitwise.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import os
import sys
import time
import unicodedata
from collections import Counter, defaultdict

LAYERS = ("autograd", "model", "optim", "training", "tokenizer", "textprep",
          "corpus", "evaluation", "cli")
# private helpers that one per-layer metric needs (training.data_wait_ms)
PRIVATE = {"training": ("_stack_batch",)}
OPS = ("add", "mul", "matmul", "softmax", "gelu", "tanh", "layer_norm",
       "embedding", "dropout", "reshape", "transpose", "take", "sum",
       "masked_cross_entropy")
_OP_OF_FUNCTION = {"tensor_sum": "sum"}
_NOT_OPS = ("backward", "zero_grads")
DATA_WAIT = ("tokenizer.tokenize", "training.mask_tokens", "training._stack_batch")
TRAIN_LOOPS = ("training.pretrain", "training.finetune")
CLI_COMMANDS = ("select", "preprocess", "build-vocab", "pretrain", "finetune",
                "evaluate", "sweep")
_SPECIALS = frozenset(("[PAD]", "[UNK]", "[CLS]", "[SEP]", "[MASK]"))


def _clean(word: str) -> str:
    decomposed = unicodedata.normalize("NFD", word.lower())
    return "".join(c for c in decomposed if unicodedata.category(c) != "Mn")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack: list[int] = []
        self.counters: Counter = Counter()
        self._texts: set = set()
        self._patched: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def call(self, name: str, fn, args, kwargs):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(math.nan)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def _root(self) -> int:
        return self._stack[0] if self._stack else len(self.names)

    # -- wrappers -----------------------------------------------------------

    def _plain(self, name: str, fn, hook):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            root = self._root()
            result = self.call(name, fn, args, kwargs)
            if hook is not None:
                hook(root, args, kwargs, result)
            return result
        return wrapper

    def _op(self, op: str, fn, hook):
        fwd_name = f"autograd.op.{op}.fwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(fwd_name, fn, args, kwargs)
            ctx = getattr(out, "ctx", None)
            if ctx is not None and not hasattr(ctx.backward_fn, "_bench_op"):
                ctx.backward_fn = self._backward(ctx.op, ctx.backward_fn)
            if hook is not None:
                hook(None, args, kwargs, out)
            return out
        return wrapper

    def _backward(self, op: str, fn):
        name = f"autograd.op.{op}.bwd"

        def timed(g):
            return self.call(name, fn, (g,), {})
        timed._bench_op = op
        return timed

    def install(self) -> "Tracer":
        modules = {layer: importlib.import_module(f"offlm.{layer}") for layer in LAYERS}
        hooks = self._hooks()
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if not (inspect.isfunction(obj) and obj.__module__ == mod.__name__):
                    continue
                if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                    continue
                if inspect.isgeneratorfunction(obj):
                    continue  # its work runs in the caller's loop, not in the call
                name = f"{layer}.{attr}"
                if layer == "autograd" and attr not in _NOT_OPS:
                    wrappers[obj] = self._op(_OP_OF_FUNCTION.get(attr, attr), obj,
                                             hooks.get(name))
                else:
                    wrappers[obj] = self._plain(name, obj, hooks.get(name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "offlm" and not mod_name.startswith("offlm."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        return self

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- counters taken at layer boundaries ----------------------------------

    def _hooks(self) -> dict:
        c = self.counters

        def encode(root, args, kwargs, out):
            mask = args[1] if len(args) > 1 else kwargs["attention_mask"]
            c["model.positions"] += int(mask.size)
            c["model.real_positions"] += int(mask.sum())

        def mlm_logits(root, args, kwargs, out):
            c["model.mlm_rows"] += math.prod(out.shape[:-1])
            c["model.mlm_vocab"] = out.shape[-1]

        def masked_cross_entropy(root, args, kwargs, out):
            logits = args[0]
            mask = args[2] if len(args) > 2 else kwargs["mask"]
            if c["model.mlm_vocab"] and logits.shape[-1] == c["model.mlm_vocab"]:
                c["model.mlm_loss_rows"] += int(mask.sum())

        def save_checkpoint(root, args, kwargs, out):
            path = args[1] if len(args) > 1 else kwargs["path"]
            c["model.save_checkpoint.bytes"] += sum(
                e.stat().st_size for e in os.scandir(path) if e.is_file())

        def tokenize(root, args, kwargs, out):
            text = args[0] if args else kwargs["text"]
            self._texts.add((root, text))

        def build_vocab(root, args, kwargs, out):
            corpus = args[0] if args else kwargs["corpus"]
            c["tokenizer.merges"] += sum(
                1 for t in out.tokens
                if t not in _SPECIALS and len(t) > 1
                and not (t.startswith("##") and len(t) == 3))
            if isinstance(corpus, (list, tuple)):
                c["tokenizer.word_types"] += len(
                    {w for text in corpus for w in map(_clean, text.split()) if w})

        return {"model.encode": encode, "model.mlm_logits": mlm_logits,
                "autograd.masked_cross_entropy": masked_cross_entropy,
                "model.save_checkpoint": save_checkpoint,
                "tokenizer.tokenize": tokenize, "tokenizer.build_vocab": build_vocab}

    # -- output -------------------------------------------------------------

    def export(self) -> dict:
        return {"names": self.names, "starts": self.starts, "ends": self.ends,
                "parents": self.parents, "counters": dict(self.counters),
                "distinct_texts": len(self._texts)}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.export(), f)


def merge(exports: list[dict]) -> dict:
    """Concatenate traces of several processes; parent links are offset."""
    out = {"names": [], "starts": [], "ends": [], "parents": [],
           "counters": Counter(), "distinct_texts": 0}
    for e in exports:
        offset = len(out["names"])
        out["names"] += e["names"]
        out["starts"] += e["starts"]
        out["ends"] += e["ends"]
        out["parents"] += [p + offset if p >= 0 else -1 for p in e["parents"]]
        out["counters"].update(e["counters"])
        out["distinct_texts"] += e["distinct_texts"]
    return out


def _percentile(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    lo, hi = math.floor(rank), math.ceil(rank)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def tail_percentile(n: int) -> float:
    """Highest whole percentile with at least ten samples beyond it; the
    median when there are too few samples for one above it."""
    if n < 20:
        return 50.0
    return float(math.floor(100.0 * (1.0 - 10.0 / n)))


def layer_metrics(trace: dict) -> dict[str, float]:
    """Per-layer metrics from one (merged) trace, as totals over it."""
    names, starts, ends, parents = (trace["names"], trace["starts"],
                                    trace["ends"], trace["parents"])
    n = len(names)
    dur = [(ends[i] - starts[i]) * 1e3 for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        if parents[i] >= 0:
            child[parents[i]] += dur[i]
    total, calls, self_ms = defaultdict(float), Counter(), defaultdict(float)
    for i, name in enumerate(names):
        total[name] += dur[i]
        calls[name] += 1
        self_ms[name.split(".", 1)[0]] += dur[i] - child[i]

    m: dict[str, float] = {}
    for op in OPS:
        m[f"autograd.op.{op}.fwd_ms"] = total[f"autograd.op.{op}.fwd"]
        m[f"autograd.op.{op}.bwd_ms"] = total[f"autograd.op.{op}.bwd"]
        m[f"autograd.op.{op}.calls"] = calls[f"autograd.op.{op}.fwd"]
    back = [i for i, name in enumerate(names) if name == "autograd.backward"]
    m["autograd.backward.ms"] = sum(dur[i] for i in back)
    m["autograd.backward.self_ms"] = sum(dur[i] - child[i] for i in back)

    c = trace["counters"]
    rows = c.get("model.mlm_rows", 0)
    positions = c.get("model.positions", 0)
    m["model.mlm_logits.ms"] = total["model.mlm_logits"]
    m["model.mlm_rows"] = rows
    m["model.mlm_useful_frac"] = c.get("model.mlm_loss_rows", 0) / rows if rows else 0.0
    m["model.encode.ms"] = total["model.encode"]
    m["model.encode.calls"] = calls["model.encode"]
    m["model.positions"] = positions
    m["model.pad_frac"] = (1.0 - c.get("model.real_positions", 0) / positions
                           if positions else 0.0)
    m["model.classify.ms"] = total["model.classify"]
    m["model.save_checkpoint.ms"] = total["model.save_checkpoint"]
    m["model.save_checkpoint.calls"] = calls["model.save_checkpoint"]
    m["model.save_checkpoint.bytes"] = c.get("model.save_checkpoint.bytes", 0)
    m["model.load_checkpoint.ms"] = total["model.load_checkpoint"]

    steps = _step_durations(names, starts, ends, parents)
    waits = [i for i, name in enumerate(names)
             if name in DATA_WAIT and parents[i] >= 0 and names[parents[i]] in TRAIN_LOOPS]
    pct = tail_percentile(len(steps))
    m["training.mask_tokens.ms"] = total["training.mask_tokens"]
    m["training.mask_tokens.calls"] = calls["training.mask_tokens"]
    m["training.data_wait_ms"] = sum(dur[i] for i in waits) / len(steps) if steps else 0.0
    m["training.evaluation_loss.ms"] = total["training.evaluation_loss"]
    m["training.evaluation_loss.calls"] = calls["training.evaluation_loss"]
    m["training.predict_class_ids.ms"] = total["training.predict_class_ids"]
    m["training.step_ms_p50"] = _percentile(steps, 50.0) if steps else 0.0
    m["training.step_ms_tail"] = _percentile(steps, pct) if steps else 0.0
    m["training.step_tail_pct"] = pct
    m["training.steps"] = len(steps)

    m["optim.adam_step.ms"] = total["optim.adam_step"]
    m["optim.clip_global_norm.ms"] = total["optim.clip_global_norm"]
    m["optim.global_grad_norm.ms"] = total["optim.global_grad_norm"]

    texts = trace["distinct_texts"]
    m["tokenizer.tokenize.ms"] = total["tokenizer.tokenize"]
    m["tokenizer.tokenize.calls"] = calls["tokenizer.tokenize"]
    m["tokenizer.tokenize.calls_per_text"] = calls["tokenizer.tokenize"] / texts if texts else 0.0
    m["tokenizer.build_vocab.ms"] = total["tokenizer.build_vocab"]
    m["tokenizer.merges"] = c.get("tokenizer.merges", 0)
    m["tokenizer.word_types"] = c.get("tokenizer.word_types", 0)

    m["textprep.prepare.ms"] = total["textprep.prepare"]
    m["textprep.prepare.calls"] = calls["textprep.prepare"]
    m["textprep.segment_hashtag.ms"] = total["textprep.segment_hashtag"]
    m["textprep.segment_hashtag.calls"] = calls["textprep.segment_hashtag"]
    m["textprep.demojize.ms"] = total["textprep.demojize"]
    m["corpus.load_scored.ms"] = total["corpus.load_scored"]
    m["corpus.select_by_threshold.ms"] = total["corpus.select_by_threshold"]
    m["corpus.split.ms"] = total["corpus.split"]
    m["evaluation.confusion.ms"] = total["evaluation.confusion"]
    m["evaluation.make_report.ms"] = total["evaluation.make_report"]
    for layer in LAYERS:
        m[f"{layer}.self_ms"] = self_ms[layer]
    return m


def _step_durations(names, starts, ends, parents) -> list[float]:
    """One optimizer step runs from the end of the previous `adam_step`
    in the same training call (or the call's start) to the end of its own."""
    out = []
    last_end: dict[int, float] = {}
    for i, name in enumerate(names):
        if name != "optim.adam_step":
            continue
        loop = parents[i]
        while loop >= 0 and names[loop] not in TRAIN_LOOPS:
            loop = parents[loop]
        if loop < 0:
            continue
        begin = last_end.get(loop, starts[loop])
        out.append((ends[i] - begin) * 1e3)
        last_end[loop] = ends[i]
    return out
