"""Confusion matrices, macro-averaged F1, and json, markdown or tsv
rendering of reports and of the threshold-sweep table (one row per bin).

Macro F1 averages over every declared class, including classes absent
from the sample, and defines any 0/0 as 0. That keeps scores comparable
across splits and is the documented policy for rare classes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DataError

REPORT_SCHEMA_VERSION = 1


@dataclass
class ConfusionMatrix:
    classes: tuple[str, ...]
    counts: np.ndarray  # [C, C] ints; rows = gold, columns = predicted

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float


@dataclass
class EvalReport:
    dataset_id: str
    model_id: str
    config_hash: str
    classes: tuple[str, ...]
    per_class: dict[str, ClassMetrics]
    macro_f1: float
    accuracy: float
    num_examples: int

    def to_dict(self) -> dict:
        return {"schema_version": REPORT_SCHEMA_VERSION, **asdict(self)}


def config_hash(config: dict) -> str:
    """Stable 12-hex-digit digest of a JSON-serializable config."""
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


def confusion(preds: Sequence[str], gold: Sequence[str],
              classes: Sequence[str]) -> ConfusionMatrix:
    """Tally counts[gold][pred] over paired label sequences."""
    if len(preds) != len(gold):
        raise DataError(f"{len(preds)} predictions vs {len(gold)} gold labels")
    class_list = tuple(classes)
    index = {name: i for i, name in enumerate(class_list)}
    if len(index) != len(class_list):
        raise ConfigError("duplicate class names")
    counts = np.zeros((len(class_list), len(class_list)), dtype=np.int64)
    for p, g in zip(preds, gold):
        if g not in index:
            raise DataError(f"gold label {g!r} not in {list(class_list)}")
        if p not in index:
            raise DataError(f"predicted label {p!r} not in {list(class_list)}")
        counts[index[g], index[p]] += 1
    return ConfusionMatrix(class_list, counts)


def per_class_metrics(cm: ConfusionMatrix) -> dict[str, ClassMetrics]:
    """Precision/recall/F1 per class, any 0/0 defined as 0."""
    out: dict[str, ClassMetrics] = {}
    for i, name in enumerate(cm.classes):
        tp = float(cm.counts[i, i])
        fp = float(cm.counts[:, i].sum() - cm.counts[i, i])
        fn = float(cm.counts[i, :].sum() - cm.counts[i, i])
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall > 0 else 0.0)
        out[name] = ClassMetrics(precision, recall, f1)
    return out


def macro_f1(cm: ConfusionMatrix) -> float:
    """Unweighted mean F1 over all declared classes."""
    metrics = per_class_metrics(cm)
    return sum(m.f1 for m in metrics.values()) / len(cm.classes)


def accuracy(cm: ConfusionMatrix) -> float:
    return float(np.trace(cm.counts)) / cm.total if cm.total else 0.0


def make_report(cm: ConfusionMatrix, dataset_id: str, model_id: str,
                config: dict) -> EvalReport:
    return EvalReport(
        dataset_id=dataset_id,
        model_id=model_id,
        config_hash=config_hash(config),
        classes=cm.classes,
        per_class=per_class_metrics(cm),
        macro_f1=macro_f1(cm),
        accuracy=accuracy(cm),
        num_examples=cm.total,
    )


@dataclass
class SweepRow:
    lo: float
    hi: float
    selected_count: int
    macro_f1: float


def _bound(x: float) -> str:
    s = f"{x:g}"
    return s if "." in s or "e" in s else s + ".0"


def _table(header: Sequence[str], rows: Sequence[Sequence], fmt: str) -> str:
    """A tsv or markdown table; the markdown rule spans each header cell."""
    if fmt == "tsv":
        lines = ["\t".join(header)] + ["\t".join(map(str, r)) for r in rows]
    elif fmt == "markdown":
        rule = "|" + "|".join("-" * (len(h) + 2) for h in header) + "|"
        lines = [f"| {' | '.join(header)} |", rule]
        lines += [f"| {' | '.join(map(str, r))} |" for r in rows]
    else:
        raise ConfigError(f"unknown format {fmt!r}; use json, markdown, or tsv")
    return "\n".join(lines) + "\n"


def render_sweep(rows: Sequence[SweepRow], fmt: str) -> str:
    """Threshold-grid rendering: one row per bin, scores as given."""
    if fmt == "json":
        return json.dumps({"schema_version": REPORT_SCHEMA_VERSION,
                           "rows": [asdict(r) for r in rows]},
                          indent=2, sort_keys=True)
    header = (("Threshold", "Selected", "Macro F1") if fmt == "markdown"
              else ("threshold", "selected", "macro_f1"))
    return _table(header, [(f"{_bound(r.lo)} - {_bound(r.hi)}", r.selected_count,
                            f"{r.macro_f1:.4f}") for r in rows], fmt)


def render(reports: Sequence[EvalReport], fmt: str) -> str:
    """Model-comparison rendering, rows sorted by macro F1 descending."""
    ordered = sorted(reports, key=lambda r: -r.macro_f1)
    if fmt == "json":
        return json.dumps([r.to_dict() for r in ordered], indent=2,
                          sort_keys=True)
    if fmt == "markdown":
        return _table(("Dataset", "Model", "Macro F1"),
                      [(r.dataset_id, r.model_id, f"{r.macro_f1:.4f}")
                       for r in ordered], fmt)
    return _table(("dataset", "model", "macro_f1", "accuracy", "n"),
                  [(r.dataset_id, r.model_id, f"{r.macro_f1:.4f}",
                    f"{r.accuracy:.4f}", r.num_examples) for r in ordered], fmt)
