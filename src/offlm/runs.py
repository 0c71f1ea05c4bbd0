"""What each command writes: the manifests, the pretrain, finetune and
evaluate stages, and the threshold sweep that runs those stages per bin.

The CLI turns argv into configs and loaded inputs and calls in here; this
module sees no argparse. Every run writes a manifest JSON recording the
effective config, seeds, input-file hashes, and stop reason, so a run can
be reproduced exactly.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import hashlib
import json
import os
import shutil
import sys
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .corpus import LabeledInstance, ScoredInstance
from .errors import DataError
from .evaluation import (EvalReport, SweepRow, confusion, make_report, render,
                         render_sweep)
from .model import Model, parameter_count, resolve_checkpoint, save_checkpoint
from .tokenizer import Vocabulary
from .training import (FinetuneConfig, PretrainConfig, TrainLog, finetune,
                       predict_class_ids, pretrain)

MANIFEST_SCHEMA_VERSION = 1
_REPORT_EXT = {"json": "json", "markdown": "md", "tsv": "tsv"}


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _environment() -> dict:
    """The interpreter and numeric library a run used."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": blas}


def _digests(paths: Sequence) -> dict[str, str]:
    """The sha256 of each file in `paths` (None skipped), by path. A run
    takes them before it writes anything, which may overwrite an input."""
    return {str(p): _sha256_file(p) for p in paths if p}


def _write_manifest(path, command: str, config: dict, inputs: dict[str, str],
                    outputs: Sequence[str], **facts) -> None:
    """Write the manifest of a `command` run to `path`: the schema version,
    RNG and environment, the effective `config`, the `_digests` of the
    inputs it read, its `outputs`, and its own `facts`."""
    payload = {"schema_version": MANIFEST_SCHEMA_VERSION, "rng": "pcg64",
               "environment": _environment(), "command": command,
               "effective_config": config, "outputs": list(outputs),
               "inputs": inputs, **facts}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _checkpoint_manifest(checkpoint: Optional[str]) -> Optional[str]:
    """The manifest.json that `load_checkpoint(checkpoint)` reads, whose
    sha256 values identify the weights."""
    return checkpoint and os.path.join(
        resolve_checkpoint(checkpoint) or checkpoint, "manifest.json")


def _write_tsv(path, fieldnames: Sequence[str], rows: Sequence[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fieldnames, delimiter="\t",
                                quotechar='"', lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _write_training_run(output_dir: str, command: str, cfg, model: Model,
                        log: TrainLog, inputs: dict[str, str], vocab_path: str,
                        outputs: Sequence[str], labels: Optional[list[str]] = None,
                        **facts) -> None:
    """Write what a `command` run writes to `output_dir` besides its
    checkpoints: trainlog.jsonl, a copy of the vocabulary, labels.json if
    `labels` are given, and manifest.json with `cfg` (and the labels) as
    config, the `inputs` digests, and the model's size, the seeds and the
    stop reason among the `facts`."""
    log.save_jsonl(os.path.join(output_dir, "trainlog.jsonl"))
    with contextlib.suppress(shutil.SameFileError):  # a run's own copy
        shutil.copyfile(vocab_path, os.path.join(output_dir, "vocab.txt"))
    config = {"model": asdict(model.config), command: asdict(cfg)}
    if labels:
        config["labels"] = labels
        with open(os.path.join(output_dir, "labels.json"), "w",
                  encoding="utf-8") as f:
            json.dump({"labels": labels}, f)
            f.write("\n")
    _write_manifest(os.path.join(output_dir, "manifest.json"), command, config,
                    inputs, outputs,
                    parameter_count=parameter_count(model.config,
                                                    model.num_classes),
                    seeds={"model_init": model.init_seed, command: cfg.seed},
                    stop_reason=log.stop_reason, **facts)


def _pretrain(texts: Sequence[str], corpus_path: str, vocab: Vocabulary,
              vocab_path: str, model: Model, pcfg: PretrainConfig,
              output_dir: str, init_checkpoint: Optional[str] = None) -> str:
    """Pretrain `model`, loaded from `init_checkpoint` if given, on `texts`
    and write what `pretrain` writes to `output_dir`: checkpoints,
    trainlog.jsonl, vocab.txt, manifest.json. Returns the line `pretrain`
    prints."""
    inputs = _digests([corpus_path, _checkpoint_manifest(init_checkpoint),
                       vocab_path])
    os.makedirs(output_dir, exist_ok=True)
    log = pretrain(texts, vocab, model, pcfg, checkpoint_dir=output_dir)
    _write_training_run(output_dir, "pretrain", pcfg, model, log, inputs,
                        vocab_path, ["final", "trainlog.jsonl", "vocab.txt"],
                        num_texts=len(texts))
    final_loss = log.steps[-1].loss if log.steps else "n/a"
    return (f"pretrained {len(log.steps)} steps on {len(texts)} texts "
            f"-> {output_dir} (last loss {final_loss})")


def _finetune(train: Sequence[LabeledInstance], train_path: str,
              vocab: Vocabulary, vocab_path: str, model: Model,
              fcfg: FinetuneConfig, labels: list[str], output_dir: str,
              init_checkpoint: Optional[str] = None) -> str:
    """Fine-tune `model`, loaded from `init_checkpoint` if given, on `train`
    and write what `finetune` writes to `output_dir`: best/, final/,
    trainlog.jsonl, vocab.txt, labels.json, manifest.json. Returns the line
    `finetune` prints."""
    inputs = _digests([train_path, _checkpoint_manifest(init_checkpoint),
                       vocab_path])
    os.makedirs(output_dir, exist_ok=True)
    log = finetune(train, vocab, model, fcfg, labels, checkpoint_dir=output_dir)
    save_checkpoint(model, os.path.join(output_dir, "final"))
    _write_training_run(output_dir, "finetune", fcfg, model, log, inputs,
                        vocab_path, ["best", "final", "trainlog.jsonl",
                                     "vocab.txt", "labels.json"],
                        labels, num_examples=len(train))
    best = min((e.loss for e in log.evals), default=None)
    return (f"fine-tuned {len(log.steps)} steps, {len(log.evals)} evaluations, "
            f"stop reason {log.stop_reason}, best eval loss {best} "
            f"-> {output_dir}")


def _check_scorable(data: Sequence[LabeledInstance], data_path: str) -> None:
    if not data:
        raise DataError(f"{data_path}: no rows to evaluate")


def _evaluate(data: Sequence[LabeledInstance], data_path: str,
              vocab: Vocabulary, model: Model, labels: list[str],
              max_len: int, output_dir: str, fmt: str, dataset_id: str,
              model_id: str, read: Sequence = ()) -> tuple[EvalReport, str]:
    """Score `model` on `data` and write what `evaluate` writes to
    `output_dir`: predictions.tsv, the report, manifest.json, which names
    `data_path` and the files in `read` among its inputs. Returns the
    report and the text `evaluate` prints."""
    _check_scorable(data, data_path)
    inputs = _digests([data_path, *read])
    preds_idx = predict_class_ids([d.text for d in data], vocab, model,
                                  max_len)
    preds = [labels[i] for i in preds_idx]
    gold = [d.label for d in data]
    cm = confusion(preds, gold, labels)
    report = make_report(cm, dataset_id, model_id,
                         {"max_len": max_len, "labels": labels})
    os.makedirs(output_dir, exist_ok=True)
    _write_tsv(os.path.join(output_dir, "predictions.tsv"),
               ["id", "gold", "pred"],
               [{"id": d.id, "gold": g, "pred": p}
                for d, g, p in zip(data, gold, preds)])
    text = render([report], fmt)
    report_name = f"report.{_REPORT_EXT[fmt]}"
    with open(os.path.join(output_dir, report_name), "w",
              encoding="utf-8") as f:
        f.write(text)
    _write_manifest(os.path.join(output_dir, "manifest.json"), "evaluate",
                    {"labels": labels, "max_len": max_len, "format": fmt},
                    inputs, ["predictions.tsv", report_name],
                    macro_f1=report.macro_f1, accuracy=report.accuracy)
    return report, text


@dataclass(frozen=True)
class _Cell:
    """One bin of a sweep: what `_run_cell` needs to train and score it,
    all picklable so that a worker process can run it."""
    index: int
    bounds: tuple[float, float]
    texts: list[str]
    train: list[LabeledInstance]
    test: list[LabeledInstance]
    test_path: str
    dataset_id: str
    vocab: Vocabulary
    labels: list[str]
    model: Model  # the starting weights, which every bin trains a copy of
    pcfg: PretrainConfig
    fcfg: FinetuneConfig
    scored_path: str
    train_path: str
    vocab_path: str
    output_dir: str
    fmt: str


def _run_cell(cell: _Cell) -> tuple[str, EvalReport]:
    """Pretrain, fine-tune and score one bin from a copy of the starting
    model. Returns what the three commands would print, and the bin's
    report; a stage's error propagates."""
    lo, hi = cell.bounds
    bin_dir = os.path.join(cell.output_dir, f"bin-{cell.index}")
    model = copy.deepcopy(cell.model)
    pretrained = _pretrain(cell.texts, cell.scored_path, cell.vocab,
                           cell.vocab_path, model, cell.pcfg,
                           os.path.join(bin_dir, "pretrain"))
    finetuned = _finetune(cell.train, cell.train_path, cell.vocab,
                          cell.vocab_path, model, cell.fcfg, cell.labels,
                          os.path.join(bin_dir, "finetune"),
                          os.path.join(bin_dir, "pretrain", "final"))
    report, text = _evaluate(cell.test, cell.test_path, cell.vocab, model,
                             cell.labels, model.config.max_position,
                             os.path.join(bin_dir, "eval"), cell.fmt,
                             cell.dataset_id, f"bin-{lo:g}-{hi:g}")
    return f"{pretrained}\n{finetuned}\n{text}", report


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")


def _usable_cpus() -> int:
    """The CPUs this process may run on (all of them where the platform
    cannot say)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_workers(cells: int) -> int:
    """Processes to run `cells` sweep cells in: one per cell, at most one per
    usable CPU. 1 means the cells run in this process."""
    return min(cells, _usable_cpus())


def _blas_threads(workers: int) -> int:
    """BLAS threads for each of `workers` processes: an equal share of the
    usable CPUs, at least 1 and never more than the caller's own setting."""
    caller = [int(v) for v in map(os.environ.get, _BLAS_THREAD_VARS)
              if v and v.isdigit() and int(v) > 0]
    return min([max(1, _usable_cpus() // workers), *caller])


@contextlib.contextmanager
def _environ(values: dict[str, str]):
    """`os.environ` updated with `values` inside the block, restored after."""
    saved = {name: os.environ.get(name) for name in values}
    os.environ.update(values)
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _cell_report(outcome: tuple[str, EvalReport]) -> EvalReport:
    text, report = outcome
    print(text, end="")
    return report


def _run_cells(cells: Sequence[_Cell], workers: int,
               blas_threads: int) -> list[EvalReport]:
    """Each cell's report, in cell order, after printing the cell's text;
    the first cell in that order to fail raises its error. With
    more than one worker the cells run concurrently in spawned processes
    that inherit `blas_threads` BLAS threads each; all of them have exited
    when this returns."""
    if workers == 1:
        return [_cell_report(o) for o in map(_run_cell, cells)]
    # imported here so that the other commands do not pay for it at start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    spawn = multiprocessing.get_context("spawn")
    with _environ({v: str(blas_threads) for v in _BLAS_THREAD_VARS}), \
            ProcessPoolExecutor(workers, mp_context=spawn) as pool:
        futures = [pool.submit(_run_cell, cell) for cell in cells]
        try:
            return [_cell_report(f.result()) for f in futures]
        finally:
            pool.shutdown(cancel_futures=True)


def _sweep(bins: Sequence[tuple[float, float]],
           selections: Sequence[Sequence[ScoredInstance]],
           train: list[LabeledInstance], test: list[LabeledInstance],
           dataset_id: str, vocab: Vocabulary, labels: list[str], model: Model,
           pcfg: PretrainConfig, fcfg: FinetuneConfig, scored_path: str,
           train_path: str, test_path: str, vocab_path: str, output_dir: str,
           fmt: str) -> None:
    """Pretrain, fine-tune and score a copy of `model` on each bin's
    `selections`, and write what `sweep` writes to `output_dir`: a
    bin-k/ directory per bin, the sweep and models tables, manifest.json."""
    cells = [_Cell(index, bounds, [s.text for s in selected], train, test,
                   test_path, dataset_id, vocab, labels, model, pcfg, fcfg,
                   scored_path, train_path, vocab_path, output_dir, fmt)
             for index, (bounds, selected) in enumerate(zip(bins, selections))]
    inputs = _digests([scored_path, train_path, test_path, vocab_path])
    workers = _sweep_workers(len(cells))
    blas_threads = _blas_threads(workers)
    reports = _run_cells(cells, workers, blas_threads)
    rows = [SweepRow(lo, hi, len(selected), report.macro_f1)
            for (lo, hi), selected, report in zip(bins, selections, reports)]
    ext = _REPORT_EXT[fmt]
    for name, text in (("sweep", render_sweep(rows, fmt)),
                       ("models", render(reports, fmt))):
        with open(os.path.join(output_dir, f"{name}.{ext}"), "w",
                  encoding="utf-8") as f:
            f.write(text)
        print(text, end="")
    _write_manifest(
        os.path.join(output_dir, "manifest.json"), "sweep",
        {"model": asdict(model.config), "pretrain": asdict(pcfg),
         "finetune": asdict(fcfg), "labels": labels,
         "bins": [list(b) for b in bins]},
        inputs,
        [f"sweep.{ext}", f"models.{ext}", *(f"bin-{i}" for i in range(len(bins)))],
        seeds={"model_init": model.init_seed, "pretrain": pcfg.seed,
               "finetune": fcfg.seed},
        rows=[asdict(r) for r in rows], workers=workers,
        blas_threads_per_worker=blas_threads)
