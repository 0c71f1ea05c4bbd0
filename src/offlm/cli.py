"""Command-line surface for the pipeline: select, preprocess,
build-vocab, pretrain, finetune, evaluate, sweep.

Every run writes a manifest JSON recording the effective config, seeds,
input-file hashes, and stop reason, so a run can be reproduced exactly.
Config files are JSON with sections "model", "pretrain" and "finetune";
any CLI flag overrides its config field.

Exit codes: 0 success, 2 usage or config error, 3 data error,
4 numeric or shape failure.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import dataclasses
import hashlib
import json
import os
import shutil
import sys
import typing
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .corpus import (LabeledInstance, load_labeled, load_scored, load_texts,
                     parse_scored, read_rows, select_by_threshold, split)
from .errors import ConfigError, DataError, NumericError, ShapeError, not_utf8
from .evaluation import (EvalReport, SweepRow, confusion, make_report, render,
                         render_sweep)
from .model import (Model, ModelConfig, init_params, load_checkpoint,
                    parameter_count, resolve_checkpoint, save_checkpoint)
from .textprep import Lexicon, keep_instance, load_emoji_map, prepare
from .tokenizer import Vocabulary, build_vocab, load_vocab
from .training import (FinetuneConfig, PretrainConfig, TrainLog, finetune,
                       predict_class_ids, pretrain)

MANIFEST_SCHEMA_VERSION = 1
TABLE_LOWER_BOUNDS = (0.5, 0.6, 0.7, 0.8, 0.9)
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


# config section -> (its dataclass, the subcommands with a flag for each of
# its fields but model.vocab_size, which the vocabulary file gives)
_CONFIGS = {
    "model": (ModelConfig, ("pretrain", "finetune", "sweep")),
    "pretrain": (PretrainConfig, ("pretrain", "sweep")),
    "finetune": (FinetuneConfig, ("finetune",)),
}
_FLAG_HELP = {"max_position": "defaults to the training max_len"}


def _load_config_file(args) -> dict:
    path = args.config
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as f:
            config = json.load(f)
    except FileNotFoundError as e:
        raise ConfigError(f"config file {path}: not found") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config file {path}: invalid JSON: {e}") from e
    except UnicodeDecodeError as e:
        raise ConfigError(f"config file {not_utf8(path)}") from e
    except OSError as e:  # a directory, or a file it may not read
        raise ConfigError(f"config file {path}: {e.strerror or e}") from e
    if not isinstance(config, dict):
        raise ConfigError(f"config file {path}: top level must be an object")
    unknown = sorted(set(config) - set(_CONFIGS))
    if unknown:
        raise ConfigError(
            f"config file {path}: unknown sections {unknown}; "
            f"expected a subset of {list(_CONFIGS)}")
    return config


def _config(config: dict, name: str, args, **defaults):
    """The dataclass of config section `name`: `defaults`, then the section,
    then the flags this subcommand has for it, each overriding the last.
    A section value must have its field's type; an int passes for a float,
    a bool for no int."""
    cls, commands = _CONFIGS[name]
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    types = typing.get_type_hints(cls)
    for key, value in section.items():
        if key not in types:  # an unknown key, which cls(**values) names
            continue
        kind = types[key]
        if not (type(value) is kind or kind is float and type(value) is int):
            raise ConfigError(
                f"{name} config: {key} {value!r} is not {kind.__name__}")
    values = {**defaults, **section}
    if args.command in commands:
        for f in dataclasses.fields(cls):
            if getattr(args, f.name, None) is not None:
                values[f.name] = getattr(args, f.name)
    try:
        return cls(**values)
    except TypeError as e:
        raise ConfigError(f"{name} config: {e}") from e


def _model(config: dict, args, vocab, max_len: Optional[int],
           labels: Optional[list[str]] = None,
           checkpoint: Optional[str] = None) -> Model:
    """Load `checkpoint`, or initialise a model from the model section and
    flags with max_position defaulting to `max_len`. Either way the model
    must cover `max_len` and match the vocabulary file and the labels. A
    checkpoint fixes the model, so a model flag given with one is an error;
    the config file's model section goes unread."""
    if checkpoint:
        flags = ["--" + f.name.replace("_", "-")
                 for f in dataclasses.fields(ModelConfig)
                 if getattr(args, f.name, None) is not None]
        if flags:
            raise ConfigError(f"{', '.join(flags)} cannot change the model "
                              f"loaded from {checkpoint}")
        model = load_checkpoint(checkpoint)
    else:
        mcfg = _config(config, "model", args, vocab_size=len(vocab),
                       max_position=max_len)
        model = init_params(mcfg, args.model_seed, num_classes=len(labels)
                            if labels else args.num_classes)
    if model.config.vocab_size != len(vocab):
        raise ConfigError(
            f"model vocab_size {model.config.vocab_size} does not match the "
            f"vocabulary file ({len(vocab)} tokens)")
    if labels and model.num_classes != len(labels):
        raise ConfigError(f"model has {model.num_classes} classes, "
                          f"labels give {len(labels)}")
    if max_len is not None and model.config.max_position < max_len:
        raise ConfigError(f"model.max_position {model.config.max_position} "
                          f"shorter than max_len {max_len}")
    return model


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


def _parse_labels(raw: str) -> list[str]:
    labels = [x.strip() for x in raw.split(",") if x.strip()]
    if len(labels) < 2:
        raise ConfigError(f"need at least 2 labels, got {labels}")
    if len(set(labels)) < len(labels):
        raise ConfigError(f"duplicate label names in {labels}")
    return labels


def _parse_bins(raw: str) -> list[tuple[float, float]]:
    bins = []
    for part in raw.split(","):
        try:
            lo, hi = (float(x) for x in part.strip().split(":"))
        except ValueError as e:
            raise ConfigError(f"bin {part.strip()!r} must look like lo:hi: {e}") from e
        bins.append((lo, hi))
    return bins


def cmd_select(args) -> int:
    if args.lo > args.hi:
        raise ConfigError(f"--lo {args.lo} must not exceed --hi {args.hi}")
    columns = (args.id_column, args.text_column, args.score_column)
    fields, rows = read_rows(args.input, columns)
    instances = parse_scored(args.input, rows, *columns)
    inputs = _digests([args.input])
    print("Threshold    Instances")
    for lo in TABLE_LOWER_BOUNDS:
        count = len(select_by_threshold(instances, lo, 1.0))
        print(f"{lo:.1f} - 1.0    {count}")
    selected = select_by_threshold(instances, args.lo, args.hi)
    # rows are kept by position, since ids need not be unique
    in_bin = set(map(id, selected))
    out_rows = [row for (_, row), inst in zip(rows, instances)
                if id(inst) in in_bin]
    _write_tsv(args.output, fields, out_rows)
    print(f"selected [{args.lo}, {args.hi}]: {len(selected)} instances "
          f"-> {args.output}")
    _write_manifest(args.output + ".manifest.json", "select",
                    {"lo": args.lo, "hi": args.hi,
                     "score_column": args.score_column},
                    inputs, [args.output], selected_count=len(selected))
    return 0


def cmd_preprocess(args) -> int:
    lexicon = Lexicon.load(args.lexicon) if args.lexicon else None
    mapping = load_emoji_map(args.emoji_map) if args.emoji_map else None
    fields, rows = read_rows(args.input, (args.text_column,))
    inputs = _digests([args.input, args.emoji_map, args.lexicon])
    out_rows = []
    for _, row in rows:
        text = prepare(row[args.text_column], lexicon, mapping)
        if args.keep_all or keep_instance(text):
            out_rows.append({**row, args.text_column: text})
    _write_tsv(args.output, fields, out_rows)
    print(f"kept {len(out_rows)} of {len(rows)} rows -> {args.output}")
    _write_manifest(args.output + ".manifest.json", "preprocess",
                    {"keep_all": args.keep_all, "emoji_map": args.emoji_map,
                     "lexicon": args.lexicon},
                    inputs, [args.output],
                    kept=len(out_rows), seen=len(rows))
    return 0


def cmd_build_vocab(args) -> int:
    texts = load_texts(args.input, args.text_column)
    inputs = _digests([args.input])
    vocab = build_vocab(texts, args.size, min_frequency=args.min_frequency)
    vocab.save(args.output)
    print(f"vocabulary of {len(vocab)} tokens -> {args.output}")
    _write_manifest(args.output + ".manifest.json", "build-vocab",
                    {"size": args.size, "min_frequency": args.min_frequency},
                    inputs, [args.output], vocab_size=len(vocab))
    return 0


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
              model_id: str, batch_size: int = 32,
              read: Sequence = ()) -> tuple[EvalReport, str]:
    """Score `model` on `data` and write what `evaluate` writes to
    `output_dir`: predictions.tsv, the report, manifest.json, which names
    `data_path` and the files in `read` among its inputs. Returns the
    report and the text `evaluate` prints."""
    _check_scorable(data, data_path)
    inputs = _digests([data_path, *read])
    preds_idx = predict_class_ids([d.text for d in data], vocab, model,
                                  max_len, batch_size=batch_size)
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


def cmd_pretrain(args) -> int:
    config = _load_config_file(args)
    texts = load_texts(args.corpus, args.text_column)
    vocab = load_vocab(args.vocab)
    pcfg = _config(config, "pretrain", args)
    model = _model(config, args, vocab, pcfg.max_len,
                   checkpoint=args.init_checkpoint)
    print(_pretrain(texts, args.corpus, vocab, args.vocab, model, pcfg,
                    args.output_dir, args.init_checkpoint))
    return 0


def cmd_finetune(args) -> int:
    config = _load_config_file(args)
    labels = _parse_labels(args.labels)
    train = load_labeled(args.train, labels, label_column=args.label_column,
                         text_column=args.text_column)
    vocab = load_vocab(args.vocab)
    fcfg = _config(config, "finetune", args)
    model = _model(config, args, vocab, fcfg.max_len, labels,
                   checkpoint=args.init_checkpoint)
    print(_finetune(train, args.train, vocab, args.vocab, model, fcfg, labels,
                    args.output_dir, args.init_checkpoint))
    return 0


def cmd_evaluate(args) -> int:
    model_dir = args.model_dir
    if not os.path.isdir(model_dir):
        raise DataError(f"model directory {model_dir} does not exist")
    checkpoint, vocab_path, labels_path = (
        os.path.join(model_dir, name)
        for name in ("final", "vocab.txt", "labels.json"))
    try:
        with open(labels_path, encoding="utf-8") as f:
            labels = _parse_labels(",".join(json.load(f)["labels"]))
    except (ValueError, KeyError, TypeError, ConfigError) as e:
        raise DataError(f"{labels_path}: expected an object with a 'labels' "
                        f"list of two or more distinct names: {e!r}") from e
    vocab = load_vocab(vocab_path)
    model = _model({}, args, vocab, args.max_len, labels, checkpoint=checkpoint)
    model_id = args.model_id or os.path.basename(os.path.normpath(model_dir))
    data = load_labeled(args.data, labels, label_column=args.label_column,
                        text_column=args.text_column)
    dataset_id = args.dataset_id or os.path.splitext(
        os.path.basename(args.data))[0]
    max_len = model.config.max_position if args.max_len is None else args.max_len
    _, text = _evaluate(data, args.data, vocab, model, labels, max_len,
                        args.output_dir, args.format, dataset_id, model_id,
                        args.batch_size, [_checkpoint_manifest(checkpoint),
                                          vocab_path, labels_path])
    print(text, end="")
    return 0


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
    args: argparse.Namespace


def _run_cell(cell: _Cell) -> tuple[str, EvalReport]:
    """Pretrain, fine-tune and score one bin from a copy of the starting
    model. Returns what the three commands would print, and the bin's
    report; a stage's error propagates."""
    args, (lo, hi) = cell.args, cell.bounds
    bin_dir = os.path.join(args.output_dir, f"bin-{cell.index}")
    model = copy.deepcopy(cell.model)
    pretrained = _pretrain(cell.texts, args.scored, cell.vocab, args.vocab,
                           model, cell.pcfg, os.path.join(bin_dir, "pretrain"))
    finetuned = _finetune(cell.train, args.train, cell.vocab, args.vocab, model,
                          cell.fcfg, cell.labels,
                          os.path.join(bin_dir, "finetune"),
                          os.path.join(bin_dir, "pretrain", "final"))
    report, text = _evaluate(cell.test, cell.test_path, cell.vocab, model,
                             cell.labels, model.config.max_position,
                             os.path.join(bin_dir, "eval"), args.format,
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


def cmd_sweep(args) -> int:
    config = _load_config_file(args)
    labels = _parse_labels(args.labels)
    bins = _parse_bins(args.bins)
    scored = load_scored(args.scored, score_column=args.score_column,
                         text_column=args.text_column)
    selections = [select_by_threshold(scored, lo, hi) for lo, hi in bins]
    for (lo, hi), selected in zip(bins, selections):
        if not selected:  # checked for every bin before any bin trains
            raise DataError(f"bin [{lo}, {hi}] selected no instances")
    train = load_labeled(args.train, labels, label_column=args.label_column,
                         text_column=args.text_column)
    vocab = load_vocab(args.vocab)
    pcfg = _config(config, "pretrain", args)
    fcfg = _config(config, "finetune", args)
    test_path = args.eval or args.train
    dataset_id = os.path.splitext(os.path.basename(test_path))[0]
    if args.eval:
        test = load_labeled(args.eval, labels, label_column=args.label_column,
                            text_column=args.text_column)
    else:  # score each bin on rows carved from --train before fine-tuning
        train, test = split(train, fcfg.eval_fraction, fcfg.seed)
        dataset_id += "-heldout"
    _check_scorable(test, test_path)  # before any bin trains
    model = _model(config, args, vocab, max(pcfg.max_len, fcfg.max_len),
                   labels)
    cells = [_Cell(index, bounds, [s.text for s in selected], train, test,
                   test_path, args.dataset_id or dataset_id, vocab, labels,
                   model, pcfg, fcfg, args)
             for index, (bounds, selected) in enumerate(zip(bins, selections))]
    inputs = _digests([args.scored, args.train, args.eval, args.vocab])
    workers = _sweep_workers(len(cells))
    blas_threads = _blas_threads(workers)
    reports = _run_cells(cells, workers, blas_threads)
    rows = [SweepRow(lo, hi, len(selected), report.macro_f1)
            for (lo, hi), selected, report in zip(bins, selections, reports)]
    ext = _REPORT_EXT[args.format]
    for name, text in (("sweep", render_sweep(rows, args.format)),
                       ("models", render(reports, args.format))):
        with open(os.path.join(args.output_dir, f"{name}.{ext}"), "w",
                  encoding="utf-8") as f:
            f.write(text)
        print(text, end="")
    _write_manifest(
        os.path.join(args.output_dir, "manifest.json"), "sweep",
        {"model": asdict(model.config), "pretrain": asdict(pcfg),
         "finetune": asdict(fcfg), "labels": labels,
         "bins": [list(b) for b in bins]},
        inputs,
        [f"sweep.{ext}", f"models.{ext}", *(f"bin-{i}" for i in range(len(bins)))],
        seeds={"model_init": args.model_seed, "pretrain": pcfg.seed,
               "finetune": fcfg.seed},
        rows=[asdict(r) for r in rows], workers=workers,
        blas_threads_per_worker=blas_threads)
    return 0


def _add_config_flags(p, command: str) -> None:
    """--config, then one flag per field of each config section `command`
    reads, typed by the field's annotation."""
    p.add_argument("--config", help="JSON config file")
    for cls, commands in _CONFIGS.values():
        if command not in commands:
            continue
        for field, kind in typing.get_type_hints(cls).items():
            if field == "vocab_size":  # the vocabulary file gives it
                continue
            p.add_argument("--" + field.replace("_", "-"), type=kind,
                           help=_FLAG_HELP.get(field))
    if command in _CONFIGS["model"][1]:
        p.add_argument("--model-seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="offlm",
        description="Offensive-language model pipeline: corpus selection, "
                    "preprocessing, vocabulary, masked-token pretraining, "
                    "classification fine-tuning, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("select", help="filter a scored TSV by threshold bin")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--lo", type=float, required=True)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("--id-column", default="id")
    p.add_argument("--score-column", default="average")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("preprocess", help="normalize and filter a text TSV")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--emoji-map")
    p.add_argument("--lexicon")
    p.add_argument("--keep-all", action="store_true",
                   help="skip the short-instance filter")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("build-vocab", help="train a subword vocabulary")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--min-frequency", type=int, default=1)
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("pretrain", help="masked-token pretraining")
    p.add_argument("--corpus", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--output-dir", required=True)
    p.add_argument("--init-checkpoint")
    p.add_argument("--num-classes", type=int, default=2)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="classification fine-tuning")
    p.add_argument("--train", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--labels", required=True,
                   help="comma-separated class names, order fixes class ids")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--init-checkpoint")
    p.add_argument("--label-column", default="label")
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("evaluate", help="score a fine-tuned model on a TSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model-dir", required=True,
                   help="finetune output directory (final/, vocab.txt, "
                        "labels.json)")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--format", choices=sorted(_REPORT_EXT), default="markdown")
    p.add_argument("--max-len", type=int)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--dataset-id")
    p.add_argument("--model-id")
    p.add_argument("--label-column", default="label")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep",
                       help="select/pretrain/finetune/evaluate per bin")
    p.add_argument("--scored", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--eval")
    p.add_argument("--vocab", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--bins", required=True,
                   help="comma-separated lo:hi pairs, e.g. 0.5:1.0,0.7:1.0")
    p.add_argument("--output-dir", required=True)
    p.add_argument("--format", choices=sorted(_REPORT_EXT), default="markdown")
    p.add_argument("--dataset-id")
    p.add_argument("--score-column", default="average")
    p.add_argument("--label-column", default="label")
    p.set_defaults(func=cmd_sweep)

    for command, p in sub.choices.items():
        p.add_argument("--text-column", default="text")
        if any(command in commands for _, commands in _CONFIGS.values()):
            _add_config_flags(p, command)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (DataError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 3
    except (NumericError, ShapeError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
