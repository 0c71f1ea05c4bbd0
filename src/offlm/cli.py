"""Command-line surface for the pipeline: select, preprocess,
build-vocab, pretrain, finetune, evaluate, sweep.

It turns argv into configs and loaded inputs, and `runs` writes what each
command writes. Config files are JSON with sections "model", "pretrain"
and "finetune"; any CLI flag overrides its config field.

Exit codes: 0 success, 2 usage or config error, 3 data error,
4 numeric or shape failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import typing
from typing import Optional, Sequence

from .corpus import (distinct_labels, load_labeled, load_scored, load_texts,
                     parse_scored, read_rows, select_by_threshold, split)
from .errors import ConfigError, DataError, NumericError, ShapeError, not_utf8
from .model import Model, ModelConfig, init_params, load_checkpoint
from .runs import (_REPORT_EXT, _check_scorable, _checkpoint_manifest,
                   _digests, _evaluate, _finetune, _pretrain, _sweep,
                   _write_manifest, _write_tsv)
from .textprep import Lexicon, keep_instance, load_emoji_map, prepare
from .tokenizer import build_vocab, load_vocab
from .training import FinetuneConfig, PretrainConfig

TABLE_LOWER_BOUNDS = (0.5, 0.6, 0.7, 0.8, 0.9)


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


def _model(config: dict, args, vocab, max_len: int,
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
    _check_fit(model, vocab, max_len, labels)
    return model


def _check_fit(model: Model, vocab, max_len: int,
               labels: Optional[list[str]]) -> None:
    """Config errors unless `model` matches the vocabulary file and the
    labels and covers `max_len`."""
    if model.config.vocab_size != len(vocab):
        raise ConfigError(
            f"model vocab_size {model.config.vocab_size} does not match the "
            f"vocabulary file ({len(vocab)} tokens)")
    if labels and model.num_classes != len(labels):
        raise ConfigError(f"model has {model.num_classes} classes, "
                          f"labels give {len(labels)}")
    if model.config.max_position < max_len:
        raise ConfigError(f"model.max_position {model.config.max_position} "
                          f"shorter than max_len {max_len}")


def _check_labels(labels: list[str]) -> list[str]:
    if len(labels) < 2:
        raise ConfigError(f"need at least 2 labels, got {labels}")
    return distinct_labels(labels)


def _parse_labels(raw: str) -> list[str]:
    return _check_labels([x.strip() for x in raw.split(",") if x.strip()])


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
            labels = json.load(f)["labels"]
        if type(labels) is not list or not all(type(x) is str for x in labels):
            raise TypeError(f"not a list of strings: {labels!r}")
        _check_labels(labels)
    except (ValueError, KeyError, TypeError, ConfigError) as e:
        raise DataError(f"{labels_path}: expected an object with a 'labels' "
                        f"list of two or more distinct names: {e!r}") from e
    vocab = load_vocab(vocab_path)
    model = load_checkpoint(checkpoint)
    for path, count, fit in ((vocab_path, len(vocab), model.config.vocab_size),
                             (labels_path, len(labels), model.num_classes)):
        if count != fit:  # the model directory's files disagree
            raise DataError(f"{path}: {count} entries, but the model in "
                            f"{checkpoint} has {fit}")
    max_len = model.config.max_position if args.max_len is None else args.max_len
    _check_fit(model, vocab, max_len, labels)
    model_id = args.model_id or os.path.basename(os.path.normpath(model_dir))
    data = load_labeled(args.data, labels, label_column=args.label_column,
                        text_column=args.text_column)
    dataset_id = args.dataset_id or os.path.splitext(
        os.path.basename(args.data))[0]
    _, text = _evaluate(data, args.data, vocab, model, labels, max_len,
                        args.output_dir, args.format, dataset_id, model_id,
                        [_checkpoint_manifest(checkpoint), vocab_path,
                         labels_path])
    print(text, end="")
    return 0


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
    _sweep(bins, selections, train, test, args.dataset_id or dataset_id,
           vocab, labels, model, pcfg, fcfg, args.scored, args.train,
           test_path, args.vocab, args.output_dir, args.format)
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
