import argparse
import csv
import hashlib
import json
import math
import multiprocessing
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

from offlm import cli, runs
from offlm.cli import build_parser
from offlm.model import (CHECKPOINT_FORMAT_VERSION, ModelConfig, init_params,
                         parameter_count, save_checkpoint)

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(PKG_ROOT, "tests", "fixtures")
SRC = os.path.join(PKG_ROOT, "src")
EMOJI_MAP = os.path.join(SRC, "offlm", "data", "emoji_map.tsv")


def child_env():
    """The caller's environment with this checkout's `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "offlm.cli", *args],
        capture_output=True, text=True, env=child_env(), cwd=PKG_ROOT)


def test_importing_cli_leaves_scipy_unloaded():
    """Commands that never run the model do not pay for importing scipy."""
    code = "import sys, offlm.cli; print('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env(), cwd=PKG_ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def run_model_commands_without(module, tmp_path):
    """Run pretrain, finetune and evaluate on the fixtures in processes where
    importing `module` fails; each must exit 0."""
    blocked = (f"import sys; sys.modules[{module!r}] = None; "
               "from offlm.cli import main; sys.exit(main(sys.argv[1:]))")

    def run(*args):
        proc = subprocess.run([sys.executable, "-c", blocked, *map(str, args)],
                              capture_output=True, text=True, env=child_env(),
                              cwd=PKG_ROOT)
        assert proc.returncode == 0, (args[0], proc.stderr)

    vocab = tmp_path / "vocab.txt"
    vocab.write_text(TINY_VOCAB)
    labeled = os.path.join(FIXTURES, "labeled.tsv")
    model = ("--vocab", vocab, "--epochs", "1", "--max-len", "8",
             "--num-layers", "1", "--hidden-size", "8", "--num-heads", "2")
    run("pretrain", "--corpus", os.path.join(FIXTURES, "scored.tsv"), *model,
        "--output-dir", tmp_path / "pre")
    run("finetune", "--train", labeled, "--labels", "not,off", *model,
        "--output-dir", tmp_path / "fine")
    run("evaluate", "--model-dir", tmp_path / "fine", "--data", labeled,
        "--output-dir", tmp_path / "eval")


def test_commands_that_run_the_model_do_not_import_scipy(tmp_path):
    """pretrain, finetune and evaluate succeed with scipy unimportable."""
    run_model_commands_without("scipy", tmp_path)


def test_commands_that_load_a_vocabulary_do_not_import_numpy_ma(tmp_path):
    """pretrain, finetune and evaluate succeed with numpy.ma unimportable:
    loading a vocabulary does not pay for numpy's lazy masked-array import."""
    run_model_commands_without("numpy.ma", tmp_path)


def test_no_arguments_shows_usage_and_exits_2():
    proc = run_cli()
    assert proc.returncode == 2
    assert "usage" in (proc.stderr + proc.stdout).lower()


def test_unknown_subcommand_exits_2():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


def cli_surface(parser):
    """Per subcommand, the set of (option strings, type, default, required,
    choices, action) that `build_parser()` declares."""
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {
        name: {(tuple(a.option_strings), getattr(a.type, "__name__", a.type),
                a.default, a.required,
                tuple(a.choices) if a.choices else None, type(a).__name__)
               for a in p._actions}
        for name, p in sub.choices.items()}


EXPECTED_SURFACE = {
    "select": {
        (("--hi",), "float", 1.0, False, None, "_StoreAction"),
        (("--id-column",), None, "id", False, None, "_StoreAction"),
        (("--input",), None, None, True, None, "_StoreAction"),
        (("--lo",), "float", None, True, None, "_StoreAction"),
        (("--output",), None, None, True, None, "_StoreAction"),
        (("--score-column",), None, "average", False, None, "_StoreAction"),
        (("--text-column",), None, "text", False, None, "_StoreAction"),
        (("-h", "--help"), None, "==SUPPRESS==", False, None, "_HelpAction"),
    },
    "preprocess": {
        (("--emoji-map",), None, None, False, None, "_StoreAction"),
        (("--input",), None, None, True, None, "_StoreAction"),
        (("--keep-all",), None, False, False, None, "_StoreTrueAction"),
        (("--lexicon",), None, None, False, None, "_StoreAction"),
        (("--output",), None, None, True, None, "_StoreAction"),
        (("--text-column",), None, "text", False, None, "_StoreAction"),
        (("-h", "--help"), None, "==SUPPRESS==", False, None, "_HelpAction"),
    },
    "build-vocab": {
        (("--input",), None, None, True, None, "_StoreAction"),
        (("--min-frequency",), "int", 1, False, None, "_StoreAction"),
        (("--output",), None, None, True, None, "_StoreAction"),
        (("--size",), "int", None, True, None, "_StoreAction"),
        (("--text-column",), None, "text", False, None, "_StoreAction"),
        (("-h", "--help"), None, "==SUPPRESS==", False, None, "_HelpAction"),
    },
    "pretrain": {
        (("--batch-size",), "int", None, False, None, "_StoreAction"),
        (("--checkpoint-every",), "int", None, False, None, "_StoreAction"),
        (("--config",), None, None, False, None, "_StoreAction"),
        (("--corpus",), None, None, True, None, "_StoreAction"),
        (("--dropout-rate",), "float", None, False, None, "_StoreAction"),
        (("--epochs",), "int", None, False, None, "_StoreAction"),
        (("--hidden-size",), "int", None, False, None, "_StoreAction"),
        (("--init-checkpoint",), None, None, False, None, "_StoreAction"),
        (("--lr",), "float", None, False, None, "_StoreAction"),
        (("--mask-prob",), "float", None, False, None, "_StoreAction"),
        (("--max-len",), "int", None, False, None, "_StoreAction"),
        (("--max-position",), "int", None, False, None, "_StoreAction"),
        (("--model-seed",), "int", 0, False, None, "_StoreAction"),
        (("--num-classes",), "int", 2, False, None, "_StoreAction"),
        (("--num-heads",), "int", None, False, None, "_StoreAction"),
        (("--num-layers",), "int", None, False, None, "_StoreAction"),
        (("--output-dir",), None, None, True, None, "_StoreAction"),
        (("--seed",), "int", None, False, None, "_StoreAction"),
        (("--text-column",), None, "text", False, None, "_StoreAction"),
        (("--vocab",), None, None, True, None, "_StoreAction"),
        (("-h", "--help"), None, "==SUPPRESS==", False, None, "_HelpAction"),
    },
    "finetune": {
        (("--batch-size",), "int", None, False, None, "_StoreAction"),
        (("--config",), None, None, False, None, "_StoreAction"),
        (("--dropout-rate",), "float", None, False, None, "_StoreAction"),
        (("--epochs",), "int", None, False, None, "_StoreAction"),
        (("--eval-fraction",), "float", None, False, None, "_StoreAction"),
        (("--eval-patience",), "int", None, False, None, "_StoreAction"),
        (("--evals-per-epoch",), "int", None, False, None, "_StoreAction"),
        (("--hidden-size",), "int", None, False, None, "_StoreAction"),
        (("--init-checkpoint",), None, None, False, None, "_StoreAction"),
        (("--label-column",), None, "label", False, None, "_StoreAction"),
        (("--labels",), None, None, True, None, "_StoreAction"),
        (("--lr",), "float", None, False, None, "_StoreAction"),
        (("--max-len",), "int", None, False, None, "_StoreAction"),
        (("--max-position",), "int", None, False, None, "_StoreAction"),
        (("--model-seed",), "int", 0, False, None, "_StoreAction"),
        (("--num-heads",), "int", None, False, None, "_StoreAction"),
        (("--num-layers",), "int", None, False, None, "_StoreAction"),
        (("--output-dir",), None, None, True, None, "_StoreAction"),
        (("--seed",), "int", None, False, None, "_StoreAction"),
        (("--text-column",), None, "text", False, None, "_StoreAction"),
        (("--train",), None, None, True, None, "_StoreAction"),
        (("--vocab",), None, None, True, None, "_StoreAction"),
        (("-h", "--help"), None, "==SUPPRESS==", False, None, "_HelpAction"),
    },
    "evaluate": {
        (("--data",), None, None, True, None, "_StoreAction"),
        (("--dataset-id",), None, None, False, None, "_StoreAction"),
        (("--format",), None, "markdown", False, ("json", "markdown", "tsv"), "_StoreAction"),
        (("--label-column",), None, "label", False, None, "_StoreAction"),
        (("--max-len",), "int", None, False, None, "_StoreAction"),
        (("--model-dir",), None, None, True, None, "_StoreAction"),
        (("--model-id",), None, None, False, None, "_StoreAction"),
        (("--output-dir",), None, None, True, None, "_StoreAction"),
        (("--text-column",), None, "text", False, None, "_StoreAction"),
        (("-h", "--help"), None, "==SUPPRESS==", False, None, "_HelpAction"),
    },
    "sweep": {
        (("--batch-size",), "int", None, False, None, "_StoreAction"),
        (("--bins",), None, None, True, None, "_StoreAction"),
        (("--checkpoint-every",), "int", None, False, None, "_StoreAction"),
        (("--config",), None, None, False, None, "_StoreAction"),
        (("--dataset-id",), None, None, False, None, "_StoreAction"),
        (("--dropout-rate",), "float", None, False, None, "_StoreAction"),
        (("--epochs",), "int", None, False, None, "_StoreAction"),
        (("--eval",), None, None, False, None, "_StoreAction"),
        (("--format",), None, "markdown", False, ("json", "markdown", "tsv"), "_StoreAction"),
        (("--hidden-size",), "int", None, False, None, "_StoreAction"),
        (("--label-column",), None, "label", False, None, "_StoreAction"),
        (("--labels",), None, None, True, None, "_StoreAction"),
        (("--lr",), "float", None, False, None, "_StoreAction"),
        (("--mask-prob",), "float", None, False, None, "_StoreAction"),
        (("--max-len",), "int", None, False, None, "_StoreAction"),
        (("--max-position",), "int", None, False, None, "_StoreAction"),
        (("--model-seed",), "int", 0, False, None, "_StoreAction"),
        (("--num-heads",), "int", None, False, None, "_StoreAction"),
        (("--num-layers",), "int", None, False, None, "_StoreAction"),
        (("--output-dir",), None, None, True, None, "_StoreAction"),
        (("--score-column",), None, "average", False, None, "_StoreAction"),
        (("--scored",), None, None, True, None, "_StoreAction"),
        (("--seed",), "int", None, False, None, "_StoreAction"),
        (("--text-column",), None, "text", False, None, "_StoreAction"),
        (("--train",), None, None, True, None, "_StoreAction"),
        (("--vocab",), None, None, True, None, "_StoreAction"),
        (("-h", "--help"), None, "==SUPPRESS==", False, None, "_HelpAction"),
    },
}


def test_cli_surface_is_unchanged():
    assert cli_surface(build_parser()) == EXPECTED_SURFACE


def test_readme_names_only_flags_the_cli_has():
    """Every --flag the README names outside its Install and Benchmark
    sections, which show pip's and the benchmark scripts' flags, is a flag
    of some subcommand; the toy pipeline script's --workdir is the one
    other flag it names."""
    with open(os.path.join(PKG_ROOT, "README.md"), encoding="utf-8") as f:
        sections = re.split(r"^## ", f.read(), flags=re.M)
    named = {flag for section in sections
             if section.split("\n", 1)[0] not in ("Install", "Benchmark")
             for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", section)}
    flags = {option for actions in cli_surface(build_parser()).values()
             for options, *_ in actions for option in options}
    assert named - flags - {"--workdir"} == set()


def test_select_writes_rows_table_and_manifest(tmp_path):
    out = tmp_path / "selected.tsv"
    proc = run_cli("select", "--input", os.path.join(FIXTURES, "scored.tsv"),
                   "--lo", "0.5", "--hi", "1.0", "--output", str(out))
    assert proc.returncode == 0, proc.stderr

    lines = proc.stdout.splitlines()
    assert lines[0].split() == ["Threshold", "Instances"]
    counts = [int(line.split()[-1]) for line in lines[1:6]]
    assert counts == sorted(counts, reverse=True)
    assert counts[0] == 21

    with open(out, newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f, delimiter="\t"))
    assert len(rows) == 21
    assert all(float(r["average"]) >= 0.5 for r in rows)

    manifest = json.loads((tmp_path / "selected.tsv.manifest.json").read_text())
    assert manifest["command"] == "select"
    assert manifest["selected_count"] == 21
    assert manifest["rng"] == "pcg64"
    source = os.path.join(FIXTURES, "scored.tsv")
    digest = hashlib.sha256(open(source, "rb").read()).hexdigest()
    assert digest in manifest["inputs"].values()
    assert "timestamp" not in manifest
    assert manifest["environment"]["numpy"] == np.__version__
    assert set(manifest["environment"]) == {"python", "numpy", "blas"}


def test_select_inverted_bounds_exit_2(tmp_path):
    proc = run_cli("select", "--input", os.path.join(FIXTURES, "scored.tsv"),
                   "--lo", "0.9", "--hi", "0.5",
                   "--output", str(tmp_path / "x.tsv"))
    assert proc.returncode == 2


def test_select_missing_input_exit_3(tmp_path):
    proc = run_cli("select", "--input", str(tmp_path / "absent.tsv"),
                   "--lo", "0.5", "--output", str(tmp_path / "x.tsv"))
    assert proc.returncode == 3


def test_select_malformed_tsv_exit_3(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("id\ttext\taverage\nr1\thello world ok\tNaNsense\n",
                   encoding="utf-8")
    proc = run_cli("select", "--input", str(bad), "--lo", "0.5",
                   "--output", str(tmp_path / "x.tsv"))
    assert proc.returncode == 3
    assert ":2:" in proc.stderr


def read_tsv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f, delimiter="\t"))


def test_select_honours_id_column(tmp_path):
    scored = tmp_path / "scored.tsv"
    scored.write_text("tweet_id\ttext\taverage\nt1\tkeep me\t0.9\n"
                      "t2\tdrop me\t0.1\n", encoding="utf-8")
    out = tmp_path / "x.tsv"
    proc = run_cli("select", "--input", str(scored), "--lo", "0.5",
                   "--id-column", "tweet_id", "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    assert [r["tweet_id"] for r in read_tsv(out)] == ["t1"]


def test_select_keeps_rows_by_position_when_ids_repeat(tmp_path):
    scored = tmp_path / "scored.tsv"
    scored.write_text("id\ttext\taverage\nx\tin the bin\t0.9\n"
                      "x\tout of the bin\t0.1\n", encoding="utf-8")
    out = tmp_path / "x.tsv"
    proc = run_cli("select", "--input", str(scored), "--lo", "0.5",
                   "--output", str(out))
    assert proc.returncode == 0, proc.stderr
    assert "1 instances" in proc.stdout
    assert [r["text"] for r in read_tsv(out)] == ["in the bin"]


MALFORMED_ROWS = {
    "extra_field": "r1\tsome text\t0.9\textra\n",
    "oversized_field": "r1\t" + "x" * 140_000 + "\t0.9\n",
}


@pytest.mark.parametrize("command", ["select", "preprocess"])
@pytest.mark.parametrize("defect", sorted(MALFORMED_ROWS))
def test_malformed_row_exit_3_names_line(tmp_path, command, defect):
    bad = tmp_path / "bad.tsv"
    bad.write_text("id\ttext\taverage\nr0\tfine\t0.5\n" + MALFORMED_ROWS[defect],
                   encoding="utf-8")
    args = ("--lo", "0.5") if command == "select" else ()
    proc = run_cli(command, "--input", str(bad), *args,
                   "--output", str(tmp_path / "x.tsv"))
    assert proc.returncode == 3, proc.stderr
    assert f"{bad}:3:" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["select", "preprocess", "build-vocab",
                                     "pretrain", "finetune", "evaluate"])
def test_short_row_exit_3_names_line(tmp_path, command):
    """A row that lacks a column the command reads is exit 3 naming its
    line, for every command that reads a TSV."""
    data = tmp_path / "short.tsv"
    data.write_text("id\ttext\taverage\tlabel\nr0\ta b\t0.5\toff\nr1\n")
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(TINY_VOCAB)
    out = tmp_path / "out"
    labels = ("--labels", "not,off")
    args = {
        "select": ("--input", data, "--lo", "0.5", "--output", out),
        "preprocess": ("--input", data, "--output", out),
        "build-vocab": ("--input", data, "--size", "50", "--output", out),
        "pretrain": ("--corpus", data, "--vocab", vocab, "--output-dir", out),
        "finetune": ("--train", data, "--vocab", vocab, *labels,
                     "--output-dir", out),
        "evaluate": ("--data", data,
                     "--model-dir", fine_tuning_dir(tmp_path / "fine"),
                     "--output-dir", out),
    }[command]
    proc = run_cli(command, *map(str, args))
    assert proc.returncode == 3, proc.stderr
    assert f"{data}:3: short row" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_evaluate_empty_data_exit_3(tmp_path):
    """A labeled TSV with a header and no rows has nothing to score: exit 3
    naming it, not a report of 0.0000."""
    data = tmp_path / "empty.tsv"
    data.write_text("id\ttext\tlabel\n")
    out = tmp_path / "out"
    proc = run_cli("evaluate", "--data", str(data),
                   "--model-dir", str(fine_tuning_dir(tmp_path / "fine")),
                   "--output-dir", str(out))
    assert proc.returncode == 3, proc.stderr
    assert f"{data}: no rows" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not out.exists()


def test_preprocess_matches_golden_fixture(tmp_path):
    out = tmp_path / "prepped.tsv"
    proc = run_cli("preprocess",
                   "--input", os.path.join(FIXTURES, "scored.tsv"),
                   "--output", str(out),
                   "--emoji-map", EMOJI_MAP,
                   "--lexicon", os.path.join(FIXTURES, "lexicon.tsv"))
    assert proc.returncode == 0, proc.stderr
    golden = open(os.path.join(FIXTURES, "golden_preprocessed.tsv"),
                  "rb").read()
    assert out.read_bytes() == golden


def test_preprocess_keep_all_retains_short_rows(tmp_path):
    out = tmp_path / "prepped.tsv"
    proc = run_cli("preprocess",
                   "--input", os.path.join(FIXTURES, "scored.tsv"),
                   "--output", str(out), "--keep-all")
    assert proc.returncode == 0
    with open(out, newline="", encoding="utf-8") as f:
        assert len(list(csv.DictReader(f, delimiter="\t"))) == 30


def test_build_vocab_is_deterministic(tmp_path):
    prepped = tmp_path / "prepped.tsv"
    run_cli("preprocess", "--input", os.path.join(FIXTURES, "scored.tsv"),
            "--output", str(prepped))
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        proc = run_cli("build-vocab", "--input", str(prepped),
                       "--size", "300", "--output", str(path))
        assert proc.returncode == 0, proc.stderr
    assert a.read_bytes() == b.read_bytes()
    tokens = a.read_text().splitlines()
    assert tokens[0] == "[PAD]"
    assert len(tokens) <= 300


def pretrain_run(tmp_path, *flags):
    """`pretrain` of a tiny model on the fixtures with `flags`, writing to
    tmp_path/out; returns the process and, if it succeeded, the epochs
    and steps its manifest and trainlog record."""
    proc = run_cli("pretrain", *command_args("pretrain", tmp_path),
                   "--max-len", "8", "--num-layers", "1", "--hidden-size", "8",
                   "--num-heads", "2", *flags)
    if proc.returncode:
        return proc, None, None
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    log = (out / "trainlog.jsonl").read_text().splitlines()
    return (proc, manifest["effective_config"]["pretrain"]["epochs"],
            sum(json.loads(line)["kind"] == "step" for line in log))


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pretrain": {"epochs": 0}}))
    # epochs 0 trains no step
    proc, epochs, steps = pretrain_run(tmp_path, "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    assert (epochs, steps) == (0, 0)
    # explicit flag beats the config file
    proc, epochs, steps = pretrain_run(tmp_path, "--config", str(cfg),
                                       "--epochs", "1")
    assert proc.returncode == 0, proc.stderr
    assert epochs == 1 and steps > 0


def test_malformed_config_file_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    proc = run_cli("pretrain", "--config", str(cfg),
                   *command_args("pretrain", tmp_path))
    assert proc.returncode == 2


@pytest.mark.parametrize("flag", ["--lexicon", "--emoji-map"])
def test_preprocess_non_utf8_side_file_exits_cleanly(tmp_path, flag):
    """A lexicon or emoji map with a byte that is not UTF-8 is a data error
    naming its file and line (exit 3)."""
    bad = tmp_path / "side"
    bad.write_bytes({"--lexicon": b"the\t5\ncaf\xe9\t2\n",
                     "--emoji-map": b"\xf0\x9f\x94\xa5\t:fire:\n\xe9\t:e:\n"}[flag])
    proc = run_cli("preprocess", flag, str(bad),
                   "--input", os.path.join(FIXTURES, "scored.tsv"),
                   "--output", str(tmp_path / "out.tsv"))
    assert proc.returncode == 3, proc.stderr
    assert f"{bad}:2: not UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_utf8_config_file_exit_2(tmp_path):
    """A config file with a byte that is not UTF-8 is a config error naming
    its file and line (exit 2)."""
    bad = tmp_path / "cfg.json"
    bad.write_bytes(b'{"pretrain": {}}\xff')
    proc = run_cli("pretrain", "--config", str(bad),
                   *command_args("pretrain", tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert f"{bad}:1: not UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unknown_config_section_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pretraining": {"epochs": 1}}))
    proc = run_cli("pretrain", "--config", str(cfg),
                   *command_args("pretrain", tmp_path))
    assert proc.returncode == 2


def test_evaluate_missing_model_dir_exit_3(tmp_path):
    proc = run_cli("evaluate", "--model-dir", str(tmp_path / "absent"),
                   "--data", os.path.join(FIXTURES, "labeled.tsv"),
                   "--output-dir", str(tmp_path / "eval"))
    assert proc.returncode == 3


def test_evaluate_malformed_manifest_exit_3(tmp_path):
    model_dir = fine_tuning_dir(tmp_path / "fine")
    manifest = model_dir / "final" / "manifest.json"
    manifest.write_text(json.dumps({"format_version": CHECKPOINT_FORMAT_VERSION,
                                    "num_classes": 2,
                                    "config": {"vocab_size": 16}}))
    proc = run_cli("evaluate", "--model-dir", str(model_dir),
                   "--data", os.path.join(FIXTURES, "labeled.tsv"),
                   "--output-dir", str(tmp_path / "eval"))
    assert proc.returncode == 3, proc.stderr
    assert str(manifest) in proc.stderr
    assert "params" in proc.stderr
    assert "Traceback" not in proc.stderr


TINY_VOCAB = "[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\na\nb\n"


def fine_tuning_dir(model_dir):
    """`model_dir` written as a fine-tuning run leaves it for `evaluate`: an
    untrained two-class model's final/, TINY_VOCAB as vocab.txt, and
    labels.json naming not and off."""
    save_checkpoint(init_params(ModelConfig(vocab_size=7), 0),
                    str(model_dir / "final"))
    (model_dir / "vocab.txt").write_text(TINY_VOCAB)
    (model_dir / "labels.json").write_text('{"labels": ["not", "off"]}\n')
    return model_dir


def test_evaluate_format_version_1_checkpoint_exit_3(tmp_path):
    """Fine-tuned directories saved in format version 1, whose config still
    names tie_mlm_weights and layer_norm_epsilon, and in version 2, whose
    config still names intermediate_size, are refused by their version."""
    model_dir = fine_tuning_dir(tmp_path / "fine")
    final = model_dir / "final"
    current = json.loads((final / "manifest.json").read_text())
    removed = {1: {"layer_norm_epsilon": 1e-12, "tie_mlm_weights": True,
                   "intermediate_size": 256},
               2: {"intermediate_size": 256}}
    for version, keys in removed.items():
        manifest = {**current, "format_version": version,
                    "config": {**current["config"], **keys}}
        (final / "manifest.json").write_text(json.dumps(manifest))
        proc = run_cli("evaluate", "--model-dir", str(model_dir),
                       "--data", os.path.join(FIXTURES, "labeled.tsv"),
                       "--output-dir", str(tmp_path / "eval"))
        assert proc.returncode == 3, proc.stderr
        assert f"format version {version}" in proc.stderr
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_init_checkpoint_shorter_than_max_len_exit_2(tmp_path, command):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(TINY_VOCAB)
    ckpt = tmp_path / "ckpt"
    save_checkpoint(init_params(ModelConfig(vocab_size=7, max_position=8), 0),
                    str(ckpt))
    data = tmp_path / "data.tsv"
    data.write_text("id\ttext\tlabel\nr1\ta b\tnot\nr2\tb a\toff\n")
    out = tmp_path / "out"
    inputs = (["--corpus", str(data)] if command == "pretrain" else
              ["--train", str(data), "--labels", "not,off"])
    proc = run_cli(command, *inputs, "--vocab", str(vocab),
                   "--init-checkpoint", str(ckpt), "--max-len", "24",
                   "--output-dir", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "max_position 8" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_model_flags_with_init_checkpoint_exit_2(tmp_path, capsys, command):
    """A checkpoint fixes the model, so a model flag given with
    --init-checkpoint is a config error naming the flag and the checkpoint,
    before anything is written, rather than a setting the run drops."""
    ckpt = tmp_path / "ckpt"
    save_checkpoint(init_params(ModelConfig(vocab_size=7), 0), str(ckpt))
    for flag, value in (("--num-layers", "5"), ("--hidden-size", "32"),
                        ("--num-heads", "4"), ("--max-position", "64"),
                        ("--dropout-rate", "0.5")):
        args = [command, *command_args(command, tmp_path),
                "--init-checkpoint", str(ckpt), flag, value]
        assert cli.main(args) == 2, flag
        err = capsys.readouterr().err
        assert err.startswith("config error:"), err
        assert flag in err and str(ckpt) in err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_training_manifest_records_parameter_count(tmp_path, command):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(TINY_VOCAB)
    data = tmp_path / "data.tsv"
    data.write_text("id\ttext\tlabel\n" + "".join(
        f"r{i}\ta b a\t{('not', 'off')[i % 2]}\n" for i in range(10)))
    out = tmp_path / "out"
    inputs = (["--corpus", str(data)] if command == "pretrain" else
              ["--train", str(data), "--labels", "not,off"])
    proc = run_cli(command, *inputs, "--vocab", str(vocab), "--epochs", "1",
                   "--max-len", "8", "--num-layers", "1", "--hidden-size", "8",
                   "--num-heads", "2", "--output-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    manifest = json.loads((out / "manifest.json").read_text())
    config = ModelConfig(**manifest["effective_config"]["model"])
    on_disk = sum(os.path.getsize(f) for f in (out / "final").glob("*.bin")) // 4
    assert manifest["parameter_count"] == parameter_count(config, 2) == on_disk


def test_finetune_final_holds_the_best_weights(tmp_path):
    """finetune restores the best evaluation's weights before it saves
    final/, so final/ and best/ list the same parameter digests."""
    vocab = tmp_path / "vocab.txt"
    labeled = os.path.join(FIXTURES, "labeled.tsv")
    assert run_cli("build-vocab", "--input", labeled, "--size", "60",
                   "--output", str(vocab)).returncode == 0
    out = tmp_path / "fine"
    proc = run_cli("finetune", "--train", labeled, "--labels", "not,off",
                   "--vocab", str(vocab), "--epochs", "3", "--lr", "0.01",
                   "--max-len", "12", "--num-layers", "1", "--hidden-size", "8",
                   "--num-heads", "2", "--output-dir", str(out))
    assert proc.returncode == 0, proc.stderr
    assert param_digests(out / "final") == param_digests(out / "best")


@pytest.mark.parametrize("content", ["{}", "{not json", '{"labels": 3}',
                                     '{"labels": ["not", "not"]}',
                                     '{"labels": ["not"]}', '{"labels": "no"}',
                                     '{"labels": ["not", 1]}'])
def test_evaluate_malformed_labels_json_exit_3(tmp_path, content):
    """A labels.json without a list of two or more distinct names is a data
    error naming the file."""
    model_dir = fine_tuning_dir(tmp_path / "fine")
    labels = model_dir / "labels.json"
    labels.write_text(content)
    proc = run_cli("evaluate", "--model-dir", str(model_dir),
                   "--data", os.path.join(FIXTURES, "labeled.tsv"),
                   "--output-dir", str(tmp_path / "eval"))
    assert proc.returncode == 3, proc.stderr
    assert str(labels) in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("name, content", [
    ("labels.json", '{"labels": ["not", "off", "x"]}'),
    ("vocab.txt", TINY_VOCAB + "c\n")])
def test_evaluate_model_dir_file_not_fitting_final_exit_3(tmp_path, name,
                                                           content):
    """labels.json naming more classes than final/ has, or a vocab.txt of
    another size than final/'s vocabulary, is a data error naming the
    file."""
    model_dir = fine_tuning_dir(tmp_path / "fine")
    (model_dir / name).write_text(content)
    proc = run_cli("evaluate", "--model-dir", str(model_dir),
                   "--data", os.path.join(FIXTURES, "labeled.tsv"),
                   "--output-dir", str(tmp_path / "eval"))
    assert proc.returncode == 3, proc.stderr
    assert str(model_dir / name) in proc.stderr
    assert not (tmp_path / "eval").exists()


@pytest.mark.parametrize("command", ["pretrain", "finetune"])
def test_vocab_not_fitting_init_checkpoint_exit_2(tmp_path, capsys, command):
    """A --vocab of another size than the --init-checkpoint's vocabulary is
    a config error: the user paired the two."""
    ckpt = tmp_path / "ckpt"
    save_checkpoint(init_params(ModelConfig(vocab_size=8), 0), str(ckpt))
    args = [command, *command_args(command, tmp_path),
            "--init-checkpoint", str(ckpt)]
    assert cli.main(args) == 2
    assert "vocab_size 8" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_duplicate_vocab_token_exit_3_names_the_file(tmp_path, capsys):
    args = ["pretrain", *command_args("pretrain", tmp_path)]
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(TINY_VOCAB + "a\n")
    assert cli.main(args) == 3
    err = capsys.readouterr().err
    assert f"{vocab}: duplicate token 'a' at line 8" in err
    assert not (tmp_path / "out").exists()


def test_finetune_duplicate_labels_exit_2(tmp_path):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(TINY_VOCAB)
    out = tmp_path / "out"
    proc = run_cli("finetune", "--train", os.path.join(FIXTURES, "labeled.tsv"),
                   "--labels", "not,not", "--vocab", str(vocab),
                   "--output-dir", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "duplicate" in proc.stderr and "'not'" in proc.stderr
    assert not out.exists()


def test_evaluate_model_dir_resolves_interrupted_final_save(tmp_path):
    """A fine-tuning run killed between the two renames of its `final/`
    save leaves only `final.old/`; `evaluate --model-dir` loads it rather
    than reading the run's own manifest.json as a checkpoint. A lone
    `final.tmp/` is a DataError naming it."""
    model_dir = fine_tuning_dir(tmp_path / "fine")
    (model_dir / "manifest.json").write_text('{"command": "finetune"}\n')

    def evaluate(out):
        return run_cli("evaluate", "--model-dir", str(model_dir),
                       "--data", os.path.join(FIXTURES, "labeled.tsv"),
                       "--output-dir", str(tmp_path / out))

    proc = evaluate("intact")
    assert proc.returncode == 0, proc.stderr
    os.rename(model_dir / "final", model_dir / "final.old")
    proc = evaluate("moved-aside")
    assert proc.returncode == 0, proc.stderr
    assert ((tmp_path / "moved-aside" / "predictions.tsv").read_bytes()
            == (tmp_path / "intact" / "predictions.tsv").read_bytes())
    os.rename(model_dir / "final.old", model_dir / "final.tmp")
    proc = evaluate("unfinished")
    assert proc.returncode == 3, proc.stderr
    assert "final.tmp" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("field,value", [("min_words", 0), ("url_placeholder", "")])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_invalid_prep_config_exit_2(tmp_path, field, value, source):
    """Preprocessing's placeholders and short-instance filter are constants:
    a flag for one is a usage error, and a "prep" config section is a
    config error naming it. Either exits 2 and writes nothing."""
    if source == "flag":
        proc = run_cli("preprocess", "--input", os.path.join(FIXTURES, "scored.tsv"),
                       "--output", str(tmp_path / "out"),
                       "--" + field.replace("_", "-"), str(value))
        assert "unrecognized arguments" in proc.stderr
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"prep": {field: value}}))
        proc = run_cli("pretrain", "--config", str(cfg),
                       *command_args("pretrain", tmp_path))
        assert proc.stderr.startswith("config error:") and "'prep'" in proc.stderr
    assert proc.returncode == 2, proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,section,field", [
    ("pretrain", "pretrain", "keep_frac"),
    ("pretrain", "model", "tie_mlm_weights"),
    ("pretrain", "model", "layer_norm_epsilon"),
    ("pretrain", "pretrain", "replace_mask_frac"),
    ("pretrain", "pretrain", "replace_random_frac"),
    ("pretrain", "pretrain", "max_grad_norm"),
    ("finetune", "finetune", "max_grad_norm"),
    ("finetune", "finetune", "adam_epsilon"),
    ("finetune", "finetune", "gradient_accumulation_steps"),
    ("finetune", "finetune", "eval_every"),
    ("finetune", "model", "intermediate_size"),
    ("finetune", "finetune", "warmup_ratio")])
def test_removed_config_fields_exit_2(tmp_path, command, section, field):
    """Fields that no longer exist are config errors, like any unknown key."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({section: {field: 0.1}}))
    proc = run_cli(command, "--config", str(cfg), *command_args(command, tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("config error:") and field in proc.stderr
    assert not (tmp_path / "out").exists()


def command_args(command, tmp_path):
    """Arguments that `command` runs with on the fixtures, writing to
    tmp_path/out."""
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(TINY_VOCAB)
    out = str(tmp_path / "out")
    return {
        "pretrain": ("--corpus", os.path.join(FIXTURES, "scored.tsv"),
                     "--vocab", str(vocab), "--output-dir", out),
        "finetune": ("--train", os.path.join(FIXTURES, "labeled.tsv"),
                     "--vocab", str(vocab), "--labels", "not,off",
                     "--output-dir", out),
    }[command]


def assert_config_error(tmp_path, capsys, command, flags=(), file=None):
    """`command` with `flags`, and `file` as its --config, exits 2 with a
    config error and writes nothing."""
    if file is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file))
        flags = ("--config", str(cfg), *flags)
    assert cli.main([command, *command_args(command, tmp_path), *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:"), err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


BAD_CONFIGS = {  # test id -> command, flags, config file
    "pretrain-seed": ("pretrain", ("--seed", "-1"), None),
    "finetune-seed": ("finetune", ("--seed", "-1"), None),
    "pretrain-model-seed": ("pretrain", ("--model-seed", "-1"), None),
    "finetune-model-seed": ("finetune", ("--model-seed", "-1"), None),
    "float-for-int": ("pretrain", (), {"model": {"hidden_size": 64.0}}),
    "fraction-seed": ("pretrain", (), {"pretrain": {"seed": 1.5}}),
    "bool-for-int": ("finetune", (), {"finetune": {"epochs": True}}),
    "null-not-optional": ("pretrain", (), {"pretrain": {"lr": None}}),
    "string-for-int": ("finetune", (), {"finetune": {"evals_per_epoch": "2"}}),
    "checkpoint-every-negative": ("pretrain", ("--checkpoint-every", "-1"), None),
}


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_config_value_out_of_range_or_of_wrong_type_exit_2(
        tmp_path, capsys, case):
    """A negative seed, a config-file value whose type is not its flag's
    and a negative checkpoint interval are config errors, not tracebacks
    or silent settings."""
    assert_config_error(tmp_path, capsys, *BAD_CONFIGS[case])


def test_config_file_values_of_the_flag_types_are_accepted():
    """An int passes for a float field."""
    args = argparse.Namespace(command="evaluate")  # no flags for this section
    assert cli._config({"pretrain": {"lr": 1}}, "pretrain", args).lr == 1


@pytest.mark.parametrize("command,field", [("pretrain", "lr"), ("finetune", "lr")])
@pytest.mark.parametrize("value", [math.nan, math.inf])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_non_finite_float_exit_2(tmp_path, capsys, command, field, value,
                                 source):
    """nan and inf are config errors, from a flag or as JSON NaN/Infinity,
    rather than a run that trains to non-finite weights."""
    if source == "flag":
        assert_config_error(tmp_path, capsys, command,
                            ("--" + field.replace("_", "-"), str(value)))
    else:
        assert_config_error(tmp_path, capsys, command,
                            file={command: {field: value}})


def test_config_path_naming_a_directory_exit_2(tmp_path, capsys):
    """--config naming a directory is a config error."""
    directory = tmp_path / "configs"
    directory.mkdir()
    args = ["pretrain", *command_args("pretrain", tmp_path),
            "--config", str(directory)]
    assert cli.main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {directory}:"), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("max_len", ["0", "2"])
def test_evaluate_max_len_below_frame_exit_2(tmp_path, max_len):
    """--max-len 0 is a given value, not "use the model's max_position"."""
    out = tmp_path / "out"
    proc = run_cli("evaluate", "--data", os.path.join(FIXTURES, "labeled.tsv"),
                   "--model-dir", str(fine_tuning_dir(tmp_path / "fine")),
                   "--max-len", max_len, "--output-dir", str(out))
    assert proc.returncode == 2, proc.stderr
    assert "max_len" in proc.stderr
    assert not out.exists()


@pytest.mark.parametrize("command", ["select", "build-vocab", "pretrain"])
def test_non_utf8_input_exit_3_names_file_and_line(tmp_path, command):
    """A byte that is not UTF-8, in a TSV or in a vocabulary file, is a
    data error naming the file and the line it sits on."""
    tsv = tmp_path / "in.tsv"
    tsv.write_bytes(b"id\ttext\taverage\nr0\tfine text\t0.5\n")
    vocab = tmp_path / "vocab.txt"
    vocab.write_text(TINY_VOCAB)
    bad = vocab if command == "pretrain" else tsv
    with open(bad, "ab") as f:
        f.write(b"r1\tcaf\xff\t0.5\n" if bad == tsv else b"caf\xff\n")
    line = 3 if bad == tsv else 8
    out = tmp_path / "out"
    args = {
        "select": ("--input", tsv, "--lo", "0.5", "--output", out),
        "build-vocab": ("--input", tsv, "--size", "50", "--output", out),
        "pretrain": ("--corpus", tsv, "--vocab", vocab, "--output-dir", out),
    }[command]
    proc = run_cli(command, *map(str, args))
    assert proc.returncode == 3, proc.stderr
    assert f"{bad}:{line}: not UTF-8" in proc.stderr
    assert "Traceback" not in proc.stderr


SWEEP_CONFIG = {
    "model": {"num_layers": 1, "hidden_size": 16, "num_heads": 2,
              "max_position": 24, "dropout_rate": 0.1},
    "pretrain": {"epochs": 2, "batch_size": 8, "max_len": 24, "seed": 5},
    "finetune": {"epochs": 2, "batch_size": 4, "max_len": 16, "seed": 13},
}


def run_main(*args):
    """One offlm command in this process."""
    assert cli.main([str(a) for a in args]) == 0


@pytest.fixture
def sweep_inputs(tmp_path):
    """Config, scored and labeled fixtures, and a vocabulary built from them."""
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(SWEEP_CONFIG))
    scored = os.path.join(FIXTURES, "scored.tsv")
    vocab = tmp_path / "vocab.txt"
    run_main("build-vocab", "--input", scored, "--size", "200",
             "--output", vocab)
    return {"config": config, "scored": scored, "vocab": vocab,
            "labeled": os.path.join(FIXTURES, "labeled.tsv")}


def param_digests(checkpoint):
    manifest = json.loads((checkpoint / "manifest.json").read_text())
    return {name: p["sha256"] for name, p in manifest["params"].items()}


def test_sweep_bin_matches_its_commands(tmp_path, sweep_inputs):
    """A one-bin sweep with --eval writes, per stage, what select, pretrain,
    finetune --init-checkpoint and evaluate write when run by hand."""
    i = sweep_inputs
    with open(i["labeled"], encoding="utf-8") as f:
        header, *rows = f.read().splitlines()
    held_out = tmp_path / "held_out.tsv"  # the labeled rows under new ids
    held_out.write_text("\n".join([header] + ["e" + row for row in rows]) + "\n")
    sweep, selected = tmp_path / "sweep", tmp_path / "selected.tsv"
    by_hand = {stage: tmp_path / stage
               for stage in ("pretrain", "finetune", "eval")}
    run_main("sweep", "--config", i["config"], "--scored", i["scored"],
             "--train", i["labeled"], "--eval", held_out, "--vocab", i["vocab"],
             "--labels", "not,off", "--bins", "0.7:1.0", "--output-dir", sweep)
    run_main("select", "--input", i["scored"], "--lo", "0.7", "--hi", "1.0",
             "--output", selected)
    run_main("pretrain", "--config", i["config"], "--corpus", selected,
             "--vocab", i["vocab"], "--output-dir", by_hand["pretrain"])
    run_main("finetune", "--config", i["config"], "--train", i["labeled"],
             "--vocab", i["vocab"], "--labels", "not,off",
             "--init-checkpoint", by_hand["pretrain"] / "final",
             "--output-dir", by_hand["finetune"])
    run_main("evaluate", "--model-dir", by_hand["finetune"], "--data", held_out,
             "--model-id", "bin-0.7-1", "--output-dir", by_hand["eval"])

    bin_dir = sweep / "bin-0"
    for stage, hand_dir in by_hand.items():
        assert (sorted(os.listdir(bin_dir / stage))
                == sorted(os.listdir(hand_dir))), stage
    for stage, name in (("pretrain", "final"), ("finetune", "best"),
                        ("finetune", "final")):
        assert (param_digests(bin_dir / stage / name)
                == param_digests(by_hand[stage] / name)), (stage, name)
    for stage, name in (("pretrain", "trainlog.jsonl"),
                        ("finetune", "trainlog.jsonl"),
                        ("finetune", "labels.json"),
                        ("eval", "predictions.tsv"), ("eval", "report.md")):
        assert ((bin_dir / stage / name).read_bytes()
                == (by_hand[stage] / name).read_bytes()), (stage, name)


def test_sweep_scores_rows_it_did_not_fine_tune_on(tmp_path, sweep_inputs,
                                                   monkeypatch):
    """Without --eval, each bin is scored on rows carved from --train
    before fine-tuning; the rows keep the order of --bins."""
    trained, finetune = [], runs.finetune

    def recording_finetune(train_data, *rest, **kwargs):
        trained.append({inst.id for inst in train_data})
        return finetune(train_data, *rest, **kwargs)

    monkeypatch.setattr(runs, "finetune", recording_finetune)
    # in this process: a spawned worker would not see the patched finetune
    monkeypatch.setattr(runs, "_sweep_workers", lambda cells: 1)
    i, sweep = sweep_inputs, tmp_path / "sweep"
    run_main("sweep", "--config", i["config"], "--scored", i["scored"],
             "--train", i["labeled"], "--vocab", i["vocab"],
             "--labels", "not,off", "--bins", "0.7:1.0,0.5:1.0",
             "--output-dir", sweep)

    assert len(trained) == 2
    for index, trained_ids in enumerate(trained):
        predictions = sweep / f"bin-{index}" / "eval" / "predictions.tsv"
        scored_ids = {row["id"] for row in read_tsv(predictions)}
        assert scored_ids and not trained_ids & scored_ids
    rows = [line for line in (sweep / "sweep.md").read_text().splitlines()
            if line.startswith("| 0.")]
    assert [row.split(" | ")[:2] for row in rows] == [["| 0.7 - 1.0", "10"],
                                                      ["| 0.5 - 1.0", "21"]]
    assert "| labeled-heldout | bin-0.7-1 |" in (sweep / "models.md").read_text()


def sweep_args(i, sweep, bins, *extra):
    return [str(a) for a in (
        "sweep", "--config", i["config"], "--scored", i["scored"],
        "--train", i["labeled"], "--vocab", i["vocab"], "--labels", "not,off",
        "--bins", bins, "--output-dir", sweep, *extra)]


def tree_bytes(root):
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in root.rglob("*") if path.is_file()}


def test_sweep_in_workers_writes_what_a_serial_sweep_writes(
        tmp_path, sweep_inputs, monkeypatch, capsys):
    """Two worker processes and one process write the same bytes and print
    the same lines; only the sweep manifest's worker fields differ."""
    i, sweep = sweep_inputs, tmp_path / "sweep"
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "64")
    blas_env = {v: os.environ.get(v) for v in runs._BLAS_THREAD_VARS}
    by_workers = {}
    for workers in (1, 2):
        monkeypatch.setattr(runs, "_sweep_workers", lambda cells: workers)
        assert cli.main(sweep_args(i, sweep, "0.5:1.0,0.7:1.0,0.6:0.9")) == 0
        by_workers[workers] = (capsys.readouterr().out, tree_bytes(sweep))
        shutil.rmtree(sweep)

    (serial_out, serial), (pooled_out, pooled) = by_workers[1], by_workers[2]
    assert pooled_out == serial_out
    assert serial_out.count("pretrained ") == 3
    manifests = [json.loads(tree.pop("manifest.json"))
                 for tree in (serial, pooled)]
    assert [m.pop("workers") for m in manifests] == [1, 2]
    for m in manifests:
        assert m.pop("blas_threads_per_worker") >= 1
    assert manifests[0] == manifests[1]
    assert pooled == serial
    assert not multiprocessing.active_children()
    assert {v: os.environ.get(v) for v in runs._BLAS_THREAD_VARS} == blas_env


def test_failing_sweep_cell_exits_with_its_error(tmp_path, sweep_inputs,
                                                  monkeypatch, capfd):
    """A cell that fails in a worker fails the sweep with the exit code and
    message of its error, and leaves no worker running."""
    monkeypatch.setattr(runs, "_sweep_workers", lambda cells: 2)
    i, sweep = sweep_inputs, tmp_path / "sweep"
    assert cli.main(sweep_args(i, sweep, "0.5:1.0,0.7:1.0", "--lr", "1e30")) == 4
    err = capfd.readouterr().err
    assert "pretraining aborted at epoch 0 step 2" in err
    assert "Traceback" not in err
    assert not (sweep / "sweep.md").exists()
    assert not multiprocessing.active_children()


def test_sweep_workers_split_the_usable_cpus(monkeypatch):
    """One worker per cell and at most one per usable CPU; the workers'
    BLAS threads, at least one each and never more than the caller set,
    add up to no more than the usable CPUs."""
    for var in runs._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setattr(runs, "_usable_cpus", lambda: 1)
    assert runs._sweep_workers(4) == 1
    monkeypatch.setattr(runs, "_usable_cpus", lambda: 8)
    assert [runs._sweep_workers(c) for c in (1, 3, 20)] == [1, 3, 8]
    assert [runs._blas_threads(w) for w in (1, 2, 3, 8)] == [8, 4, 2, 1]
    assert all(w * runs._blas_threads(w) <= 8 for w in range(1, 9))
    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    assert [runs._blas_threads(w) for w in (1, 2, 4)] == [3, 3, 2]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    assert runs._blas_threads(2) == 1


@pytest.mark.parametrize("bins, code", [("0.5:1.0,0.9:0.7", 2),
                                        ("0.5:1.0,0.96:1.0", 3)])
def test_sweep_checks_every_bin_before_training(tmp_path, sweep_inputs, bins,
                                                code):
    """A bad bin (exit 2) or one that selects nothing (exit 3) fails the
    sweep before its first bin trains."""
    i, sweep = sweep_inputs, tmp_path / "sweep"
    args = ("sweep", "--config", i["config"], "--scored", i["scored"],
            "--train", i["labeled"], "--vocab", i["vocab"],
            "--labels", "not,off", "--bins", bins, "--output-dir", sweep)
    assert cli.main([str(a) for a in args]) == code
    assert not (sweep / "bin-0").exists()


def test_sweep_duplicate_labels_fail_before_training(tmp_path, sweep_inputs,
                                                     capsys):
    """--labels naming a class twice is exit 2 before any bin pretrains."""
    i, sweep = sweep_inputs, tmp_path / "sweep"
    args = ("sweep", "--config", i["config"], "--scored", i["scored"],
            "--train", i["labeled"], "--vocab", i["vocab"],
            "--labels", "off,off", "--bins", "0.7:1.0", "--output-dir", sweep)
    assert cli.main([str(a) for a in args]) == 2
    assert "duplicate" in capsys.readouterr().err
    assert not (sweep / "bin-0").exists()


def test_sweep_empty_eval_fails_before_training(tmp_path, sweep_inputs):
    """An --eval file with no rows is exit 3 naming it, before any bin trains."""
    i, sweep = sweep_inputs, tmp_path / "sweep"
    empty = tmp_path / "empty.tsv"
    empty.write_text("id\ttext\tlabel\n")
    args = ("sweep", "--config", i["config"], "--scored", i["scored"],
            "--train", i["labeled"], "--eval", empty, "--vocab", i["vocab"],
            "--labels", "not,off", "--bins", "0.7:1.0", "--output-dir", sweep)
    assert cli.main([str(a) for a in args]) == 3
    assert not (sweep / "bin-0").exists()


def test_sweep_empty_train_fails_before_training(tmp_path, sweep_inputs, capsys):
    """Without --eval, a --train file with no rows cannot be split: exit 3,
    before any bin trains."""
    i, sweep = sweep_inputs, tmp_path / "sweep"
    empty = tmp_path / "empty.tsv"
    empty.write_text("id\ttext\tlabel\n")
    args = ("sweep", "--config", i["config"], "--scored", i["scored"],
            "--train", empty, "--vocab", i["vocab"],
            "--labels", "not,off", "--bins", "0.7:1.0", "--output-dir", sweep)
    assert cli.main([str(a) for a in args]) == 3
    assert "empty dataset" in capsys.readouterr().err
    assert not (sweep / "bin-0").exists()


def declared_entry_point():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(PKG_ROOT, "pyproject.toml"), "rb") as f:
        return tomllib.load(f)["project"]["scripts"]["offlm"]


def run_entry_point(target, *args):
    """Run `module:attr` in a fresh interpreter the way the console-script
    wrapper that setuptools installs does."""
    module, attr = target.split(":")
    wrapper = (f"import sys; from {module} import {attr}; "
               f"sys.argv[0] = 'offlm'; sys.exit({attr}())")
    return subprocess.run([sys.executable, "-c", wrapper, *args],
                          capture_output=True, text=True, env=child_env(),
                          cwd=PKG_ROOT)


def assert_serves_help(proc):
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: offlm")
    assert "select" in proc.stdout
    assert "sweep" in proc.stdout


def test_console_script_entry_point():
    target = declared_entry_point()
    assert target == "offlm.cli:main"
    assert_serves_help(run_entry_point(target, "--help"))


def test_python_dash_m_offlm_matches_entry_point():
    proc = subprocess.run([sys.executable, "-m", "offlm", "--help"],
                          capture_output=True, text=True, env=child_env(),
                          cwd=PKG_ROOT)
    assert_serves_help(proc)
    wrapper = run_entry_point("offlm.cli:main", "--help")
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        wrapper.returncode, wrapper.stdout, wrapper.stderr)


@pytest.mark.skipif(shutil.which("offlm") is None,
                    reason="no installed offlm script on PATH")
def test_installed_offlm_script_runs():
    proc = subprocess.run(["offlm", "--help"], capture_output=True, text=True)
    assert_serves_help(proc)
