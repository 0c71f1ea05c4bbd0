import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys

import pytest

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(PKG_ROOT, "tests", "fixtures")
SRC = os.path.join(PKG_ROOT, "src")
EMOJI_MAP = os.path.join(SRC, "offlm", "data", "emoji_map.tsv")


def child_env():
    """The caller's environment with this checkout's `src` first on PYTHONPATH."""
    env = dict(os.environ)
    env.pop("OFFLM_CONFIG", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_cli(*args, env_extra=None, cwd=None):
    env = child_env()
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "offlm.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd or PKG_ROOT)


def test_no_arguments_shows_usage_and_exits_2():
    proc = run_cli()
    assert proc.returncode == 2
    assert "usage" in (proc.stderr + proc.stdout).lower()


def test_unknown_subcommand_exits_2():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2


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


def test_config_file_supplies_defaults_and_flags_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"prep": {"min_chars": 1000}}))
    out = tmp_path / "prepped.tsv"
    # min_chars 1000 drops everything
    proc = run_cli("preprocess", "--config", str(cfg),
                   "--input", os.path.join(FIXTURES, "scored.tsv"),
                   "--output", str(out))
    assert proc.returncode == 0
    with open(out, newline="", encoding="utf-8") as f:
        assert len(list(csv.DictReader(f, delimiter="\t"))) == 0
    # explicit flag beats the config file
    proc = run_cli("preprocess", "--config", str(cfg),
                   "--input", os.path.join(FIXTURES, "scored.tsv"),
                   "--output", str(out), "--min-chars", "18")
    assert proc.returncode == 0
    with open(out, newline="", encoding="utf-8") as f:
        assert len(list(csv.DictReader(f, delimiter="\t"))) == 28


def test_config_via_environment_variable(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"prep": {"min_chars": 1000}}))
    out = tmp_path / "prepped.tsv"
    proc = run_cli("preprocess",
                   "--input", os.path.join(FIXTURES, "scored.tsv"),
                   "--output", str(out),
                   env_extra={"OFFLM_CONFIG": str(cfg)})
    assert proc.returncode == 0
    with open(out, newline="", encoding="utf-8") as f:
        assert len(list(csv.DictReader(f, delimiter="\t"))) == 0


def test_malformed_config_file_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    proc = run_cli("preprocess", "--config", str(cfg),
                   "--input", os.path.join(FIXTURES, "scored.tsv"),
                   "--output", str(tmp_path / "out.tsv"))
    assert proc.returncode == 2


def test_unknown_config_section_exit_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"pretraining": {"epochs": 1}}))
    proc = run_cli("preprocess", "--config", str(cfg),
                   "--input", os.path.join(FIXTURES, "scored.tsv"),
                   "--output", str(tmp_path / "out.tsv"))
    assert proc.returncode == 2


def test_evaluate_missing_model_dir_exit_3(tmp_path):
    proc = run_cli("evaluate", "--model-dir", str(tmp_path / "absent"),
                   "--data", os.path.join(FIXTURES, "labeled.tsv"),
                   "--output-dir", str(tmp_path / "eval"))
    assert proc.returncode == 3


def test_evaluate_malformed_manifest_exit_3(tmp_path):
    ckpt = tmp_path / "ckpt"
    ckpt.mkdir()
    manifest = ckpt / "manifest.json"
    manifest.write_text(json.dumps({"format_version": 1, "num_classes": 2,
                                    "config": {"vocab_size": 16}}))
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("[PAD]\n[UNK]\n[CLS]\n[SEP]\n[MASK]\na\n")
    proc = run_cli("evaluate", "--model-dir", str(ckpt), "--vocab", str(vocab),
                   "--labels", "not,off",
                   "--data", os.path.join(FIXTURES, "labeled.tsv"),
                   "--output-dir", str(tmp_path / "eval"))
    assert proc.returncode == 3, proc.stderr
    assert str(manifest) in proc.stderr
    assert "params" in proc.stderr
    assert "Traceback" not in proc.stderr


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
