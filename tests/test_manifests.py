"""Every manifest the seven commands write, compared in full with
tests/fixtures/golden_manifests.json.

Run this file as a script to rewrite the golden file after an intended
change to what a manifest records:

    PYTHONPATH=src python tests/test_manifests.py
"""

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

from offlm import cli, runs

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(PKG_ROOT, "tests", "fixtures")
GOLDEN = os.path.join(FIXTURES, "golden_manifests.json")
EMOJI_MAP = os.path.join(PKG_ROOT, "src", "offlm", "data", "emoji_map.tsv")
CONFIG = {
    "model": {"num_layers": 1, "hidden_size": 16, "num_heads": 2,
              "max_position": 24, "dropout_rate": 0.1},
    "pretrain": {"epochs": 2, "batch_size": 8, "max_len": 24, "seed": 5},
    "finetune": {"epochs": 2, "batch_size": 4, "max_len": 16, "seed": 13},
}
# values that depend on the machine, not on the run
MACHINE_KEYS = ("environment", "workers", "blas_threads_per_worker")


def run_commands(work: Path) -> None:
    """The README's seven commands on the fixtures, plus pretraining that
    continues from a checkpoint, each through `cli.main` in this process
    and the sweep's bins in this process too."""
    config = work / "config.json"
    config.write_text(json.dumps(CONFIG))
    scored, labeled, heldout, lexicon = (
        os.path.join(FIXTURES, name)
        for name in ("scored.tsv", "labeled.tsv", "heldout.tsv", "lexicon.tsv"))
    selected, clean, vocab = (work / name for name in
                              ("selected.tsv", "clean.tsv", "vocab.txt"))
    commands = [
        ("select", "--input", scored, "--lo", "0.5",
         "--output", selected),
        ("preprocess", "--input", selected, "--output", clean,
         "--emoji-map", EMOJI_MAP, "--lexicon", lexicon),
        ("build-vocab", "--input", clean, "--size", "200", "--output", vocab),
        ("pretrain", "--config", config, "--corpus", clean, "--vocab", vocab,
         "--output-dir", work / "pretrain"),
        ("pretrain", "--config", config, "--corpus", clean, "--vocab", vocab,
         "--init-checkpoint", work / "pretrain" / "final", "--epochs", "1",
         "--output-dir", work / "repretrain"),
        ("finetune", "--config", config, "--train", labeled,
         "--vocab", vocab, "--labels", "not,off",
         "--init-checkpoint", work / "pretrain" / "final",
         "--output-dir", work / "finetune"),
        ("evaluate", "--model-dir", work / "finetune",
         "--data", heldout, "--output-dir", work / "eval"),
        ("sweep", "--config", config, "--scored", scored,
         "--train", labeled, "--vocab", vocab,
         "--labels", "not,off", "--bins", "0.5:1.0,0.7:1.0",
         "--output-dir", work / "sweep"),
    ]
    for args in commands:
        assert cli.main([str(a) for a in args]) == 0, args


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def normalised(manifest: dict, work: Path):
    """`manifest` with the run's directory and the checkout written as
    <tmp> and <root>, and the values of MACHINE_KEYS as <machine>. Digests
    of trained weights (a checkpoint's parameter files, and a checkpoint
    manifest a run read) differ with the BLAS that computed them, so they
    read <weights>; every digest in `inputs` is first checked against the
    file it names."""
    manifest = dict(manifest)
    for key in MACHINE_KEYS:
        if key in manifest:
            value = manifest[key]
            manifest[key] = ({k: "<machine>" for k in value}
                             if isinstance(value, dict) else "<machine>")
    for path, digest in manifest.get("inputs", {}).items():
        assert digest == sha256(path), path
        if os.path.basename(path) == "manifest.json":
            manifest["inputs"][path] = "<weights>"
    for entry in manifest.get("params", {}).values():
        entry["sha256"] = "<weights>"

    def paths(value):
        if isinstance(value, dict):
            return {paths(k): paths(v) for k, v in value.items()}
        if isinstance(value, list):
            return [paths(v) for v in value]
        if isinstance(value, str):
            return value.replace(str(work), "<tmp>").replace(PKG_ROOT, "<root>")
        return value

    return paths(manifest)


def manifests(work: Path) -> dict:
    """Every manifest under `work`, normalised, by its relative path."""
    found = sorted(p for p in work.rglob("*")
                   if p.name == "manifest.json" or p.name.endswith(".manifest.json"))
    return {p.relative_to(work).as_posix():
            normalised(json.loads(p.read_text(encoding="utf-8")), work)
            for p in found}


def test_every_manifest_matches_the_golden_file(tmp_path, monkeypatch):
    """Each run manifest and checkpoint manifest the commands write, key by
    key and value by value, and no manifest more or fewer."""
    monkeypatch.setattr(runs, "_sweep_workers", lambda cells: 1)
    run_commands(tmp_path)
    with open(GOLDEN, encoding="utf-8") as f:
        golden = json.load(f)
    got = manifests(tmp_path)
    assert sorted(got) == sorted(golden)
    for name in golden:
        assert got[name] == golden[name], name


def run(*args) -> None:
    assert cli.main([str(a) for a in args]) == 0, args


def test_select_in_place_records_the_input_it_read(tmp_path):
    """select whose --output is its --input records the digest of the rows
    it read, not of the rows it wrote over them."""
    rows = tmp_path / "rows.tsv"
    rows.write_bytes(Path(FIXTURES, "scored.tsv").read_bytes())
    read = sha256(rows)
    run("select", "--input", rows, "--lo", "0.5", "--output", rows)
    assert sha256(rows) != read
    manifest = json.loads((tmp_path / "rows.tsv.manifest.json").read_text())
    assert manifest["inputs"] == {str(rows): read}


def test_pretraining_continued_in_place_records_the_checkpoint_it_read(
        tmp_path):
    """pretrain --init-checkpoint out/final --output-dir out records the
    digest of the final/ it started from, not of the final/ it saved."""
    config, vocab, out = (tmp_path / name for name in
                          ("config.json", "vocab.txt", "pretrain"))
    config.write_text(json.dumps(CONFIG))
    scored = os.path.join(FIXTURES, "scored.tsv")
    run("build-vocab", "--input", scored, "--size", "200", "--output", vocab)
    pretrain = ("pretrain", "--config", config, "--corpus", scored,
                "--vocab", vocab, "--output-dir", out)
    run(*pretrain)
    checkpoint = out / "final" / "manifest.json"
    read = sha256(checkpoint)
    run(*pretrain, "--init-checkpoint", out / "final")
    assert sha256(checkpoint) != read
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"][str(checkpoint)] == read


def test_pretraining_with_its_own_vocabulary_copy(tmp_path):
    """pretrain --vocab out/vocab.txt --output-dir out leaves vocab.txt as
    it is and writes its manifest, rather than failing to copy the file
    onto itself."""
    config, out = tmp_path / "config.json", tmp_path / "pretrain"
    config.write_text(json.dumps(CONFIG))
    out.mkdir()
    vocab = out / "vocab.txt"
    scored = os.path.join(FIXTURES, "scored.tsv")
    run("build-vocab", "--input", scored, "--size", "200", "--output", vocab)
    before = vocab.read_bytes()
    run("pretrain", "--config", config, "--corpus", scored, "--vocab", vocab,
        "--output-dir", out)
    assert vocab.read_bytes() == before
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"][str(vocab)] == sha256(vocab)


if __name__ == "__main__":
    runs._sweep_workers = lambda cells: 1
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp).resolve()
        run_commands(work)
        with open(GOLDEN, "w", encoding="utf-8") as f:
            json.dump(manifests(work), f, indent=2, sort_keys=True)
            f.write("\n")
    print(f"wrote {GOLDEN}", file=sys.stderr)
