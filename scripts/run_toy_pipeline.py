#!/usr/bin/env python3
"""Run the whole pipeline on the bundled fixtures and print the tables.

Selects high-scored rows, cleans them, builds a word-piece vocabulary,
pretrains the encoder, fine-tunes a classifier, and finishes with the
evaluation report on held-out rows plus a two-bin threshold sweep.
Every artifact lands under --workdir so the run can be inspected
afterwards.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from importlib import resources

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")


def run(label: str, *args: str) -> None:
    print(f"==> {label}", flush=True)
    proc = subprocess.run([sys.executable, "-m", "offlm.cli", *args])
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="toy_run",
                        help="directory for intermediate and final artifacts")
    parser.add_argument("--bins", default="0.5:1.0,0.7:1.0",
                        help="comma-separated lo:hi score bins for the sweep")
    args = parser.parse_args(argv)

    work = os.path.abspath(args.workdir)
    os.makedirs(work, exist_ok=True)
    scored = os.path.join(FIXTURES, "scored.tsv")
    labeled = os.path.join(FIXTURES, "labeled.tsv")
    heldout = os.path.join(FIXTURES, "heldout.tsv")
    config = os.path.join(FIXTURES, "toy_config.json")
    lexicon = os.path.join(FIXTURES, "lexicon.tsv")
    emoji_map = str(resources.files("offlm").joinpath("data", "emoji_map.tsv"))
    selected = os.path.join(work, "selected.tsv")
    clean = os.path.join(work, "clean.tsv")
    vocab = os.path.join(work, "vocab.txt")

    run("select rows scored 0.5 or higher",
        "select", "--input", scored, "--lo", "0.5", "--hi", "1.0",
        "--output", selected)
    run("normalize, demojize, and segment hashtags",
        "preprocess", "--input", selected, "--output", clean,
        "--emoji-map", emoji_map, "--lexicon", lexicon)
    run("build the word-piece vocabulary",
        "build-vocab", "--input", clean, "--size", "400", "--output", vocab)
    run("pretrain the encoder on masked tokens",
        "pretrain", "--config", config, "--corpus", clean, "--vocab", vocab,
        "--output-dir", os.path.join(work, "pretrain"))
    run("fine-tune the classifier",
        "finetune", "--config", config, "--train", labeled, "--vocab", vocab,
        "--labels", "not,off",
        "--init-checkpoint", os.path.join(work, "pretrain", "final"),
        "--output-dir", os.path.join(work, "finetune"))
    run("evaluate on held-out rows",
        "evaluate", "--model-dir", os.path.join(work, "finetune"),
        "--data", heldout, "--output-dir", os.path.join(work, "eval"),
        "--format", "markdown")
    run("sweep selection thresholds",
        "sweep", "--config", config, "--scored", scored, "--train", labeled,
        "--vocab", vocab, "--labels", "not,off", "--bins", args.bins,
        "--output-dir", os.path.join(work, "sweep"), "--format", "markdown")

    print(f"\nartifacts under {work}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
