"""Scored-corpus ingestion, threshold-bin selection, labeled-dataset
loading, the seeded held-out split, and batch assembly.

Files are UTF-8 TSVs with a header row. Text fields may contain tabs
when quoted; parsing goes through the csv module so quoting round-trips.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError, not_utf8


@dataclass(frozen=True)
class ScoredInstance:
    id: str
    text: str
    score: float


@dataclass(frozen=True)
class LabeledInstance:
    id: str
    text: str
    label: str


def read_rows(path, required: Sequence[str]) -> tuple[list[str], list[tuple[int, dict]]]:
    """The header and the (line number, row) pairs of a TSV. An empty file,
    a header without a required column, a row with more fields than the
    header, a row without a required field and a row the csv module
    rejects are DataErrors."""
    with open(path, encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f, delimiter="\t", quotechar='"')
        try:
            if reader.fieldnames is None:
                raise DataError(f"{path}: empty file, expected a header row")
            missing = [c for c in required if c not in reader.fieldnames]
            if missing:
                raise DataError(f"{path}: header missing column(s) {missing}")
            rows = []
            for row in reader:
                if None in row:  # DictReader files surplus fields under None
                    raise DataError(
                        f"{path}:{reader.line_num}: "
                        f"{len(reader.fieldnames) + len(row[None])} fields, "
                        f"header has {len(reader.fieldnames)}")
                if any(row[c] is None for c in required):
                    raise DataError(f"{path}:{reader.line_num}: short row")
                rows.append((reader.line_num, row))
        except csv.Error as e:  # the DictReader's own line_num lags on errors
            raise DataError(f"{path}:{reader.reader.line_num}: {e}") from e
        except UnicodeDecodeError as e:
            raise not_utf8(path) from e
        return list(reader.fieldnames), rows


def parse_scored(path, rows: Sequence[tuple[int, dict]], id_column: str,
                 text_column: str, score_column: str) -> list[ScoredInstance]:
    """One instance per row of `read_rows`, in order. Scores must lie in [0, 1]."""
    out = []
    for line_num, row in rows:
        raw = row[score_column]
        try:
            score = float(raw)
        except ValueError as e:
            raise DataError(f"{path}:{line_num}: bad score {raw!r}") from e
        if not 0.0 <= score <= 1.0:
            raise DataError(f"{path}:{line_num}: score {score} outside [0, 1]")
        out.append(ScoredInstance(row[id_column], row[text_column], score))
    return out


def load_scored(path, id_column: str = "id", text_column: str = "text",
                score_column: str = "average") -> list[ScoredInstance]:
    """Parse a scored TSV. Scores must lie in [0, 1]."""
    _, rows = read_rows(path, (id_column, text_column, score_column))
    return parse_scored(path, rows, id_column, text_column, score_column)


def load_texts(path, text_column: str = "text") -> list[str]:
    """The text column of a TSV, in order."""
    _, rows = read_rows(path, (text_column,))
    return [row[text_column] for _, row in rows]


def load_labeled(path, labels: Sequence[str], id_column: str = "id",
                 text_column: str = "text",
                 label_column: str = "label") -> list[LabeledInstance]:
    """Parse a labeled TSV; every label must be in the declared set."""
    allowed = set(labels)
    out = []
    _, rows = read_rows(path, (id_column, text_column, label_column))
    for line_num, row in rows:
        label = row[label_column]
        if label not in allowed:
            raise DataError(
                f"{path}:{line_num}: label {label!r} not in {sorted(allowed)}")
        out.append(LabeledInstance(row[id_column], row[text_column], label))
    return out


def select_by_threshold(instances: Sequence[ScoredInstance], lo: float,
                        hi: float) -> list[ScoredInstance]:
    """Instances with lo <= score <= hi, original order preserved."""
    if not 0.0 <= lo <= hi <= 1.0:
        raise ConfigError(f"bad threshold bin [{lo}, {hi}]")
    return [inst for inst in instances if lo <= inst.score <= hi]


def split(dataset: Sequence, fraction: float, seed: int) -> tuple[list, list]:
    """Seeded shuffle, then a cut into the rest and a held-out share of
    `fraction`, sized by largest-remainder rounding of (1 - fraction,
    fraction) * n with ties to the rest. The parts are disjoint and
    exhaustive."""
    if not 0.0 < fraction < 1.0:
        raise ConfigError(f"split fraction {fraction} outside (0, 1)")
    n = len(dataset)
    if n == 0:
        raise DataError("cannot split an empty dataset")
    order = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    shuffled = [dataset[i] for i in order]
    exact = ((1.0 - fraction) * n, fraction * n)
    sizes = [int(x) for x in exact]
    # stable sort on the negated remainder: the larger one first, ties to the rest
    for i in sorted((0, 1), key=lambda i: sizes[i] - exact[i])[:n - sum(sizes)]:
        sizes[i] += 1
    return shuffled[:sizes[0]], shuffled[sizes[0]:]


def make_batches(dataset: Sequence, batch_size: int, shuffle: bool,
                 seed: int = 0) -> Iterator[list]:
    """Yield lists of at most batch_size items; the final partial batch is
    kept. Shuffling is seeded and reproducible."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    n = len(dataset)
    if shuffle:
        rng = np.random.Generator(np.random.PCG64(seed))
        order = rng.permutation(n)
    else:
        order = np.arange(n)
    for start in range(0, n, batch_size):
        yield [dataset[i] for i in order[start:start + batch_size]]
