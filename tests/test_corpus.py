import os
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from offlm.corpus import (
    LabeledInstance,
    ScoredInstance,
    distinct_labels,
    load_labeled,
    load_scored,
    make_batches,
    select_by_threshold,
    split,
)
from offlm.errors import ConfigError, DataError


def test_distinct_labels_names_each_repeated_label():
    assert distinct_labels(("not", "off")) == ["not", "off"]
    with pytest.raises(ConfigError, match=r"duplicate label names \['a', 'b'\] in "
                                          r"\['a', 'b', 'a', 'b', 'c'\]"):
        distinct_labels(("a", "b", "a", "b", "c"))


def test_load_scored_parses_fixture(fixtures_dir):
    rows = load_scored(os.path.join(fixtures_dir, "scored.tsv"))
    assert len(rows) == 30
    assert rows[0] == ScoredInstance(id="s01", text=rows[0].text, score=0.92)
    by_id = {r.id: r for r in rows}
    # quoted field with an embedded tab survives csv parsing
    assert "\t" in by_id["s27"].text


def test_load_scored_line_numbers_in_errors(tmp_path):
    bad = tmp_path / "scored.tsv"
    bad.write_text("id\ttext\taverage\nx1\thello there\tnot-a-score\n",
                   encoding="utf-8")
    with pytest.raises(DataError, match=":2:"):
        load_scored(bad)


def test_load_scored_score_out_of_range(tmp_path):
    bad = tmp_path / "scored.tsv"
    bad.write_text("id\ttext\taverage\nx1\thello\t1.5\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_scored(bad)


def test_load_scored_missing_column(tmp_path):
    bad = tmp_path / "scored.tsv"
    bad.write_text("id\tbody\taverage\nx1\thello\t0.5\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_scored(bad)


def test_load_labeled_parses_fixture(fixtures_dir):
    rows = load_labeled(os.path.join(fixtures_dir, "labeled.tsv"),
                        labels=("not", "off"))
    assert len(rows) == 20
    assert {r.label for r in rows} == {"not", "off"}


def test_load_labeled_rejects_undeclared_label(tmp_path):
    bad = tmp_path / "labeled.tsv"
    bad.write_text("id\ttext\tlabel\nx1\thello\tmaybe\n", encoding="utf-8")
    with pytest.raises(DataError, match=":2:"):
        load_labeled(bad, labels=("not", "off"))


def test_select_bounds_are_inclusive():
    instances = [ScoredInstance(str(i), "t", s)
                 for i, s in enumerate([0.5, 0.7, 1.0, 0.49999])]
    got = select_by_threshold(instances, 0.5, 1.0)
    assert [g.score for g in got] == [0.5, 0.7, 1.0]


def test_select_preserves_order():
    instances = [ScoredInstance(str(i), "t", s)
                 for i, s in enumerate([0.9, 0.6, 0.8])]
    assert [g.id for g in select_by_threshold(instances, 0.5, 1.0)] == \
        ["0", "1", "2"]


def test_select_validates_bounds():
    with pytest.raises(ConfigError):
        select_by_threshold([], 0.9, 0.5)
    with pytest.raises(ConfigError):
        select_by_threshold([], -0.1, 0.5)
    with pytest.raises(ConfigError):
        select_by_threshold([], 0.5, 1.1)


@settings(max_examples=50, deadline=None)
@given(
    scores=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=50),
    lo=st.floats(min_value=0.0, max_value=1.0),
    hi=st.floats(min_value=0.0, max_value=1.0),
)
def test_select_equals_brute_force(scores, lo, hi):
    if lo > hi:
        lo, hi = hi, lo
    instances = [ScoredInstance(str(i), "t", s) for i, s in enumerate(scores)]
    got = select_by_threshold(instances, lo, hi)
    expected = [inst for inst in instances if lo <= inst.score <= hi]
    assert got == expected


@dataclass(frozen=True)
class SplitSpec:
    """The k-way split's spec before the two-way split replaced it."""
    ratios: tuple[float, ...]
    seed: int

    def __post_init__(self):
        if not self.ratios or any(r <= 0 for r in self.ratios):
            raise ConfigError("split ratios must be positive")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise ConfigError(f"split ratios sum to {sum(self.ratios)}, not 1")


def _split_oracle(dataset, spec):
    """The k-way split before the two-way split replaced it: seeded shuffle,
    then a contiguous partition by cumulative ratio with largest-remainder
    rounding."""
    n = len(dataset)
    k = len(spec.ratios)
    if n == 0 and k > 1:
        raise DataError("cannot split an empty dataset into multiple parts")
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    order = rng.permutation(n)
    shuffled = [dataset[i] for i in order]

    exact = [r * n for r in spec.ratios]
    sizes = [int(x) for x in exact]
    short = n - sum(sizes)
    remainders = sorted(range(k), key=lambda i: (-(exact[i] - sizes[i]), i))
    for i in remainders[:short]:
        sizes[i] += 1

    parts = []
    start = 0
    for size in sizes:
        parts.append(shuffled[start:start + size])
        start += size
    return parts


def test_split_partitions_without_loss():
    data = list(range(100))
    rest, held = split(data, 0.2, seed=7)
    assert len(rest) == 80 and len(held) == 20
    assert sorted(rest + held) == data


def test_split_deterministic_and_seed_sensitive():
    data = list(range(40))
    a = split(data, 0.5, seed=1)
    b = split(data, 0.5, seed=1)
    c = split(data, 0.5, seed=2)
    assert a == b
    assert a != c


def test_split_gives_a_tied_remainder_to_the_rest():
    # 0.5 of 7 -> exact 3.5/3.5 -> floors 3/3, the leftover to the rest
    rest, held = split(list(range(7)), 0.5, seed=0)
    assert (len(rest), len(held)) == (4, 3)


def test_split_rejects_an_empty_dataset_and_bad_fractions():
    with pytest.raises(DataError):
        split([], 0.2, seed=0)
    for fraction in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ConfigError):
            split([1, 2], fraction, seed=0)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=400),
    fraction=st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                       exclude_max=True),
    seed=st.integers(min_value=0, max_value=2**63),
)
def test_split_matches_k_way_oracle(n, fraction, seed):
    data = list(range(n))
    expected = _split_oracle(data, SplitSpec((1.0 - fraction, fraction), seed))
    assert list(split(data, fraction, seed)) == expected


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=200),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_split_is_a_partition(n, seed):
    data = list(range(n))
    rest, held = split(data, 0.4, seed=seed)
    assert len(rest) + len(held) == n
    assert sorted(rest + held) == data
    assert abs(len(rest) - round(0.6 * n)) <= 1


def test_make_batches_covers_dataset_with_partial_tail():
    batches = list(make_batches(list(range(10)), batch_size=4, shuffle=False))
    assert [len(b) for b in batches] == [4, 4, 2]
    assert [x for b in batches for x in b] == list(range(10))


def test_make_batches_shuffle_is_seeded():
    data = list(range(16))
    a = [x for b in make_batches(data, 4, shuffle=True, seed=3) for x in b]
    b = [x for b in make_batches(data, 4, shuffle=True, seed=3) for x in b]
    c = [x for b in make_batches(data, 4, shuffle=True, seed=4) for x in b]
    assert a == b
    assert a != c
    assert sorted(a) == data


def test_make_batches_validates_batch_size():
    with pytest.raises(ConfigError):
        list(make_batches([1], batch_size=0, shuffle=False))


def test_instances_are_immutable():
    inst = LabeledInstance("x", "text", "off")
    with pytest.raises(AttributeError):
        inst.label = "not"
