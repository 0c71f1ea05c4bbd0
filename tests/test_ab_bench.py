import importlib.util
import os

import pytest

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "scripts", "ab_bench.py")


@pytest.fixture(scope="module")
def verdict():
    spec = importlib.util.spec_from_file_location("ab_bench", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.verdict


def pairs(base, change):
    return list(zip(base, change))


BASE = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]


def test_gain_needs_nine_of_ten_wins_and_a_median_beyond_the_base_spread(verdict):
    assert verdict(pairs(BASE, [b + 5 for b in BASE]), "higher", 0.25) == "gain"
    assert verdict(pairs(BASE, [b - 5 for b in BASE]), "lower", 0.25) == "gain"
    # nine wins and one tie are still nine tenths; ties count for neither side
    nine = [b + 5 for b in BASE[:9]] + [BASE[9]]
    assert verdict(pairs(BASE, nine), "higher", 0.25) == "gain"
    # eight wins are not
    eight = [b + 5 for b in BASE[:8]] + [BASE[8] - 1, BASE[9]]
    assert verdict(pairs(BASE, eight), "higher", 0.25) == "within bound"


def test_no_gain_from_a_median_inside_the_base_spread_or_fewer_than_ten_pairs(verdict):
    # every pair wins, by less than the base's interquartile range
    assert verdict(pairs(BASE, [b + 0.05 for b in BASE]), "higher", 0.25) == "within bound"
    assert verdict(pairs(BASE[:9], [b + 5 for b in BASE[:9]]), "higher", 0.25) == "within bound"


def test_worse_than_bound_is_relative_to_the_base_median(verdict):
    assert verdict(pairs(BASE, [b * 0.7 for b in BASE]), "higher", 0.25) == "worse than bound"
    assert verdict(pairs(BASE, [b * 0.8 for b in BASE]), "higher", 0.25) == "within bound"
    assert verdict(pairs(BASE, [b * 1.3 for b in BASE]), "lower", 0.25) == "worse than bound"


def test_unresolved_when_the_base_spreads_wider_than_the_bound(verdict):
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert verdict(pairs(wide, wide[::-1]), "higher", 0.25) == "unresolved"
    # unless every change run is better than every base run
    assert verdict(pairs(wide[:4], [150.0] * 4), "higher", 0.25) == "within bound"
    # a change median beyond the bound is still reported as worse
    assert verdict(pairs(wide, [50.0] * 10), "higher", 0.25) == "worse than bound"
