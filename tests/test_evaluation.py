import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from offlm.errors import ConfigError, DataError
from offlm.evaluation import (
    SweepRow,
    accuracy,
    config_hash,
    confusion,
    macro_f1,
    make_report,
    per_class_metrics,
    render,
    render_sweep,
)


def small_cm():
    # gold rows, pred cols:
    #        not  off
    #  not    3    1
    #  off    2    4
    preds = ["not"] * 3 + ["off"] + ["not"] * 2 + ["off"] * 4
    gold = ["not"] * 4 + ["off"] * 6
    return confusion(preds, gold, classes=("not", "off"))


def test_confusion_counts():
    cm = small_cm()
    np.testing.assert_array_equal(cm.counts, [[3, 1], [2, 4]])
    assert cm.classes == ("not", "off")


def test_confusion_rejects_unknown_labels():
    with pytest.raises(DataError):
        confusion(["x"], ["not"], classes=("not", "off"))
    with pytest.raises(DataError):
        confusion(["not"], ["x"], classes=("not", "off"))


def test_confusion_rejects_duplicate_class_names():
    with pytest.raises(ConfigError, match=r"duplicate label names \['not'\]"):
        confusion(["not"], ["not"], classes=("not", "not"))


def test_confusion_rejects_length_mismatch():
    with pytest.raises(DataError):
        confusion(["not"], ["not", "off"], classes=("not", "off"))


def test_per_class_metrics_hand_computed():
    m = per_class_metrics(small_cm())
    assert m["not"].precision == pytest.approx(3 / 5)
    assert m["not"].recall == pytest.approx(3 / 4)
    assert m["not"].f1 == pytest.approx(2 * (3 / 5) * (3 / 4) / (3 / 5 + 3 / 4))
    assert m["off"].precision == pytest.approx(4 / 5)
    assert m["off"].recall == pytest.approx(4 / 6)


def test_zero_denominators_give_zero_not_nan():
    # class "off" never predicted and never gold: P, R, F1 all 0/0 -> 0
    cm = confusion(["not", "not"], ["not", "not"], classes=("not", "off"))
    m = per_class_metrics(cm)
    assert m["off"].precision == 0.0
    assert m["off"].recall == 0.0
    assert m["off"].f1 == 0.0


def test_macro_f1_averages_over_all_declared_classes():
    # perfect on "not", absent "off" scores 0, macro pulls down to 0.5
    cm = confusion(["not", "not"], ["not", "not"], classes=("not", "off"))
    assert macro_f1(cm) == pytest.approx(0.5)


def test_macro_f1_perfect_is_exactly_one():
    cm = confusion(["not", "off"], ["not", "off"], classes=("not", "off"))
    assert macro_f1(cm) == 1.0


def test_accuracy():
    assert accuracy(small_cm()) == pytest.approx(7 / 10)


def test_empty_confusion_has_zero_accuracy():
    cm = confusion([], [], classes=("not", "off"))
    assert accuracy(cm) == 0.0
    assert macro_f1(cm) == 0.0


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=60),
    k=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_macro_f1_invariant_under_class_relabeling(n, k, seed):
    rng = np.random.default_rng(seed)
    classes = tuple(f"c{i}" for i in range(k))
    preds = [classes[i] for i in rng.integers(k, size=n)]
    gold = [classes[i] for i in rng.integers(k, size=n)]
    base = macro_f1(confusion(preds, gold, classes))
    perm = tuple(reversed(classes))
    assert macro_f1(confusion(preds, gold, perm)) == pytest.approx(
        base, abs=1e-12)


def test_config_hash_is_stable_and_order_insensitive():
    a = config_hash({"lr": 0.001, "epochs": 3})
    b = config_hash({"epochs": 3, "lr": 0.001})
    assert a == b
    assert len(a) == 12
    assert a != config_hash({"epochs": 4, "lr": 0.001})


def test_render_json_pins_every_report_field():
    report = make_report(small_cm(), dataset_id="dev", model_id="m1",
                         config={"lr": 1e-4})
    [blob] = json.loads(render([report], fmt="json"))
    assert blob == {
        "schema_version": 1,
        "dataset_id": "dev",
        "model_id": "m1",
        "config_hash": config_hash({"lr": 1e-4}),
        "classes": ["not", "off"],
        "per_class": {
            "not": {"precision": 3 / 5, "recall": 3 / 4,
                    "f1": pytest.approx(2 / 3, abs=1e-12)},
            "off": {"precision": 4 / 5, "recall": 4 / 6,
                    "f1": pytest.approx(8 / 11, abs=1e-12)},
        },
        "macro_f1": pytest.approx((2 / 3 + 8 / 11) / 2, abs=1e-12),
        "accuracy": 7 / 10,
        "num_examples": 10,
    }


def test_render_json_is_parseable_and_sorted():
    r1 = make_report(small_cm(), "dev", "weak", {"x": 1})
    cm = confusion(["not", "off"], ["not", "off"], ("not", "off"))
    r2 = make_report(cm, "dev", "strong", {"x": 2})
    out = render([r1, r2], fmt="json")
    rows = json.loads(out)
    assert [r["model_id"] for r in rows] == ["strong", "weak"]


def test_render_markdown_table_shape():
    report = make_report(small_cm(), "dev", "m1", {})
    out = render([report], fmt="markdown")
    lines = out.strip().splitlines()
    assert lines[0] == "| Dataset | Model | Macro F1 |"
    assert lines[1].startswith("|--")
    assert "| dev | m1 |" in lines[2]


def test_render_tsv_has_header_and_rows():
    report = make_report(small_cm(), "dev", "m1", {})
    out = render([report], fmt="tsv")
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["dataset", "model", "macro_f1",
                                    "accuracy", "n"]
    row = lines[1].split("\t")
    assert row[0] == "dev"
    assert row[4] == "10"


def test_render_rejects_unknown_format():
    with pytest.raises(ConfigError):
        render([], fmt="yaml")


def test_render_sweep_markdown_bounds_format():
    out = render_sweep([SweepRow(0.5, 1.0, 21, 1.0)], fmt="markdown")
    lines = out.strip().splitlines()
    assert lines[0] == "| Threshold | Selected | Macro F1 |"
    assert "| 0.5 - 1.0 | 21 | 1.0000 |" in out


def test_render_sweep_tsv():
    out = render_sweep([SweepRow(0.6, 0.9, 7, 0.25)], fmt="tsv")
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["threshold", "selected", "macro_f1"]
    assert lines[1].split("\t") == ["0.6 - 0.9", "7", "0.2500"]


def test_render_sweep_json():
    rows = [SweepRow(0.5, 1.0, 21, 0.25), SweepRow(0.7, 1.0, 10, 0.75)]
    assert json.loads(render_sweep(rows, fmt="json")) == {
        "schema_version": 1,
        "rows": [
            {"lo": 0.5, "hi": 1.0, "selected_count": 21, "macro_f1": 0.25},
            {"lo": 0.7, "hi": 1.0, "selected_count": 10, "macro_f1": 0.75},
        ],
    }


def _golden_reports():
    cm = confusion(["not", "off", "off"], ["not", "off", "not"], ("not", "off"))
    return [make_report(cm, "dev-heldout", "bin-0.7-1", {"x": 2}),
            make_report(small_cm(), "dev", "weak", {"x": 1})]


_GOLDEN_SWEEP_ROWS = [SweepRow(0.5, 1.0, 21, 0.25), SweepRow(0.7, 0.95, 10, 2 / 3),
                      SweepRow(0.0, 1.0, 100, 1.0)]


@pytest.mark.parametrize("fmt,expected", [
    ("tsv", "dataset\tmodel\tmacro_f1\taccuracy\tn\n"
            "dev\tweak\t0.6970\t0.7000\t10\n"
            "dev-heldout\tbin-0.7-1\t0.6667\t0.6667\t3\n"),
    ("markdown", "| Dataset | Model | Macro F1 |\n"
                 "|---------|-------|----------|\n"
                 "| dev | weak | 0.6970 |\n"
                 "| dev-heldout | bin-0.7-1 | 0.6667 |\n"),
])
def test_render_output_is_pinned(fmt, expected):
    assert render(_golden_reports(), fmt) == expected


@pytest.mark.parametrize("fmt,expected", [
    ("tsv", "threshold\tselected\tmacro_f1\n"
            "0.5 - 1.0\t21\t0.2500\n"
            "0.7 - 0.95\t10\t0.6667\n"
            "0.0 - 1.0\t100\t1.0000\n"),
    ("markdown", "| Threshold | Selected | Macro F1 |\n"
                 "|-----------|----------|----------|\n"
                 "| 0.5 - 1.0 | 21 | 0.2500 |\n"
                 "| 0.7 - 0.95 | 10 | 0.6667 |\n"
                 "| 0.0 - 1.0 | 100 | 1.0000 |\n"),
])
def test_render_sweep_output_is_pinned(fmt, expected):
    assert render_sweep(_GOLDEN_SWEEP_ROWS, fmt) == expected


@pytest.mark.parametrize("fmt,expected", [
    ("tsv", ("dataset\tmodel\tmacro_f1\taccuracy\tn\n",
             "threshold\tselected\tmacro_f1\n")),
    ("markdown", ("| Dataset | Model | Macro F1 |\n|---------|-------|----------|\n",
                  "| Threshold | Selected | Macro F1 |\n"
                  "|-----------|----------|----------|\n")),
])
def test_empty_tables_keep_their_header(fmt, expected):
    assert (render([], fmt), render_sweep([], fmt)) == expected


def test_render_sweep_rejects_unknown_format():
    with pytest.raises(ConfigError, match="unknown format 'yaml'"):
        render_sweep(_GOLDEN_SWEEP_ROWS, fmt="yaml")
