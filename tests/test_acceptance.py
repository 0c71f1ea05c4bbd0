"""Whole-system acceptance gate.

Ten checks, each guarding one shipped guarantee at its stated tolerance.
Every test prints a single PASS or FAIL line, so `pytest -s
tests/test_acceptance.py` reads as a checklist. Checks with wall-clock
budgets assert them alongside the numeric bounds.
"""

import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
from mlm_stats import pll_loss

from offlm import autograd as ag
from offlm.corpus import (LabeledInstance, ScoredInstance, load_labeled,
                          select_by_threshold)
from offlm.evaluation import confusion, macro_f1
from offlm.model import (
    ModelConfig,
    classify,
    init_params,
    load_checkpoint,
    mlm_logits,
)
from offlm.tokenizer import SPECIAL_TOKENS, Vocabulary, build_vocab, tokenize
from offlm.training import (
    EarlyStopper,
    FinetuneConfig,
    PretrainConfig,
    _stack_batch,
    evaluation_loss,
    finetune,
    lr_at,
    mask_tokens,
    pretrain,
    tokenize_labeled,
)
from tensor_ops import full_encode, reshape

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@contextmanager
def gate(label):
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL", flush=True)
        raise
    print(f"{label}: PASS", flush=True)


def _sentences_32():
    subjects = ("the cat", "a dog", "the bird", "that fox")
    verbs = ("sat on", "ran over", "looked at", "slept near")
    places = ("the mat", "a hill")
    tails = ("all day", "last night")
    texts = []
    for s in subjects:
        for v in verbs:
            for p in places:
                texts.append(f"{s} {v} {p} {tails[len(texts) % 2]}")
    return texts


def _separable_20():
    off = [f"take that trash talk {w}" for w in
           ("away", "home", "out", "back", "now",
            "today", "again", "please", "twice", "once")]
    kind = [f"what a lovely day {w}" for w in
            ("today", "again", "friend", "outside", "here",
             "there", "now", "indeed", "truly", "folks")]
    rows = [LabeledInstance(id=f"o{i}", text=t, label="off")
            for i, t in enumerate(off)]
    rows += [LabeledInstance(id=f"p{i}", text=t, label="not")
             for i, t in enumerate(kind)]
    return rows


def test_gradients_match_finite_differences():
    with gate("criterion 01 (finite-difference gradients)"):
        start = time.perf_counter()
        cfg = ModelConfig(vocab_size=16, num_layers=1, hidden_size=8,
                          num_heads=2, max_position=8, dropout_rate=0.0)
        model = init_params(cfg, seed=3, num_classes=2, dtype=np.float64)

        rng = np.random.default_rng(0)
        ids = rng.integers(5, 16, size=(2, 6))
        ids[:, 0] = 2
        ids[1, 4:] = 0
        attn = np.ones((2, 6), dtype=np.int64)
        attn[1, 4:] = 0
        targets = ids.reshape(-1).copy()
        chosen = np.zeros((2, 6), dtype=bool)
        chosen[0, 2] = chosen[0, 4] = chosen[1, 1] = True
        masked = ids.copy()
        masked[chosen] = 4
        token_mask = chosen.reshape(-1).astype(np.int64)
        labels = np.array([0, 1])
        row_mask = np.ones(2, dtype=np.int64)

        def loss():
            hidden = full_encode(masked, attn, model, train_mode=False)
            scores = reshape(mlm_logits(hidden, model), (12, 16))
            mlm = ag.masked_cross_entropy(scores, targets, token_mask,
                                          reduction="mean")
            first = ag.take(hidden, (slice(None), 0))
            cls = ag.masked_cross_entropy(classify(first, model), labels,
                                          row_mask, reduction="mean")
            return ag.add(mlm, cls)

        ag.backward(loss())
        analytic = {name: t.grad.copy() for name, t in model.named_params()}

        h = 1e-5
        for name, tensor in model.named_params():
            flat = tensor.data.reshape(-1)
            grads = analytic[name].reshape(-1)
            for i in range(flat.size):
                saved = flat[i]
                flat[i] = saved + h
                above = float(loss().data)
                flat[i] = saved - h
                below = float(loss().data)
                flat[i] = saved
                numeric = (above - below) / (2 * h)
                scale = max(abs(grads[i]), abs(numeric), 1e-5)
                rel = abs(grads[i] - numeric) / scale
                assert rel <= 1e-4, (
                    f"{name}[{i}]: analytic {grads[i]:.6e} "
                    f"vs numeric {numeric:.6e} (rel {rel:.2e})")
        assert time.perf_counter() - start < 60.0


def test_masking_statistics_over_many_positions():
    with gate("criterion 02 (masking statistics)"):
        start = time.perf_counter()
        vocab = Vocabulary(list(SPECIAL_TOKENS)
                           + [f"tok{i:04d}" for i in range(995)])
        cfg = PretrainConfig()
        rng = np.random.default_rng(123)
        n_seq, body = 400, 300

        selected = 0
        became_mask = 0
        stayed_put = 0
        went_random = 0
        special_hits = 0
        for _ in range(n_seq):
            ids = np.empty(body + 2, dtype=np.int64)
            ids[0] = 2
            ids[-1] = 3
            ids[1:-1] = rng.integers(5, len(vocab), size=body)
            out = mask_tokens(ids, vocab, cfg, rng)
            assert np.array_equal(out.target_ids, ids)
            picks = out.mask_indicator.astype(bool)
            special_hits += int(picks[0]) + int(picks[-1])
            inputs = out.input_ids[picks]
            originals = ids[picks]
            selected += int(picks.sum())
            became_mask += int((inputs == vocab.mask_id).sum())
            stayed_put += int((inputs == originals).sum())
            went_random += int(((inputs != vocab.mask_id)
                                & (inputs != originals)).sum())

        positions = n_seq * body
        assert positions >= 100_000
        assert special_hits == 0
        assert 0.14 <= selected / positions <= 0.16
        assert 0.78 <= became_mask / selected <= 0.82
        assert 0.08 <= stayed_put / selected <= 0.12
        assert 0.08 <= went_random / selected <= 0.12
        assert time.perf_counter() - start < 10.0


def test_cross_entropy_closed_form_and_additivity():
    with gate("criterion 03 (cross-entropy closed form)"):
        rng = np.random.default_rng(7)
        for count, vsize in ((7, 16), (3, 5), (12, 33)):
            n = count + 3
            logits = ag.Tensor(np.zeros((n, vsize), dtype=np.float64))
            targets = rng.integers(0, vsize, size=n)
            mask = np.zeros(n, dtype=np.int64)
            mask[:count] = 1
            total = float(ag.masked_cross_entropy(logits, targets, mask,
                                                  reduction="sum").data)
            assert abs(total - count * math.log(vsize)) <= 1e-5

        for _ in range(1000):
            data = rng.normal(size=(10, 8))
            targets = rng.integers(0, 8, size=10)
            owner = rng.integers(0, 3, size=10)
            first = (owner == 1).astype(np.int64)
            second = (owner == 2).astype(np.int64)

            def ce(mask):
                return float(ag.masked_cross_entropy(
                    ag.Tensor(data), targets, mask, reduction="sum").data)

            assert math.isclose(ce(first) + ce(second), ce(first | second),
                                rel_tol=0.0, abs_tol=1e-9)


def test_small_corpora_are_learnable(tmp_path):
    with gate("criterion 04 (small-corpus overfit)"):
        start = time.perf_counter()
        texts = _sentences_32()
        assert len(texts) == 32
        vocab = build_vocab(texts, 120)
        cfg = ModelConfig(vocab_size=len(vocab), num_layers=2, hidden_size=64,
                          num_heads=2, max_position=16, dropout_rate=0.0)
        model = init_params(cfg, seed=1)
        pcfg = PretrainConfig(epochs=500, batch_size=8, max_len=12,
                              lr=1e-3, seed=4, checkpoint_every=50)
        log = pretrain(texts, vocab, model, pcfg, checkpoint_dir=str(tmp_path))
        assert len(log.steps) == 2000
        # the mean over the last eight checkpoints, since one checkpoint's
        # value swings between 0.047 and 0.079 there: 0.049-0.057 over
        # pretrain seeds 4-11; 0.067-0.254 over steps 650-1000 of 250-epoch
        # runs at seeds 4-7
        tail = [pll_loss(load_checkpoint(tmp_path / f"step-{step}"), texts, vocab,
                         pcfg.max_len) for step in range(1650, 2001, 50)]
        assert sum(tail) / len(tail) < 0.063

        rows = _separable_20()
        cvocab = build_vocab([r.text for r in rows], 120)
        ccfg = ModelConfig(vocab_size=len(cvocab), num_layers=2,
                           hidden_size=64, num_heads=2, max_position=16,
                           dropout_rate=0.0)
        cmodel = init_params(ccfg, seed=2, num_classes=2)
        fcfg = FinetuneConfig(epochs=3, batch_size=1, lr=5e-3, max_len=12,
                              eval_fraction=0.2, evals_per_epoch=2,
                              eval_patience=30, seed=13)
        finetune(rows, cvocab, cmodel, fcfg, labels=("not", "off"))
        # mean cross-entropy on the 20 rows, which depends on the restored
        # weights alone: 0.0018-0.0140 over finetune seeds 13-18; 0.57-0.82
        # after 1 epoch, 0.693 at lr 1e-6 or with no optimizer step (seeds
        # 13-20). Seeds 19 and 20 do not learn at this lr (0.58 and 0.70).
        examples = tokenize_labeled(rows, cvocab, {"not": 0, "off": 1}, fcfg.max_len)
        assert evaluation_loss(cmodel, examples, len(examples)) < 0.1
        assert time.perf_counter() - start < 300.0


def test_threshold_selection_matches_oracle():
    with gate("criterion 05 (threshold selection)"):
        rng = np.random.default_rng(19)
        rows = [ScoredInstance(id=f"r{i}", text=f"text {i}", score=float(s))
                for i, s in enumerate(rng.uniform(0.0, 1.0, size=10_000))]
        for lo, hi in ((0.0, 1.0), (0.25, 0.75), (0.5, 0.5001), (0.9, 1.0)):
            expected = [r for r in rows if lo <= r.score <= hi]
            assert select_by_threshold(rows, lo, hi) == expected
        counts = [len(select_by_threshold(rows, lo, 1.0))
                  for lo in (0.5, 0.6, 0.7, 0.8, 0.9)]
        assert all(a >= b for a, b in zip(counts, counts[1:]))


def _plain_macro_f1(preds, gold, classes):
    total = 0.0
    for cls in classes:
        tp = sum(1 for p, g in zip(preds, gold) if p == cls and g == cls)
        fp = sum(1 for p, g in zip(preds, gold) if p == cls and g != cls)
        fn = sum(1 for p, g in zip(preds, gold) if p != cls and g == cls)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall:
            total += 2 * precision * recall / (precision + recall)
    return total / len(classes)


def test_macro_f1_against_plain_python():
    with gate("criterion 06 (macro-F1 cross-check)"):
        rng = np.random.default_rng(23)
        classes = ("a", "b", "c", "d")
        # "d" never predicted, so one class exercises the 0/0 convention
        preds = [classes[i] for i in rng.integers(0, 3, size=1000)]
        gold = [classes[i] for i in rng.integers(0, 4, size=1000)]
        ours = macro_f1(confusion(preds, gold, classes))
        assert abs(ours - _plain_macro_f1(preds, gold, classes)) <= 1e-12

        for seed in range(20):
            r = np.random.default_rng(seed)
            k = int(r.integers(2, 7))
            cs = tuple(f"c{i}" for i in range(k))
            p = [cs[i] for i in r.integers(0, k, size=50)]
            g = [cs[i] for i in r.integers(0, k, size=50)]
            assert abs(macro_f1(confusion(p, g, cs))
                       - _plain_macro_f1(p, g, cs)) <= 1e-12

        perfect = list(classes) * 50
        assert macro_f1(confusion(perfect, perfect, classes)) == 1.0


def test_lr_schedule_matches_exact_rationals():
    with gate("criterion 07 (learning-rate schedule)"):
        total, peak = 1000, 5e-5
        warm = 100
        assert lr_at(0, total, peak) == 0.0
        assert lr_at(warm, total, peak) == peak
        assert lr_at(total, total, peak) == 0.0
        rng = np.random.default_rng(31)
        for step in rng.choice(total + 1, size=100, replace=False):
            step = int(step)
            if step <= warm:
                exact = Fraction(peak) * Fraction(step, warm)
            else:
                exact = Fraction(peak) * Fraction(total - step, total - warm)
            got = lr_at(step, total, peak)
            assert math.isclose(got, float(exact),
                                rel_tol=1e-12, abs_tol=1e-18), step


def test_early_stopping_and_best_restore(tmp_path):
    with gate("criterion 08 (early stopping, best restore)"):
        stopper = EarlyStopper(patience=10)
        assert not stopper.update(1.0)
        assert not stopper.update(0.9)
        for _ in range(9):
            assert not stopper.update(0.95)
        assert stopper.update(0.95)
        assert stopper.best_index == 2

        # random labels cannot generalize, so the held-out loss turns and
        # the patience window closes mid-run
        words = ("alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
                 "golf", "hotel", "india", "juliet", "kilo", "lima", "mike",
                 "november", "oscar", "papa", "quebec", "romeo", "sierra",
                 "tango")
        rng = np.random.default_rng(11)
        rows = []
        for i in range(20):
            text = " ".join(rng.choice(words, size=5))
            label = "off" if rng.random() < 0.5 else "not"
            rows.append(LabeledInstance(id=f"n{i}", text=text, label=label))
        vocab = build_vocab([r.text for r in rows], 120)
        cfg = ModelConfig(vocab_size=len(vocab), num_layers=1, hidden_size=32,
                          num_heads=2, max_position=16, dropout_rate=0.0)
        model = init_params(cfg, seed=2, num_classes=2)
        fcfg = FinetuneConfig(epochs=60, batch_size=1, lr=5e-3, max_len=12,
                              eval_fraction=0.2, evals_per_epoch=2,
                              eval_patience=10, seed=13)
        log = finetune(rows, vocab, model, fcfg, labels=("not", "off"),
                       checkpoint_dir=str(tmp_path))

        assert log.stop_reason == "early_stopping"
        improved = [e.index for e in log.evals if e.improved]
        assert len(log.evals) == improved[-1] + 10
        assert len(log.steps) < 60 * 16

        best = load_checkpoint(str(tmp_path / "best"))
        stored = dict(best.named_params())
        for name, tensor in model.named_params():
            assert tensor.data.tobytes() == stored[name].data.tobytes(), name


def test_seeded_runs_are_bitwise_identical(tmp_path):
    with gate("criterion 09 (determinism, checkpoint round trip)"):
        texts = _sentences_32()[:8]
        vocab = build_vocab(texts, 120)
        cfg = ModelConfig(vocab_size=len(vocab), num_layers=1, hidden_size=16,
                          num_heads=2, max_position=16, dropout_rate=0.1)
        pcfg = PretrainConfig(epochs=4, batch_size=4, max_len=12,
                              lr=1e-3, seed=9)
        logs, outs, models = [], [], []
        for run in ("one", "two"):
            model = init_params(cfg, seed=1, num_classes=2)
            out = tmp_path / run
            log = pretrain(texts, vocab, model, pcfg,
                           checkpoint_dir=str(out))
            logs.append(log)
            outs.append(out / "final")
            models.append(model)

        assert logs[0].steps == logs[1].steps
        assert logs[0].evals == logs[1].evals
        assert logs[0].stop_reason == logs[1].stop_reason
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        for name in names:
            assert ((outs[0] / name).read_bytes()
                    == (outs[1] / name).read_bytes()), name

        loaded = load_checkpoint(str(outs[0]))
        ids, attn = _stack_batch([tokenize(t, vocab, 12) for t in texts[:3]])
        from_training = full_encode(ids, attn, models[0], train_mode=False).data
        from_disk = full_encode(ids, attn, loaded, train_mode=False).data
        assert from_training.tobytes() == from_disk.tobytes()


def test_cli_pipeline_end_to_end(tmp_path):
    with gate("criterion 10 (command-line pipeline)"):
        start = time.perf_counter()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(PKG_ROOT, "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, os.path.join(PKG_ROOT, "scripts", "run_toy_pipeline.py"),
             "--workdir", str(tmp_path)],
            capture_output=True, text=True, env=env, cwd=PKG_ROOT)
        assert proc.returncode == 0, (proc.stdout, proc.stderr)

        # the quick start scores rows that fine-tuning never saw
        fixtures = os.path.join(PKG_ROOT, "tests", "fixtures")
        heldout, labeled = (load_labeled(os.path.join(fixtures, name),
                                         ["not", "off"])
                            for name in ("heldout.tsv", "labeled.tsv"))
        assert not {r.id for r in heldout} & {r.id for r in labeled}
        assert not {r.text for r in heldout} & {r.text for r in labeled}
        report = (tmp_path / "eval" / "report.md").read_text()
        assert "| Dataset | Model | Macro F1 |" in report
        assert "| heldout | finetune | 1.0000 |" in report

        sweep = (tmp_path / "sweep" / "sweep.md").read_text()
        assert "| Threshold | Selected | Macro F1 |" in sweep
        assert "| 0.5 - 1.0 | 21 | 0.3333 |" in sweep
        assert "| 0.7 - 1.0 | 10 | 0.7333 |" in sweep
        assert time.perf_counter() - start < 300.0
