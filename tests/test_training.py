import ctypes
import glob
import hashlib
import json
import math
import os
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mlm_stats import pll_loss

from offlm import autograd as ag
from offlm import training
from offlm.corpus import LabeledInstance
from offlm.errors import ConfigError, DataError
from offlm.model import ModelConfig, classify, init_params, load_checkpoint, mlm_logits
from offlm.tokenizer import build_vocab, tokenize
from offlm.training import (
    EarlyStopper,
    FinetuneConfig,
    PretrainConfig,
    TrainLog,
    _stack_batch,
    evaluation_loss,
    finetune,
    lr_at,
    mask_tokens,
    mlm_batch_loss,
    predict_class_ids,
    pretrain,
    tokenize_labeled,
)
from tensor_ops import full_encode, reshape

TEXTS = [
    "the cat sat on the mat",
    "a dog ran over the hill",
    "the bird flew over the cat",
    "a fish swam under the log",
    "the cat chased the red dog",
    "a bird sang near the mat",
    "the dog dug under the log",
    "a cat slept on the hill",
]

VOCAB = build_vocab(TEXTS, target_size=120)

# real lengths 4, 8, 5 and 6 at max_len 12, so a batch of them is cut to n = 8
MIXED = ["a cat", "the cat chased the red dog", "the dog dug", "a bird sang near"]


def small_model(seed=0, dtype=np.float32, **overrides):
    base = dict(vocab_size=len(VOCAB), num_layers=1, hidden_size=16,
                num_heads=2, max_position=12, dropout_rate=0.0)
    base.update(overrides)
    return init_params(ModelConfig(**base), seed=seed, dtype=dtype)


def labeled_pair_data():
    rows = []
    for i in range(6):
        rows.append(LabeledInstance(f"c{i}", "the cat sat on the mat", "feline"))
        rows.append(LabeledInstance(f"d{i}", "a dog ran over the hill", "canine"))
    return rows


# --- masking ---------------------------------------------------------------


def test_mask_targets_are_always_originals():
    seq = tokenize(TEXTS[0], VOCAB, max_len=10)
    out = mask_tokens(seq, VOCAB, PretrainConfig(max_len=10), np.random.default_rng(0))
    np.testing.assert_array_equal(out.target_ids, np.asarray(seq))


def test_mask_never_touches_special_positions():
    cfg = PretrainConfig(max_len=12, mask_prob=1.0)
    seq = tokenize(TEXTS[1], VOCAB, max_len=12)
    out = mask_tokens(seq, VOCAB, cfg, np.random.default_rng(1))
    ids = np.asarray(seq)
    special = np.isin(ids, sorted(VOCAB.special_ids))
    assert out.mask_indicator[special].sum() == 0
    assert out.mask_indicator[~special].all()
    np.testing.assert_array_equal(out.input_ids[special], ids[special])


def test_mask_prob_zero_changes_nothing():
    cfg = PretrainConfig(max_len=12, mask_prob=0.0)
    seq = tokenize(TEXTS[2], VOCAB, max_len=12)
    out = mask_tokens(seq, VOCAB, cfg, np.random.default_rng(2))
    assert out.mask_indicator.sum() == 0
    np.testing.assert_array_equal(out.input_ids, out.target_ids)


def test_mask_branch_replacements_are_well_formed():
    cfg = PretrainConfig(max_len=12)
    rng = np.random.default_rng(3)
    for text in TEXTS:
        seq = tokenize(text, VOCAB, max_len=12)
        out = mask_tokens(seq, VOCAB, cfg, rng)
        for pos in np.flatnonzero(out.mask_indicator):
            new = out.input_ids[pos]
            assert new == VOCAB.mask_id or new not in VOCAB.special_ids
        unselected = out.mask_indicator == 0
        np.testing.assert_array_equal(out.input_ids[unselected],
                                      out.target_ids[unselected])


def test_mask_deterministic_under_seed():
    seq = tokenize(TEXTS[3], VOCAB, max_len=12)
    cfg = PretrainConfig(max_len=12)
    a = mask_tokens(seq, VOCAB, cfg, np.random.default_rng(7))
    b = mask_tokens(seq, VOCAB, cfg, np.random.default_rng(7))
    np.testing.assert_array_equal(a.input_ids, b.input_ids)
    np.testing.assert_array_equal(a.mask_indicator, b.mask_indicator)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       text=st.sampled_from(TEXTS))
def test_mask_invariants_hold_for_any_seed(seed, text):
    seq = tokenize(text, VOCAB, max_len=12)
    out = mask_tokens(seq, VOCAB, PretrainConfig(max_len=12), np.random.default_rng(seed))
    ids = np.asarray(seq)
    assert out.mask_indicator.shape == ids.shape  # nothing past the real tokens
    assert out.mask_indicator[np.isin(ids, sorted(VOCAB.special_ids))].sum() == 0
    np.testing.assert_array_equal(out.target_ids, ids)


def test_mask_tokens_selects_every_real_slot_of_a_padded_batch():
    cfg = PretrainConfig(max_len=12, mask_prob=1.0)
    ids, attn = _stack_batch([tokenize(t, VOCAB, max_len=12) for t in MIXED])
    assert ids.shape == (len(MIXED), 8) and not attn.all()
    out = mask_tokens(ids, VOCAB, cfg, np.random.default_rng(0))
    real = (attn == 1) & ~VOCAB.is_special[ids]
    np.testing.assert_array_equal(out.mask_indicator, real.astype(np.int64))
    assert not out.mask_indicator[attn == 0].any()
    replaced = out.input_ids[real]
    assert ((replaced == VOCAB.mask_id) | ~VOCAB.is_special[replaced]
            | (replaced == ids[real])).all()
    np.testing.assert_array_equal(out.input_ids[~real], ids[~real])
    np.testing.assert_array_equal(out.target_ids, ids)


# --- schedule ---------------------------------------------------------------


def test_lr_endpoints_and_peak():
    assert lr_at(0, 100, 1e-3) == 0.0
    assert lr_at(10, 100, 1e-3) == 1e-3
    assert lr_at(100, 100, 1e-3) == 0.0


def test_lr_linear_in_both_phases():
    peak, total = 2e-4, 200
    w = 20
    for step in range(0, w + 1):
        assert lr_at(step, total, peak) == pytest.approx(peak * step / w)
    for step in range(w, total + 1):
        assert lr_at(step, total, peak) == pytest.approx(
            peak * (total - step) / (total - w))


def test_lr_warmup_boundary_is_decimal_exact():
    # 30 steps warm up over ceil(30 / 10) = 3, counted in integers
    assert lr_at(3, 30, 1.0) == 1.0


def test_lr_validates_inputs():
    with pytest.raises(ConfigError):
        lr_at(0, 0, 1e-3)
    with pytest.raises(ConfigError):
        lr_at(11, 10, 1e-3)


# --- early stopping ---------------------------------------------------------


def test_early_stopper_stops_after_patience_flat_evals():
    stopper = EarlyStopper(patience=10)
    losses = [1.0, 0.9] + [0.9] * 10
    stops = [stopper.update(x) for x in losses]
    assert stops == [False] * 11 + [True]
    assert stopper.best_index == 2
    assert stopper.best_loss == 0.9


def test_early_stopper_requires_strict_improvement():
    stopper = EarlyStopper(patience=2)
    assert not stopper.update(0.5)
    assert not stopper.update(0.5)   # equal is not better
    assert stopper.update(0.5)


def test_early_stopper_resets_streak_on_improvement():
    stopper = EarlyStopper(patience=2)
    assert not stopper.update(1.0)
    assert not stopper.update(1.1)
    assert not stopper.update(0.9)   # improvement wipes the streak
    assert not stopper.update(1.0)
    assert stopper.update(1.0)
    assert stopper.num_evals == 5


def test_early_stopper_patience_validation():
    with pytest.raises(ConfigError):
        EarlyStopper(patience=0)


# --- pretraining ------------------------------------------------------------


def test_pretrain_reduces_loss_and_logs_steps():
    model = small_model(seed=1)
    cfg = PretrainConfig(epochs=40, batch_size=4, max_len=12, lr=1e-3, seed=0)
    before = pll_loss(model, TEXTS, VOCAB, cfg.max_len)
    log = pretrain(TEXTS, VOCAB, model, cfg)
    assert log.stop_reason == "epochs_exhausted"
    assert len(log.steps) == 40 * 2
    assert pll_loss(model, TEXTS, VOCAB, cfg.max_len) < before * 0.8
    assert all(r.lr == cfg.lr for r in log.steps)


def test_pretrain_masks_each_collated_batch_once(monkeypatch):
    shapes = []

    def counting(ids, *args):
        shapes.append(np.shape(ids))
        return mask_tokens(ids, *args)

    monkeypatch.setattr(training, "mask_tokens", counting)
    cfg = PretrainConfig(epochs=2, batch_size=3, max_len=12, lr=1e-3, seed=0)
    log = pretrain(MIXED + TEXTS[:2], VOCAB, small_model(), cfg)
    assert len(shapes) == len(log.steps) == 4
    assert [math.prod(s) for s in shapes] == [r.positions for r in log.steps]


def test_pretrain_identical_seeds_identical_runs():
    cfg = PretrainConfig(epochs=3, batch_size=4, max_len=12, lr=1e-3, seed=9)
    m1, m2 = small_model(seed=2), small_model(seed=2)
    log1 = pretrain(TEXTS, VOCAB, m1, cfg)
    log2 = pretrain(TEXTS, VOCAB, m2, cfg)
    assert [r.loss for r in log1.steps] == [r.loss for r in log2.steps]
    for name, t in m1.params.items():
        np.testing.assert_array_equal(t.data, m2.params[name].data)


def test_pretrain_writes_checkpoints(tmp_path):
    model = small_model(seed=3)
    cfg = PretrainConfig(epochs=2, batch_size=4, max_len=12, lr=1e-3,
                         checkpoint_every=3, seed=0)
    pretrain(TEXTS, VOCAB, model, cfg, checkpoint_dir=str(tmp_path))
    assert (tmp_path / "final" / "manifest.json").exists()
    assert (tmp_path / "step-3" / "manifest.json").exists()
    final = load_checkpoint(tmp_path / "final")
    for name, t in model.params.items():
        np.testing.assert_array_equal(t.data, final.params[name].data)


def test_skipped_pretraining_steps_log_their_positions():
    """A batch with no masked token skips the update but still logs B x n
    positions of its collated batch, as every other step does."""
    texts = MIXED[:3]  # 4, 8 and 5 ids at max_len 12
    cfg = PretrainConfig(epochs=2, batch_size=len(texts), max_len=12,
                         mask_prob=0.0, seed=0)
    log = pretrain(texts, VOCAB, small_model(), cfg)
    lengths = [len(tokenize(t, VOCAB, cfg.max_len)) for t in texts]
    assert len(log.steps) == 2
    for rec in log.steps:
        assert rec.loss == 0.0
        assert rec.tokens == sum(lengths) == 17
        assert rec.positions == len(texts) * max(lengths) == 24


def test_skipped_pretraining_steps_still_write_checkpoints(tmp_path):
    cfg = PretrainConfig(epochs=2, batch_size=4, max_len=12, mask_prob=0.0,
                         checkpoint_every=1, seed=0)
    log = pretrain(TEXTS, VOCAB, small_model(), cfg, checkpoint_dir=str(tmp_path))
    assert [r.loss for r in log.steps] == [0.0] * 4
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "final", "step-1", "step-2", "step-3", "step-4"]


def test_pretrain_rejects_empty_corpus():
    with pytest.raises(DataError):
        pretrain([], VOCAB, small_model(), PretrainConfig())


# --- fine-tuning ------------------------------------------------------------


def test_finetune_learns_separable_pair():
    model = small_model(seed=5)
    cfg = FinetuneConfig(epochs=6, batch_size=1, lr=5e-3, max_len=12,
                         eval_fraction=0.2, evals_per_epoch=2, seed=0)
    data = labeled_pair_data()
    log = finetune(data, VOCAB, model, cfg, labels=("feline", "canine"))
    assert log.stop_reason in ("early_stopping", "epochs_exhausted")
    assert log.evals
    preds = predict_class_ids([r.text for r in data], VOCAB, model, max_len=12)
    gold = [0 if r.label == "feline" else 1 for r in data]
    assert preds == gold


def test_finetune_restores_best_snapshot(tmp_path):
    model = small_model(seed=6)
    cfg = FinetuneConfig(epochs=2, batch_size=2, lr=5e-3, max_len=12,
                         eval_fraction=0.25, evals_per_epoch=3, seed=1)
    finetune(labeled_pair_data(), VOCAB, model, cfg,
             labels=("feline", "canine"), checkpoint_dir=str(tmp_path))
    best = load_checkpoint(tmp_path / "best")
    for name, t in model.params.items():
        np.testing.assert_array_equal(t.data, best.params[name].data)


def test_finetune_deterministic():
    cfg = FinetuneConfig(epochs=1, batch_size=2, lr=1e-3, max_len=12,
                         eval_fraction=0.25, evals_per_epoch=2, seed=4)
    m1, m2 = small_model(seed=7), small_model(seed=7)
    log1 = finetune(labeled_pair_data(), VOCAB, m1, cfg, ("feline", "canine"))
    log2 = finetune(labeled_pair_data(), VOCAB, m2, cfg, ("feline", "canine"))
    assert [r.loss for r in log1.steps] == [r.loss for r in log2.steps]
    assert [e.loss for e in log1.evals] == [e.loss for e in log2.evals]
    for name, t in m1.params.items():
        np.testing.assert_array_equal(t.data, m2.params[name].data)


def test_finetune_validates_labels():
    model = small_model()
    cfg = FinetuneConfig(epochs=1, batch_size=2, max_len=12)
    with pytest.raises(ConfigError):
        finetune(labeled_pair_data(), VOCAB, model, cfg, labels=("feline",))
    with pytest.raises(ConfigError, match=r"duplicate label names \['feline'\]"):
        finetune(labeled_pair_data(), VOCAB, model, cfg, labels=("feline", "feline"))
    with pytest.raises(DataError):
        finetune(labeled_pair_data(), VOCAB, model, cfg,
                 labels=("bird", "fish"))
    single = [LabeledInstance(str(i), TEXTS[0], "feline") for i in range(8)]
    with pytest.raises(DataError):
        finetune(single, VOCAB, model, cfg, labels=("feline", "canine"))


def test_finetune_evaluates_every_k_steps_and_after_the_last():
    cfg = FinetuneConfig(epochs=3, batch_size=2, lr=1e-3, max_len=12,
                         eval_fraction=0.25, evals_per_epoch=2, eval_patience=10,
                         seed=3)
    log = finetune(labeled_pair_data(), VOCAB, small_model(seed=15), cfg,
                   labels=("feline", "canine"))
    # 9 train rows -> 5 steps per epoch -> an eval every 5 // 2 = 2 steps;
    # 15 steps is not a multiple of 2, so the last step adds one more
    assert len(log.steps) == 15
    assert [e.step for e in log.evals] == [2, 4, 6, 8, 10, 12, 14, 15]
    assert log.stop_reason == "epochs_exhausted"


def test_evaluation_loss_matches_mean_cross_entropy_scale():
    model = small_model(seed=9)
    data = labeled_pair_data()[:4]
    examples = tokenize_labeled(data, VOCAB, {"feline": 0, "canine": 1}, max_len=12)
    loss = evaluation_loss(model, examples, batch_size=2)
    assert 0.0 < loss < 5.0
    again = evaluation_loss(model, examples, batch_size=4)
    assert loss == pytest.approx(again, rel=1e-6)


def test_predict_class_ids_batch_size_invariant():
    model = small_model(seed=10)
    texts = [r.text for r in labeled_pair_data()]
    a = predict_class_ids(texts, VOCAB, model, max_len=12, batch_size=3)
    b = predict_class_ids(texts, VOCAB, model, max_len=12, batch_size=12)
    assert a == b
    assert set(a) <= {0, 1}


@pytest.mark.parametrize("texts", [TEXTS, MIXED], ids=["unpadded", "padded"])
def test_evaluation_and_prediction_equal_the_recorded_forward(texts):
    """Run inside no_grad, prediction and the evaluation loss are bitwise
    what the same forward gives while it records its graph."""
    model = small_model(seed=3)
    seqs = [tokenize(t, VOCAB, 12) for t in texts]
    logits = training._class_logits(model, seqs)
    _, attn = _stack_batch(seqs)
    assert logits.ctx is not None and (attn == 0).any() == (texts is MIXED)
    with ag.no_grad():
        quiet = training._class_logits(model, seqs)
    assert quiet.ctx is None and quiet.data.tobytes() == logits.data.tobytes()
    assert predict_class_ids(texts, VOCAB, model, max_len=12, batch_size=len(texts)) == [
        int(i) for i in np.argmax(logits.data, axis=-1)]
    examples = [(s, i % 2) for i, s in enumerate(seqs)]
    loss = training._class_loss(model, examples, "sum")
    assert loss.ctx is not None
    assert evaluation_loss(model, examples, len(examples)) == float(loss.item()) / len(examples)


def test_predict_class_ids_peak_memory_does_not_grow_with_batches():
    """No batch's graph outlives it: the traced peak over 4 batches stays
    within 1.1x of one batch's (1.03x; 1.81x while each batch kept its
    graph alive until the next one replaced it)."""
    model = small_model(seed=4, hidden_size=32)
    texts = TEXTS * 4

    def peak(chunk) -> int:
        tracemalloc.start()
        try:
            predict_class_ids(chunk, VOCAB, model, max_len=12, batch_size=8)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    predict_class_ids(texts, VOCAB, model, max_len=12, batch_size=8)  # warm caches
    one, four = peak(texts[:8]), peak(texts)
    assert four <= 1.1 * one, (one, four)


def test_training_loops_refuse_to_run_inside_no_grad():
    """A step whose loss has no graph would update nothing and still log a
    loss; both loops stop at their first step instead."""
    model = small_model(seed=5)
    before = {name: t.data.copy() for name, t in model.params.items()}
    with ag.no_grad():
        with pytest.raises(ConfigError, match="no_grad"):
            pretrain(TEXTS, VOCAB, model, PretrainConfig(epochs=1, batch_size=4, max_len=12))
        with pytest.raises(ConfigError, match="no_grad"):
            finetune(labeled_pair_data(), VOCAB, model, FinetuneConfig(max_len=12),
                     labels=("feline", "canine"))
    for name, t in model.params.items():
        assert t.data.tobytes() == before[name].tobytes(), name


def test_training_steps_hold_one_graph_at_a_time(monkeypatch):
    """When a step builds its loss, and while fine-tuning evaluates, every
    earlier training loss is dead: no step's graph outlives the step."""
    graphs = []  # weak references, one per training loss built so far
    no_graph_calls = []

    def tracked(build):
        def wrapper(*args, **kwargs):
            loss = build(*args, **kwargs)
            alive = [i for i, ref in enumerate(graphs) if ref() is not None]
            assert alive == [], f"graphs of earlier losses {alive} still alive"
            if loss.ctx is None:  # evaluation_loss's, built inside no_grad
                no_graph_calls.append(1)
            else:
                # Tensor takes no weak reference; the closure of the loss's
                # GradContext lives exactly as long as its graph's root
                graphs.append(weakref.ref(loss.ctx.backward_fn))
            return loss
        return wrapper

    monkeypatch.setattr(training, "mlm_batch_loss", tracked(training.mlm_batch_loss))
    monkeypatch.setattr(training, "_class_loss", tracked(training._class_loss))
    log = pretrain(TEXTS, VOCAB, small_model(), PretrainConfig(
        epochs=2, batch_size=4, max_len=12, mask_prob=0.5, seed=0))
    assert len(graphs) == len(log.steps) == 4

    graphs.clear()
    cfg = FinetuneConfig(epochs=1, batch_size=2, lr=1e-3, max_len=12,
                         eval_fraction=0.25, evals_per_epoch=2, seed=3)
    log = finetune(labeled_pair_data(), VOCAB, small_model(), cfg,
                   labels=("feline", "canine"))
    # 5 steps with an evaluation after steps 2, 4 and 5
    assert len(graphs) == len(log.steps) == 5
    assert [e.step for e in log.evals] == [2, 4, 5] and no_graph_calls


# --- logs -------------------------------------------------------------------


def test_trainlog_jsonl_round_trip(tmp_path):
    model = small_model(seed=11)
    cfg = PretrainConfig(epochs=2, batch_size=len(MIXED), max_len=12, lr=1e-3,
                         mask_prob=0.5, seed=0)
    log = pretrain(MIXED, VOCAB, model, cfg)
    path = tmp_path / "log.jsonl"
    log.save_jsonl(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    kinds = [rec["kind"] for rec in lines]
    assert kinds.count("step") == len(log.steps)
    assert kinds[-1] == "stop"
    assert lines[-1]["reason"] == "epochs_exhausted"
    assert all("loss" in rec for rec in lines if rec["kind"] == "step")
    lengths = [len(tokenize(t, VOCAB, 12)) for t in MIXED]
    for rec in (r for r in lines if r["kind"] == "step"):
        assert rec["tokens"] == sum(lengths)
        assert rec["positions"] == len(MIXED) * max(lengths) < len(MIXED) * 12


# --- collation and the masked-row MLM head (float64 oracles) ---------------


def _max_len_collate(seqs, max_len=12):
    """The collation that padded every batch to max_len."""
    ids = np.zeros((len(seqs), max_len), dtype=np.int64)
    attn = np.zeros_like(ids)
    for row, seq in enumerate(seqs):
        ids[row, :len(seq)] = seq
        attn[row, :len(seq)] = 1
    return ids, attn


def _pad_then_cut(seqs, max_len):
    """The collation before sequences stayed unpadded: every row padded to
    max_len, then the batch cut to its longest real length."""
    ids, attn = _max_len_collate(seqs, max_len)
    n = int(attn.sum(axis=1).max())
    return ids[:, :n], attn[:, :n]


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_stack_batch_matches_pad_then_cut_oracle(data):
    max_len = data.draw(st.integers(min_value=3, max_value=16))
    lengths = data.draw(st.lists(st.integers(min_value=1, max_value=max_len),
                                 min_size=1, max_size=6))
    seqs = [data.draw(st.lists(st.integers(min_value=0, max_value=10**6),
                               min_size=n, max_size=n)) for n in lengths]
    got = _stack_batch(seqs)
    want = _pad_then_cut(seqs, max_len=max_len)
    assert len(got) == 2
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        np.testing.assert_array_equal(g, w)
    ids, attn = got
    assert attn.shape == (len(seqs), max(lengths))
    assert not ids[attn == 0].any()
    assert attn.sum() == sum(lengths)


def _full_projection_loss(model, input_ids, attn, targets, mask):
    """The MLM loss that projected every position onto the vocabulary."""
    logits = mlm_logits(full_encode(input_ids, attn, model, train_mode=False), model)
    batch, seq_len, vocab_size = logits.shape
    flat = reshape(logits, (batch * seq_len, vocab_size))
    return ag.masked_cross_entropy(flat, targets.reshape(-1), mask.reshape(-1),
                                   reduction="mean")


def _loss_and_grads(model, build):
    ag.zero_grads(t for _, t in model.named_params())
    loss = build()
    ag.backward(loss)
    return loss.item(), {name: t.grad for name, t in model.named_params()}


def test_masked_row_loss_and_grads_match_full_projection():
    model = small_model(seed=12, dtype=np.float64)
    cfg = PretrainConfig(max_len=12, mask_prob=0.5)
    rng = np.random.default_rng(0)
    seqs = [tokenize(t, VOCAB, max_len=12) for t in MIXED]
    ids, attn = _stack_batch(seqs)
    masked = mask_tokens(ids, VOCAB, cfg, rng)
    input_ids, mask = masked.input_ids, masked.mask_indicator
    assert ids.shape == (len(MIXED), 8) and 0 < mask.sum() < attn.sum()

    got, got_grads = _loss_and_grads(model, lambda: mlm_batch_loss(
        model, input_ids, attn, ids, mask, train_mode=False, rng=None))
    want, want_grads = _loss_and_grads(model, lambda: _full_projection_loss(
        model, input_ids, attn, ids, mask))
    np.testing.assert_allclose(got, want, rtol=1e-10)
    for name, grad in want_grads.items():
        if grad is None:  # classifier head: not on the MLM path
            assert got_grads[name] is None, name
        else:
            np.testing.assert_allclose(got_grads[name], grad, rtol=1e-10,
                                       atol=1e-16, err_msg=name)


def test_batch_max_padding_matches_max_len_classification_oracle():
    model = small_model(seed=13, dtype=np.float64)
    seqs = [tokenize(t, VOCAB, max_len=12) for t in MIXED]
    ids, attn = _stack_batch(seqs)
    full_ids, full_attn = _max_len_collate(seqs)
    assert ids.shape == (len(MIXED), 8) and full_ids.shape == (len(MIXED), 12)
    np.testing.assert_allclose(classify(full_encode(ids, attn, model)[:, 0], model).data,
                               classify(full_encode(full_ids, full_attn, model)[:, 0], model).data,
                               rtol=1e-10)

    label_to_id = {"feline": 0, "canine": 1}
    data = [LabeledInstance(str(i), t, ("feline", "canine")[i % 2])
            for i, t in enumerate(MIXED)]
    targets = np.array([label_to_id[x.label] for x in data])
    total = 0.0
    for start in (0, 2):
        full_ids, full_attn = _max_len_collate(seqs[start:start + 2])
        logits = classify(full_encode(full_ids, full_attn, model)[:, 0], model)
        total += ag.masked_cross_entropy(logits, targets[start:start + 2],
                                         np.ones(2, dtype=np.int64)).item()
    got = evaluation_loss(model, tokenize_labeled(data, VOCAB, label_to_id, 12),
                          batch_size=2)
    np.testing.assert_allclose(got, total / len(data), rtol=1e-10)


def test_pretrain_with_dropout_is_bitwise_repeatable_on_cut_batches():
    cfg = PretrainConfig(epochs=2, batch_size=3, max_len=12, lr=1e-3,
                         mask_prob=0.5, seed=3)
    runs = []
    for _ in range(2):
        model = small_model(seed=14, dropout_rate=0.1)
        runs.append((model, pretrain(MIXED + TEXTS[:2], VOCAB, model, cfg)))
    (m1, log1), (m2, log2) = runs
    assert log1.steps == log2.steps
    assert any(r.positions < 3 * 12 for r in log1.steps)
    for name, t in m1.params.items():
        np.testing.assert_array_equal(t.data, m2.params[name].data)


def _float_fingerprint() -> str:
    """numpy's version and the OpenBLAS core it runs its GEMMs on: seeded
    weights are bitwise reproducible only where both agree. The core is
    read from the bundled OpenBLAS at run time; where that library or its
    symbol is missing, the build-time configuration stands in."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    config = blas.get("openblas configuration", blas.get("name", "unknown"))
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    try:
        get_config = ctypes.CDLL(libs[0]).scipy_openblas_get_config64_
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        config = get_config().decode()
    except (IndexError, OSError, AttributeError):
        pass
    return f"numpy {np.__version__}; {' '.join(config.split())}"


def _digest(model, log) -> tuple[str, str]:
    """sha256 over every parameter's name and bytes, and over each step's
    loss and gradient norm, exactly."""
    params = hashlib.sha256()
    for name, t in model.params.items():
        params.update(name.encode() + t.data.tobytes())
    steps = hashlib.sha256(" ".join(
        f"{r.loss.hex()},{r.grad_norm.hex()}" for r in log.steps).encode())
    return params.hexdigest(), steps.hexdigest()


# digests of the run below: (pretrain params, pretrain steps, finetune params,
# finetune steps), per float fingerprint
SEEDED_DROPOUT_DIGESTS = {
    "numpy 2.4.6; OpenBLAS 0.3.31.188.0 USE64BITINT DYNAMIC_ARCH NO_AFFINITY "
    "SkylakeX MAX_THREADS=64": (
        "8f23ac84e4b255f5da46237566407fcd62d258a1fa601e851b9c0f20fd273a77",
        "c12611a19ad4222631790f11df47983f3aed5c213c835c3653340d259a9cb97a",
        "ae463fddf28abda6852d9dc5a33a8ac437110d5f77d9297295b797340c8accde",
        "89ceedb344f1dda6b0647f72d8a44c4943139fe7caabfa413e21ba10c8e217f6"),
}


def test_seeded_dropout_training_pins_every_float():
    """Three float32 pretraining steps and three fine-tuning steps with
    dropout 0.1, on padded and unpadded batches, give the recorded
    digests of every parameter and of every step's loss and gradient
    norm. A change to any op's floats, the dropout masks or the generator
    state they leave shows here; the golden manifests cannot, since they
    do not compare trained weights."""
    fingerprint = _float_fingerprint()
    if fingerprint not in SEEDED_DROPOUT_DIGESTS:
        pytest.skip(f"digests recorded for other numpy/BLAS builds, not {fingerprint!r}")
    model = small_model(seed=14, num_layers=2, dropout_rate=0.1)
    pre_log = pretrain(MIXED + TEXTS, VOCAB, model,
                       PretrainConfig(epochs=1, batch_size=4, max_len=12, lr=1e-3,
                                      mask_prob=0.5, seed=3))
    got = _digest(model, pre_log)
    data = [LabeledInstance(f"r{i}", text, ("feline", "canine")[i % 2])
            for i, text in enumerate(MIXED + TEXTS)]
    fine_log = finetune(data, VOCAB, model,
                        FinetuneConfig(epochs=1, batch_size=3, lr=1e-3, max_len=12,
                                       eval_fraction=0.25, evals_per_epoch=1, seed=4),
                        ("feline", "canine"))
    got += _digest(model, fine_log)
    assert len(pre_log.steps) == len(fine_log.steps) == 3
    assert got == SEEDED_DROPOUT_DIGESTS[fingerprint]
