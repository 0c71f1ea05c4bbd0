import json
import math
import os

import numpy as np
import pytest

from offlm import autograd as ag
from offlm.autograd import Tensor
from offlm.errors import ConfigError, DataError, ShapeError
from offlm.model import (
    LAYER_NORM_EPSILON,
    Model,
    ModelConfig,
    classify,
    encode,
    init_params,
    load_checkpoint,
    mlm_logits,
    param_shapes,
    parameter_count,
    resolve_checkpoint,
    save_checkpoint,
)
from tensor_ops import full_encode, layer_norm, matmul, reshape, softmax

TINY = ModelConfig(vocab_size=16, num_layers=1, hidden_size=8, num_heads=2,
                   max_position=8, dropout_rate=0.0)


def tiny_model(seed=0, **overrides):
    cfg = ModelConfig(**{**TINY.__dict__, **overrides})
    return init_params(cfg, seed=seed)


def sample_batch(rng, config, batch=2, length=6):
    ids = rng.integers(5, config.vocab_size, size=(batch, length))
    ids[:, 0] = 2  # leading classifier position
    attn = np.ones((batch, length), dtype=np.int64)
    attn[-1, length - 2:] = 0
    ids[-1, length - 2:] = 0
    return ids, attn


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=16, hidden_size=10, num_heads=3)
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=0)
    with pytest.raises(ConfigError):
        ModelConfig(vocab_size=16, dropout_rate=1.0)


def test_param_shapes_tiny_snapshot():
    shapes = param_shapes(TINY, num_classes=2)
    assert shapes["token_embedding"] == (16, 8)
    assert shapes["position_embedding"] == (8, 8)
    assert shapes["layer0.attn.wq"] == (8, 8)
    assert shapes["layer0.ffn.w1"] == (8, 32)
    assert shapes["layer0.ffn.w2"] == (32, 8)
    assert shapes["mlm.bias"] == (16,)
    assert shapes["cls.out_w"] == (8, 2)
    assert "mlm.weight" not in shapes  # tied to the token embedding


def test_parameter_count_is_sum_of_shapes():
    shapes = param_shapes(TINY, num_classes=2)
    total = sum(int(np.prod(s)) for s in shapes.values())
    assert parameter_count(TINY, num_classes=2) == total == 1170


def test_init_is_seeded_and_truncated():
    m1 = tiny_model(seed=11)
    m2 = tiny_model(seed=11)
    m3 = tiny_model(seed=12)
    for name, t in m1.params.items():
        np.testing.assert_array_equal(t.data, m2.params[name].data)
    assert any(not np.array_equal(t.data, m3.params[name].data)
               for name, t in m1.params.items())
    emb = m1.params["token_embedding"].data
    assert np.abs(emb).max() <= 2 * 0.02 + 1e-12
    assert emb.std() > 0.01


def test_init_biases_zero_gains_one():
    m = tiny_model()
    np.testing.assert_array_equal(m.params["layer0.attn.bq"].data, np.zeros(8))
    np.testing.assert_array_equal(m.params["layer0.attn_norm.gain"].data,
                                  np.ones(8))
    np.testing.assert_array_equal(m.params["cls.out_b"].data, np.zeros(2))


def test_encode_output_shape_and_dtype():
    m = tiny_model()
    rng = np.random.default_rng(0)
    ids, attn = sample_batch(rng, TINY)
    hidden = full_encode(ids, attn, m)
    assert hidden.shape == (2, 6, 8)
    assert hidden.data.dtype == np.float32


def test_encode_validates_shapes():
    m = tiny_model()
    ids = np.zeros((2, 6), dtype=np.int64)
    with pytest.raises(ShapeError):
        encode(ids, np.ones((2, 5), dtype=np.int64), m, rows=[0])
    # an over-long sequence is a data problem, not a plumbing one
    with pytest.raises(DataError):
        encode(np.zeros((2, TINY.max_position + 1), dtype=np.int64),
               np.ones((2, TINY.max_position + 1), dtype=np.int64), m, rows=[0])
    with pytest.raises(DataError, match="no real position"):
        encode(ids, np.zeros((2, 6), dtype=np.int64), m, rows=[0])


def test_padding_does_not_change_real_positions():
    """Masked positions must be invisible to attention."""
    m = tiny_model(seed=4)
    ids = np.array([[2, 6, 7, 8]])
    attn = np.array([[1, 1, 1, 1]])
    base = full_encode(ids, attn, m).data

    padded_ids = np.array([[2, 6, 7, 8, 0, 0]])
    padded_attn = np.array([[1, 1, 1, 1, 0, 0]])
    padded = full_encode(padded_ids, padded_attn, m).data

    np.testing.assert_allclose(padded[0, :4], base[0], atol=1e-5)


def test_pad_token_content_is_irrelevant():
    m = tiny_model(seed=4)
    attn = np.array([[1, 1, 1, 0, 0]])
    a = full_encode(np.array([[2, 6, 7, 0, 0]]), attn, m).data
    b = full_encode(np.array([[2, 6, 7, 9, 13]]), attn, m).data
    np.testing.assert_allclose(a[0, :3], b[0, :3], atol=1e-5)


def padded_encode(ids, attention_mask, model):
    """The encoder before packing: every layer runs on all B x n positions.
    The oracle for `encode` with dropout off."""
    cfg = model.config
    p = model.params
    batch, seq_len = ids.shape
    dtype = p["token_embedding"].dtype
    x = ag.add(ag.embedding(p["token_embedding"], ids),
               ag.take(p["position_embedding"], slice(0, seq_len)))
    key_bias = ((1.0 - attention_mask.astype(dtype)) * np.asarray(-1e9, dtype))
    key_bias = Tensor(key_bias[:, None, None, :])
    heads, head_size = cfg.num_heads, cfg.head_size
    scale = 1.0 / math.sqrt(head_size)

    def linear(t, w, b):
        return ag.add(matmul(t, p[w]), p[b])

    def split_heads(t):
        t = reshape(t, (batch, seq_len, heads, head_size))
        return ag.transpose(t, (0, 2, 1, 3))

    for i in range(cfg.num_layers):
        pre = f"layer{i}"
        q = split_heads(linear(x, f"{pre}.attn.wq", f"{pre}.attn.bq"))
        k = split_heads(linear(x, f"{pre}.attn.wk", f"{pre}.attn.bk"))
        v = split_heads(linear(x, f"{pre}.attn.wv", f"{pre}.attn.bv"))
        scores = matmul(q, ag.transpose(k, (0, 1, 3, 2))) * scale
        probs = softmax(ag.add(scores, key_bias), axis=-1)
        context = ag.transpose(matmul(probs, v), (0, 2, 1, 3))
        context = reshape(context, (batch, seq_len, cfg.hidden_size))
        attn_out = linear(context, f"{pre}.attn.wo", f"{pre}.attn.bo")
        x = layer_norm(ag.add(x, attn_out), p[f"{pre}.attn_norm.gain"],
                          p[f"{pre}.attn_norm.bias"], LAYER_NORM_EPSILON)
        hidden = ag.gelu(linear(x, f"{pre}.ffn.w1", f"{pre}.ffn.b1"))
        ffn_out = linear(hidden, f"{pre}.ffn.w2", f"{pre}.ffn.b2")
        x = layer_norm(ag.add(x, ffn_out), p[f"{pre}.ffn_norm.gain"],
                          p[f"{pre}.ffn_norm.bias"], LAYER_NORM_EPSILON)
    return x


def test_packed_encode_matches_padded_oracle():
    """Real-position states and every parameter gradient of an MLM plus
    classification loss agree with the all-positions encoder in float64."""
    cfg = ModelConfig(vocab_size=23, num_layers=2, hidden_size=12, num_heads=3,
                      max_position=9, dropout_rate=0.0)
    lengths = [7, 3, 5, 2]
    rng = np.random.default_rng(21)
    ids = rng.integers(5, cfg.vocab_size, size=(len(lengths), 7))
    attn = (np.arange(7) < np.array(lengths)[:, None]).astype(np.int64)
    ids[attn == 0] = 0
    ids[:, 0] = 2
    masked = np.flatnonzero(attn & (rng.random(attn.shape) < 0.5))
    targets = rng.integers(5, cfg.vocab_size, size=masked.size)
    classes = np.array([0, 1, 1, 0])

    def run(encoder):
        model = init_params(cfg, seed=3, dtype=np.float64)
        hidden = encoder(ids, attn, model)
        rows = ag.take(reshape(hidden, (-1, cfg.hidden_size)), masked)
        loss = ag.add(
            ag.masked_cross_entropy(mlm_logits(rows, model), targets,
                                    np.ones_like(targets), reduction="mean"),
            ag.masked_cross_entropy(classify(hidden[:, 0], model), classes,
                                    np.ones_like(classes), reduction="mean"))
        ag.backward(loss)
        return hidden.data, {name: t.grad for name, t in model.params.items()}

    hidden, grads = run(full_encode)
    want_hidden, want_grads = run(padded_encode)
    real = attn.astype(bool)
    np.testing.assert_allclose(hidden[real], want_hidden[real], rtol=1e-10)
    assert set(grads) == set(want_grads)
    for name, grad in grads.items():
        if name.endswith(".attn.bk"):
            # true gradient 0: softmax ignores a constant added to every score
            # of a query, so both hold rounding noise only
            assert np.abs(grad).max() < 1e-15 and np.abs(want_grads[name]).max() < 1e-15
        else:
            np.testing.assert_allclose(grad, want_grads[name], rtol=1e-10, err_msg=name)


def test_unpadded_encode_matches_padded_oracle():
    """The no-padding path (a reshape, no slot gathers) against the
    all-positions encoder: states and every parameter gradient, float64."""
    cfg = ModelConfig(vocab_size=23, num_layers=2, hidden_size=12, num_heads=3,
                      max_position=9, dropout_rate=0.0)
    rng = np.random.default_rng(22)
    ids = rng.integers(5, cfg.vocab_size, size=(4, 7))
    ids[:, 0] = 2
    attn = np.ones_like(ids)
    masked = np.flatnonzero(rng.random(attn.shape) < 0.5)
    targets = rng.integers(5, cfg.vocab_size, size=masked.size)
    classes = np.array([0, 1, 1, 0])

    def run(encoder):
        model = init_params(cfg, seed=3, dtype=np.float64)
        hidden = encoder(ids, attn, model)
        rows = ag.take(reshape(hidden, (-1, cfg.hidden_size)), masked)
        loss = ag.add(
            ag.masked_cross_entropy(mlm_logits(rows, model), targets,
                                    np.ones_like(targets), reduction="mean"),
            ag.masked_cross_entropy(classify(hidden[:, 0], model), classes,
                                    np.ones_like(classes), reduction="mean"))
        ag.backward(loss)
        return hidden.data, {name: t.grad for name, t in model.params.items()}

    hidden, grads = run(full_encode)
    want_hidden, want_grads = run(padded_encode)
    np.testing.assert_allclose(hidden, want_hidden, rtol=1e-10)
    assert set(grads) == set(want_grads)
    for name, grad in grads.items():
        if name.endswith(".attn.bk"):  # true gradient 0, as in the padded case
            assert np.abs(grad).max() < 1e-15 and np.abs(want_grads[name]).max() < 1e-15
        else:
            np.testing.assert_allclose(grad, want_grads[name], rtol=1e-10, err_msg=name)


def test_encode_draws_dropout_masks_in_layer_order():
    """Seeded runs keep their draws: the embedding mask [T, d], then per
    layer the attention-probability mask [B, h, n, n] and the two [T, d]
    residual-branch masks."""
    cfg = ModelConfig(**{**TINY.__dict__, "num_layers": 2, "dropout_rate": 0.1})
    ids, attn = sample_batch(np.random.default_rng(6), cfg)
    rng = np.random.default_rng(17)
    full_encode(ids, attn, init_params(cfg, seed=0), train_mode=True, rng=rng)
    want = np.random.default_rng(17)
    (batch, seq_len), rows, width = attn.shape, int(attn.sum()), cfg.hidden_size
    want.random((rows, width))
    for _ in range(cfg.num_layers):
        want.random((batch, cfg.num_heads, seq_len, seq_len))
        want.random((rows, width))
        want.random((rows, width))
    assert rng.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("padded", [False, True])
def test_encode_runs_one_attention_node_per_layer(padded):
    """No per-layer gathers, transposes, softmax or reshapes: the only
    shape op left is the last layer's gather of the requested rows."""
    cfg = ModelConfig(**{**TINY.__dict__, "num_layers": 2})
    ids, attn = sample_batch(np.random.default_rng(7), cfg)
    if not padded:
        attn = np.ones_like(attn)
    hidden = encode(ids, attn, init_params(cfg, seed=0), rows=np.flatnonzero(attn))
    ops, stack, seen = [], [hidden], set()
    while stack:
        node = stack.pop()
        if id(node) in seen or node.ctx is None:
            continue
        seen.add(id(node))
        ops.append(node.ctx.op)
        stack.extend(node.ctx.parents)
    assert ops.count("attention") == cfg.num_layers
    assert ops.count("take") == 1
    assert not {"reshape", "transpose", "softmax"} & set(ops)


def rows_batch(padded):
    """A float64 two-layer model's batch, its [CLS] slots and scattered
    masked slots (unsorted, one of them a [CLS] slot too)."""
    cfg = ModelConfig(vocab_size=23, num_layers=2, hidden_size=12, num_heads=3,
                      max_position=9, dropout_rate=0.0)
    lengths = [7, 3, 5, 2] if padded else [7, 7, 7, 7]
    rng = np.random.default_rng(23)
    ids = rng.integers(5, cfg.vocab_size, size=(len(lengths), 7))
    attn = (np.arange(7) < np.array(lengths)[:, None]).astype(np.int64)
    ids[attn == 0] = 0
    ids[:, 0] = 2
    cls_rows = np.arange(len(lengths)) * 7
    masked = rng.permutation(np.flatnonzero(attn & (rng.random(attn.shape) < 0.5)))
    masked = np.append(masked, cls_rows[1])
    return cfg, ids, attn, cls_rows, masked


@pytest.mark.parametrize("padded", [False, True])
def test_encode_rows_match_full_encode(padded):
    """`encode(..., rows=r)` equals the full states taken at r, in r's
    order, and so does every parameter gradient of an MLM plus
    classification loss read from those rows, in float64."""
    cfg, ids, attn, cls_rows, masked = rows_batch(padded)
    rows = np.concatenate([cls_rows, masked])
    batch = len(cls_rows)
    rng = np.random.default_rng(24)
    targets = rng.integers(5, cfg.vocab_size, size=masked.size)
    classes = np.array([0, 1, 1, 0])

    def run(with_rows):
        model = init_params(cfg, seed=3, dtype=np.float64)
        if with_rows:
            states = encode(ids, attn, model, rows=rows)
        else:
            states = ag.take(reshape(full_encode(ids, attn, model), (-1, cfg.hidden_size)),
                             rows)
        loss = ag.add(
            ag.masked_cross_entropy(mlm_logits(states[batch:], model), targets,
                                    np.ones_like(targets), reduction="mean"),
            ag.masked_cross_entropy(classify(states[:batch], model), classes,
                                    np.ones_like(classes), reduction="mean"))
        ag.backward(loss)
        return states.data, {name: t.grad for name, t in model.params.items()}

    states, grads = run(True)
    want_states, want_grads = run(False)
    assert states.shape == (rows.size, cfg.hidden_size)
    np.testing.assert_allclose(states, want_states, rtol=1e-10)
    assert set(grads) == set(want_grads)
    for name, grad in grads.items():
        if name.endswith(".attn.bk"):  # true gradient 0, as in the oracle tests
            assert np.abs(grad).max() < 1e-15 and np.abs(want_grads[name]).max() < 1e-15
        else:
            np.testing.assert_allclose(grad, want_grads[name], rtol=1e-10, err_msg=name)


@pytest.mark.parametrize("padded", [False, True])
def test_encode_rows_run_last_layer_ffn_on_those_rows(monkeypatch, padded):
    """Earlier layers' GELU sees all T real rows, the last layer's only
    the R requested ones."""
    cfg, ids, attn, cls_rows, masked = rows_batch(padded)
    seen = []
    gelu = ag.gelu

    def recording_gelu(x):
        seen.append(x.shape)
        return gelu(x)

    monkeypatch.setattr(ag, "gelu", recording_gelu)
    model = init_params(cfg, seed=0)
    width, real = cfg.intermediate_size, int(attn.sum())
    for rows in (cls_rows, masked):
        seen.clear()
        encode(ids, attn, model, rows=rows)
        assert seen == [(real, width), (rows.size, width)]


def test_encode_rows_draws_dropout_masks_in_layer_order():
    """With `rows`, the last layer's attention mask spans [B, h, m, n], m
    the most requested rows of one sequence ([CLS] rows: 1; slots 0 and 3
    of sequence 0: 2; a repeated slot counts twice), and its two
    residual-branch masks cover the R requested rows."""
    cfg = ModelConfig(**{**TINY.__dict__, "num_layers": 2, "dropout_rate": 0.1})
    ids, attn = sample_batch(np.random.default_rng(6), cfg)
    (batch, seq_len), real, width = attn.shape, int(attn.sum()), cfg.hidden_size
    for rows, per_seq in (([0, 6], 1), ([0, 3, 6], 2), ([9, 0, 9], 2)):
        rows = np.array(rows)
        rng = np.random.default_rng(17)
        encode(ids, attn, init_params(cfg, seed=0), train_mode=True, rng=rng, rows=rows)
        want = np.random.default_rng(17)
        want.random((real, width))
        for _ in range(cfg.num_layers - 1):
            want.random((batch, cfg.num_heads, seq_len, seq_len))
            want.random((real, width))
            want.random((real, width))
        want.random((batch, cfg.num_heads, per_seq, seq_len))
        want.random((rows.size, width))
        want.random((rows.size, width))
        assert rng.bit_generator.state == want.bit_generator.state, rows


@pytest.mark.parametrize("slot", [11, 12, -1, 40])
def test_encode_rows_must_be_real_positions(slot):
    """A padding slot (11 is [1, 5]) or one outside the [2, 6] batch is a
    DataError naming it."""
    m = tiny_model()
    ids, attn = sample_batch(np.random.default_rng(0), TINY)
    assert attn.reshape(-1)[10] == 0 and attn.reshape(-1)[11] == 0
    with pytest.raises(DataError, match=rf"slot {slot} is not a real position"):
        encode(ids, attn, m, rows=np.array([0, slot]))


def test_mlm_logits_shape_and_weight_tying():
    m = tiny_model()
    rng = np.random.default_rng(1)
    ids, attn = sample_batch(rng, TINY)
    hidden = full_encode(ids, attn, m)
    logits = mlm_logits(hidden, m)
    assert logits.shape == (2, 6, 16)
    # tied head: moving an embedding row moves the corresponding logit
    before = mlm_logits(full_encode(ids, attn, m), m).data
    m.params["token_embedding"].data[7] += 1.0
    after = mlm_logits(full_encode(ids, attn, m), m).data
    assert not np.allclose(before[..., 7], after[..., 7])


def test_classify_shape():
    m = tiny_model()
    rng = np.random.default_rng(2)
    ids, attn = sample_batch(rng, TINY)
    logits = classify(full_encode(ids, attn, m)[:, 0], m)
    assert logits.shape == (2, 2)


def test_eval_mode_is_deterministic_despite_dropout_config():
    m = tiny_model(seed=5, dropout_rate=0.3)
    rng = np.random.default_rng(3)
    ids, attn = sample_batch(rng, m.config)
    a = full_encode(ids, attn, m, train_mode=False).data
    b = full_encode(ids, attn, m, train_mode=False).data
    np.testing.assert_array_equal(a, b)


def test_train_mode_dropout_perturbs_outputs():
    m = tiny_model(seed=5, dropout_rate=0.3)
    rng = np.random.default_rng(3)
    ids, attn = sample_batch(rng, m.config)
    a = full_encode(ids, attn, m, train_mode=True, rng=np.random.default_rng(1)).data
    b = full_encode(ids, attn, m, train_mode=True, rng=np.random.default_rng(2)).data
    assert not np.array_equal(a, b)


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    m = tiny_model(seed=9)
    path = tmp_path / "ckpt"
    save_checkpoint(m, path)
    loaded = load_checkpoint(path)
    assert loaded.config == m.config
    assert loaded.num_classes == m.num_classes
    for name, t in m.params.items():
        np.testing.assert_array_equal(t.data, loaded.params[name].data)

    rng = np.random.default_rng(4)
    ids, attn = sample_batch(rng, TINY)
    np.testing.assert_array_equal(full_encode(ids, attn, m).data,
                                  full_encode(ids, attn, loaded).data)


def assert_params_bitwise(model, want):
    for name, t in want.params.items():
        assert model.params[name].data.tobytes() == t.data.tobytes(), name


def test_interrupted_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    """A save that fails on its second parameter file leaves the previous
    checkpoint loadable, bitwise; the next save replaces it cleanly."""
    path = tmp_path / "best"
    first, second = tiny_model(seed=1), tiny_model(seed=2)
    save_checkpoint(first, path)
    writes = []

    def failing_open(file, mode="r", *args, **kwargs):
        if mode == "wb":
            writes.append(file)
            if len(writes) == 2:
                raise OSError("no space left on device")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr("offlm.model.open", failing_open, raising=False)
    with pytest.raises(OSError):
        save_checkpoint(second, path)
    monkeypatch.undo()
    assert_params_bitwise(load_checkpoint(path), first)
    save_checkpoint(second, path)
    assert_params_bitwise(load_checkpoint(path), second)
    assert os.listdir(tmp_path) == ["best"]


def test_load_recovers_checkpoint_moved_aside(tmp_path):
    """A save stopped between moving the old directory aside and renaming
    the new one into place still loads the old one."""
    m = tiny_model(seed=3)
    save_checkpoint(m, tmp_path / "best")
    os.rename(tmp_path / "best", tmp_path / "best.old")
    assert_params_bitwise(load_checkpoint(tmp_path / "best"), m)


def test_load_rejects_unfinished_first_save(tmp_path):
    (tmp_path / "best.tmp").mkdir()
    with pytest.raises(DataError, match="best.tmp"):
        load_checkpoint(tmp_path / "best")


def test_resolve_checkpoint_names_last_complete_save(tmp_path):
    """None when nothing was saved, `<path>.old` when only that exists,
    and a DataError naming a lone `<path>.tmp`."""
    path = tmp_path / "best"
    assert resolve_checkpoint(path) is None
    save_checkpoint(tiny_model(), path)
    assert resolve_checkpoint(path) == str(path)
    os.rename(path, tmp_path / "best.old")
    assert resolve_checkpoint(path) == str(tmp_path / "best.old")
    os.rename(tmp_path / "best.old", tmp_path / "best.tmp")
    with pytest.raises(DataError, match="best.tmp"):
        resolve_checkpoint(path)


def test_save_refuses_directory_that_is_not_a_checkpoint(tmp_path):
    """Saving over a directory without manifest.json leaves its files in
    place; an empty directory is simply filled."""
    notes = tmp_path / "notes"
    notes.mkdir()
    (notes / "todo.txt").write_text("keep me")
    with pytest.raises(DataError, match="notes"):
        save_checkpoint(tiny_model(), notes)
    assert os.listdir(notes) == ["todo.txt"]
    assert (notes / "todo.txt").read_text() == "keep me"
    assert sorted(os.listdir(tmp_path)) == ["notes"]
    empty = tmp_path / "empty"
    empty.mkdir()
    m = tiny_model(seed=4)
    save_checkpoint(m, empty)
    assert_params_bitwise(load_checkpoint(empty), m)


def test_checkpoint_manifest_contents(tmp_path):
    m = tiny_model(seed=9)
    save_checkpoint(m, tmp_path / "ckpt")
    manifest = json.load(open(tmp_path / "ckpt" / "manifest.json"))
    assert manifest["format_version"] == 3
    assert set(manifest["config"]) == {"vocab_size", "num_layers", "hidden_size",
                                       "num_heads", "max_position", "dropout_rate"}
    assert manifest["num_classes"] == 2
    assert set(manifest["params"]) == set(m.params)
    for entry in manifest["params"].values():
        assert "sha256" in entry and "shape" in entry


def test_checkpoint_detects_corruption(tmp_path):
    m = tiny_model()
    save_checkpoint(m, tmp_path / "ckpt")
    target = tmp_path / "ckpt" / "token_embedding.bin"
    blob = bytearray(target.read_bytes())
    blob[0] ^= 0xFF
    target.write_bytes(bytes(blob))
    with pytest.raises(DataError, match="checksum"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_detects_missing_param_file(tmp_path):
    m = tiny_model()
    save_checkpoint(m, tmp_path / "ckpt")
    os.remove(tmp_path / "ckpt" / "mlm.bias.bin")
    with pytest.raises((DataError, OSError)):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_rejects_shape_mismatch(tmp_path):
    m = tiny_model()
    save_checkpoint(m, tmp_path / "ckpt")
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.load(open(manifest_path))
    manifest["params"]["mlm.bias"]["shape"] = [17]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises((ShapeError, DataError), match="mlm.bias"):
        load_checkpoint(tmp_path / "ckpt")


def test_checkpoint_rejects_unknown_format_version(tmp_path):
    m = tiny_model()
    save_checkpoint(m, tmp_path / "ckpt")
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.load(open(manifest_path))
    manifest["format_version"] = 99
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DataError, match="version"):
        load_checkpoint(tmp_path / "ckpt")


def test_model_named_params_matches_shapes():
    m = tiny_model()
    named = dict(m.named_params())
    assert set(named) == set(param_shapes(TINY, num_classes=2))
    for name, shape in param_shapes(TINY, num_classes=2).items():
        assert named[name].shape == shape


def test_float64_init_for_verification():
    m = init_params(TINY, seed=0, dtype=np.float64)
    assert all(t.data.dtype == np.float64 for t in m.params.values())
    rng = np.random.default_rng(5)
    ids, attn = sample_batch(rng, TINY)
    assert full_encode(ids, attn, m).data.dtype == np.float64


def _drop_key(table, key):
    del table[key]


MANIFEST_DEFECTS = {
    "params": lambda m: _drop_key(m, "params"),
    "config": lambda m: _drop_key(m, "config"),
    "num_classes": lambda m: _drop_key(m, "num_classes"),
    "sha256": lambda m: _drop_key(m["params"]["mlm.bias"], "sha256"),
    "shape": lambda m: _drop_key(m["params"]["mlm.bias"], "shape"),
    "colour": lambda m: m["config"].update(colour="red"),
    "vocab_size": lambda m: _drop_key(m["config"], "vocab_size"),
    "num_classes='2'": lambda m: m.update(num_classes="2"),
    "init_seed": lambda m: _drop_key(m, "init_seed"),
    "init_seed=1.5": lambda m: m.update(init_seed=1.5),
    "num_heads=3": lambda m: m["config"].update(num_heads=3),
    "dropout_rate=1.5": lambda m: m["config"].update(dropout_rate=1.5),
}


@pytest.mark.parametrize("key", sorted(MANIFEST_DEFECTS))
def test_checkpoint_malformed_manifest_is_data_error(tmp_path, key):
    save_checkpoint(tiny_model(), tmp_path / "ckpt")
    manifest_path = tmp_path / "ckpt" / "manifest.json"
    manifest = json.load(open(manifest_path))
    MANIFEST_DEFECTS[key](manifest)
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(DataError) as info:
        load_checkpoint(tmp_path / "ckpt")
    assert str(manifest_path) in str(info.value)
    assert key.split("=")[0] in str(info.value)
