"""Bidirectional transformer encoder with a masked-token output head and
a [CLS] classification head, plus a checkpoint format that round-trips
forward outputs bitwise.

Sizing is configurable; the defaults are a desk-scale encoder (2 layers,
width 64, 2 heads). BERT's fixed choices are constants: the feed-forward
width is 4x the hidden size, the masked-token head is tied to the token
embedding, and layer norms use epsilon 1e-12.
Initialization is truncated normal, std 0.02, resampled beyond two
standard deviations.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ConfigError, DataError, ShapeError

CHECKPOINT_FORMAT_VERSION = 3
INIT_STD = 0.02
LAYER_NORM_EPSILON = 1e-12


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    num_layers: int = 2
    hidden_size: int = 64
    num_heads: int = 2
    max_position: int = 128
    dropout_rate: float = 0.1

    def __post_init__(self):
        if self.vocab_size < 6:
            raise ConfigError(f"vocab_size {self.vocab_size} < 6")
        if self.num_layers < 1 or self.hidden_size < 1 or self.num_heads < 1:
            raise ConfigError("layers, hidden size, and heads must be >= 1")
        if self.hidden_size % self.num_heads != 0:
            raise ConfigError(
                f"hidden_size {self.hidden_size} not divisible by "
                f"num_heads {self.num_heads}")
        if self.max_position < 1:
            raise ConfigError("max_position must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must be in [0, 1)")

    @property
    def head_size(self) -> int:
        return self.hidden_size // self.num_heads

    @property
    def intermediate_size(self) -> int:
        return 4 * self.hidden_size


@dataclass
class Model:
    config: ModelConfig
    params: dict[str, Tensor]
    num_classes: int
    init_seed: int = 0

    def named_params(self) -> list[tuple[str, Tensor]]:
        return list(self.params.items())


def param_shapes(config: ModelConfig, num_classes: int = 2,
                 ) -> dict[str, tuple[int, ...]]:
    """Name -> shape for every trainable tensor, in a fixed order."""
    if num_classes < 2:
        raise ConfigError(f"num_classes {num_classes} < 2")
    d, f, v = config.hidden_size, config.intermediate_size, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {
        "token_embedding": (v, d),
        "position_embedding": (config.max_position, d),
    }
    for i in range(config.num_layers):
        p = f"layer{i}"
        for name in ("wq", "wk", "wv", "wo"):
            shapes[f"{p}.attn.{name}"] = (d, d)
        for name in ("bq", "bk", "bv", "bo"):
            shapes[f"{p}.attn.{name}"] = (d,)
        shapes[f"{p}.attn_norm.gain"] = (d,)
        shapes[f"{p}.attn_norm.bias"] = (d,)
        shapes[f"{p}.ffn.w1"] = (d, f)
        shapes[f"{p}.ffn.b1"] = (f,)
        shapes[f"{p}.ffn.w2"] = (f, d)
        shapes[f"{p}.ffn.b2"] = (d,)
        shapes[f"{p}.ffn_norm.gain"] = (d,)
        shapes[f"{p}.ffn_norm.bias"] = (d,)
    shapes["mlm.bias"] = (v,)
    shapes["cls.pooler_w"] = (d, d)
    shapes["cls.pooler_b"] = (d,)
    shapes["cls.out_w"] = (d, num_classes)
    shapes["cls.out_b"] = (num_classes,)
    return shapes


def parameter_count(config: ModelConfig, num_classes: int = 2) -> int:
    return sum(int(np.prod(s)) for s in param_shapes(config, num_classes).values())


def _truncated_normal(rng: np.random.Generator, shape, std: float,
                      dtype) -> np.ndarray:
    out = rng.normal(0.0, std, size=shape)
    while True:
        bad = np.abs(out) > 2.0 * std
        n_bad = int(bad.sum())
        if n_bad == 0:
            return out.astype(dtype)
        out[bad] = rng.normal(0.0, std, size=n_bad)


def init_params(config: ModelConfig, seed: int, num_classes: int = 2,
                dtype=np.float32) -> Model:
    """Fresh model: truncated-normal weights, zero biases, unit norm gains.
    Same seed gives bitwise-identical parameters."""
    if seed < 0:
        raise ConfigError(f"model seed {seed} < 0")
    rng = np.random.Generator(np.random.PCG64(seed))
    params: dict[str, Tensor] = {}
    for name, shape in param_shapes(config, num_classes).items():
        if name.endswith(".gain"):
            data = np.ones(shape, dtype=dtype)
        elif len(shape) == 1:  # every 1-d tensor other than a gain is a bias
            data = np.zeros(shape, dtype=dtype)
        else:
            data = _truncated_normal(rng, shape, INIT_STD, dtype)
        params[name] = Tensor(data, requires_grad=True)
    return Model(config=config, params=params, num_classes=num_classes,
                 init_seed=seed)


def encode(ids: np.ndarray, attention_mask: np.ndarray, model: Model,
           train_mode: bool = False,
           rng: Optional[np.random.Generator] = None, *,
           rows: np.ndarray) -> Tensor:
    """Run the encoder stack and return the final states [len(rows), d] of
    `rows`, flat slot indices b*n + j of real positions (attention_mask
    1), in the order given. A slot that is not a real position is a
    DataError naming it.

    Every layer runs on the T real rows only, packed as [T, d]; the
    attention core is the one fused `ag.attention` node per layer, which
    places the rows in their B*n slots itself when there is padding. The
    last layer's attention takes `rows` as its only queries, while all T
    rows stay its keys and values, and everything after it (output
    projection, residual adds, layer norms, FFN, dropout) runs on the
    requested rows only. Dropout applies only when train_mode is set
    (which requires rng).
    """
    cfg = model.config
    p = model.params
    ids = np.asarray(ids)
    attention_mask = np.asarray(attention_mask)
    if ids.ndim != 2 or ids.shape != attention_mask.shape:
        raise ShapeError(
            f"ids {ids.shape} and attention_mask {attention_mask.shape} "
            f"must be equal 2-d shapes")
    seq_len = ids.shape[1]
    if seq_len > cfg.max_position:
        raise DataError(
            f"sequence length {seq_len} exceeds max_position {cfg.max_position}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise DataError(
            f"token id outside [0, {cfg.vocab_size}): "
            f"min {ids.min()}, max {ids.max()}")
    if train_mode and cfg.dropout_rate > 0 and rng is None:
        raise ConfigError("train_mode with dropout requires an rng")
    real = np.flatnonzero(attention_mask)  # the slot b*n + j of each real token
    if real.size == 0:
        raise DataError("attention_mask has no real position")
    picked = _packed_index(real, rows)

    def drop(t: Tensor) -> Tensor:
        if train_mode and cfg.dropout_rate > 0:
            return ag.dropout(t, cfg.dropout_rate, rng)
        return t

    x = ag.add(ag.embedding(p["token_embedding"], ids.reshape(-1)[real]),
               ag.embedding(p["position_embedding"], real % seq_len))
    x = drop(x)
    attn_rate = cfg.dropout_rate if train_mode else 0.0
    for i in range(cfg.num_layers):
        pre = f"layer{i}"
        # no head reads the other rows' final states
        queries = picked if i == cfg.num_layers - 1 else None
        context = ag.attention(
            x, *(p[f"{pre}.attn.{name}"] for name in ("wq", "wk", "wv", "bq", "bk", "bv")),
            attention_mask, cfg.num_heads, attn_rate, rng, queries)
        if queries is not None:
            x = ag.take(x, queries)
        attn_out = drop(ag.linear(context, p[f"{pre}.attn.wo"], p[f"{pre}.attn.bo"]))
        x = ag.add_layer_norm(x, attn_out, p[f"{pre}.attn_norm.gain"],
                              p[f"{pre}.attn_norm.bias"], LAYER_NORM_EPSILON)
        hidden = ag.gelu(ag.linear(x, p[f"{pre}.ffn.w1"], p[f"{pre}.ffn.b1"]))
        ffn_out = drop(ag.linear(hidden, p[f"{pre}.ffn.w2"], p[f"{pre}.ffn.b2"]))
        x = ag.add_layer_norm(x, ffn_out, p[f"{pre}.ffn_norm.gain"],
                              p[f"{pre}.ffn_norm.bias"], LAYER_NORM_EPSILON)
    return x


def _packed_index(real: np.ndarray, rows) -> np.ndarray:
    """The packed row of each slot in `rows`, given the sorted slots `real`
    of the real positions."""
    rows = np.asarray(rows)
    index = np.searchsorted(real, rows)
    found = real[np.minimum(index, real.size - 1)] == rows
    if not found.all():
        raise DataError(f"rows: slot {rows[~found][0]} is not a real position")
    return index


def mlm_logits(hidden: Tensor, model: Model) -> Tensor:
    """Vocabulary scores [..., V] (pre-softmax) for hidden states [..., d],
    e.g. the masked rows [m, d] that `encode` returns, through the
    transposed token embedding."""
    w = ag.transpose(model.params["token_embedding"], (1, 0))
    return ag.linear(hidden, w, model.params["mlm.bias"])


def classify(first: Tensor, model: Model) -> Tensor:
    """Class logits [B, C] from the position-0 ([CLS]) states [B, d],
    tanh-pooled."""
    p = model.params
    pooled = ag.tanh(ag.linear(first, p["cls.pooler_w"], p["cls.pooler_b"]))
    return ag.linear(pooled, p["cls.out_w"], p["cls.out_b"])


def _param_filename(name: str) -> str:
    return name + ".bin"


def save_checkpoint(model: Model, path) -> None:
    """Write a checkpoint directory: manifest.json plus one flat
    little-endian float32 file per parameter.

    The files are written to the sibling `<path>.tmp`. Then an existing
    `path` is moved aside to `<path>.old`, the new directory is renamed
    into place and the old one deleted (`os.replace` cannot replace a
    non-empty directory). A save interrupted at any point leaves the
    previous checkpoint or the new one for `load_checkpoint(path)`. An
    existing `path` that is neither an empty directory nor a checkpoint
    (a directory holding manifest.json) is a DataError naming it, and is
    left untouched."""
    path = os.path.normpath(os.fspath(path))
    tmp, old = path + ".tmp", path + ".old"
    replaces = os.path.isfile(os.path.join(path, "manifest.json"))
    if os.path.lexists(path) and not replaces and not (
            os.path.isdir(path) and not os.listdir(path)):
        raise DataError(f"{path}: exists and is not a checkpoint directory; "
                        "not overwriting it")
    shutil.rmtree(tmp, ignore_errors=True)  # an earlier save's unfinished write
    os.makedirs(tmp)
    entries = {}
    for name, tensor in model.params.items():
        raw = np.ascontiguousarray(tensor.data.astype("<f4")).tobytes()
        digest = hashlib.sha256(raw).hexdigest()
        with open(os.path.join(tmp, _param_filename(name)), "wb") as f:
            f.write(raw)
        entries[name] = {"shape": list(tensor.shape), "sha256": digest}
    manifest = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "config": asdict(model.config),
        "num_classes": model.num_classes,
        "init_seed": model.init_seed,
        "rng": "pcg64",
        "params": entries,
    }
    with open(os.path.join(tmp, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
    if replaces:
        shutil.rmtree(old, ignore_errors=True)
        os.rename(path, old)
    elif os.path.isdir(path):
        os.rmdir(path)
    os.rename(tmp, path)
    shutil.rmtree(old, ignore_errors=True)


def resolve_checkpoint(path) -> Optional[str]:
    """The directory holding the last complete save to `path`: `path`
    itself, or `<path>.old` when a save stopped between moving it aside
    and renaming the new one into place; None when nothing was saved
    there. A lone `<path>.tmp` is a first save that never finished, a
    DataError naming it."""
    path = os.path.normpath(os.fspath(path))
    if os.path.isdir(path):
        return path
    if os.path.isdir(path + ".old"):
        return path + ".old"
    if os.path.isdir(path + ".tmp"):
        raise DataError(f"{path}.tmp: unfinished checkpoint write, and no "
                        f"complete checkpoint at {path}")
    return None


def load_checkpoint(path) -> Model:
    """Read a checkpoint directory back into a Model. Rejects unknown
    format versions, shape drift, and corrupted parameter files; a
    manifest with a missing or unknown key is a DataError naming it.
    Leftovers of an interrupted `save_checkpoint` are resolved as
    `resolve_checkpoint` describes."""
    path = resolve_checkpoint(path) or path
    manifest_path = os.path.join(path, "manifest.json")
    try:
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError as e:
        raise DataError(f"{manifest_path}: not found") from e
    except json.JSONDecodeError as e:
        raise DataError(f"{manifest_path}: invalid JSON: {e}") from e
    if not isinstance(manifest, dict):
        raise DataError(f"{manifest_path}: expected a JSON object")

    def field(table, key, where):
        try:
            return table[key]
        except (KeyError, TypeError) as e:
            raise DataError(f"{manifest_path}: {where} has no {key!r} key") from e

    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise DataError(
            f"{path}: checkpoint format version {version}, "
            f"expected {CHECKPOINT_FORMAT_VERSION}")
    try:
        config = ModelConfig(**field(manifest, "config", "manifest"))
    except (TypeError, ConfigError) as e:  # a bad key or value
        raise DataError(f"{manifest_path}: bad config: {e}") from e
    num_classes = field(manifest, "num_classes", "manifest")
    if type(num_classes) is not int:
        raise DataError(f"{manifest_path}: num_classes {num_classes!r} is not an integer")
    expected = param_shapes(config, num_classes)
    listed = field(manifest, "params", "manifest")
    init_seed = field(manifest, "init_seed", "manifest")
    if type(init_seed) is not int:
        raise DataError(f"{manifest_path}: init_seed {init_seed!r} is not an integer")
    if set(listed) != set(expected):
        extra = sorted(set(listed) - set(expected))
        missing = sorted(set(expected) - set(listed))
        raise ShapeError(
            f"{path}: parameter set mismatch (extra {extra}, missing {missing})")
    params: dict[str, Tensor] = {}
    for name, shape in expected.items():
        where = f"params entry {name!r}"
        entry_shape = tuple(field(listed[name], "shape", where))
        digest = field(listed[name], "sha256", where)
        if entry_shape != shape:
            raise ShapeError(
                f"{path}: tensor {name} has manifest shape "
                f"{entry_shape}, config requires {shape}")
        file_path = os.path.join(path, _param_filename(name))
        with open(file_path, "rb") as f:
            raw = f.read()
        if hashlib.sha256(raw).hexdigest() != digest:
            raise DataError(f"{file_path}: checksum mismatch for tensor {name}")
        data = np.frombuffer(raw, dtype="<f4")
        if data.size != int(np.prod(shape)):
            raise ShapeError(
                f"{file_path}: {data.size} values on disk, tensor {name} "
                f"requires {int(np.prod(shape))}")
        params[name] = Tensor(data.reshape(shape).copy(), requires_grad=True)
    return Model(config=config, params=params, num_classes=num_classes,
                 init_seed=init_seed)
