"""Autograd conveniences that only the tests use.

`mul`, `reshape`, `matmul`, `layer_norm`, `softmax` and `tensor_sum` are
ops in the style of `offlm.autograd`, `full_encode` assembles the
encoder's states into [B, n, d], and importing this module gives `Tensor`
its operator sugar (`+`, `-`, `*`, `/` by a number, unary `-`, `@`,
indexing) and `.backward()`. The encoder and the losses need none of
them: the fused attention and cross-entropy ops do their own softmax,
`add(matmul(x, w), b)` and `layer_norm(add(x, y), ...)` are the oracles
of the fused `linear` and `add_layer_norm`, and every `offlm` caller of
`encode` asks for the rows it reads.
`tests/conftest.py` imports this module, so every test module has the
sugar.
"""

from typing import Optional

import numpy as np

from offlm import autograd as ag
from offlm.autograd import Tensor, _from_op, _unbroadcast
from offlm.errors import ShapeError
from offlm.model import encode


def mul(a: Tensor, b: Tensor) -> Tensor:
    out = a.data * b.data

    def bwd(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _from_op(out, "mul", (a, b), bwd)


def reshape(x: Tensor, shape: tuple) -> Tensor:
    out = x.data.reshape(shape)

    def bwd(g):
        return (g.reshape(x.shape),)

    return _from_op(out, "reshape", (x,), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; supports stacked leading dimensions via np.matmul."""
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents disagree: {a.shape} @ {b.shape}")
    out = np.matmul(a.data, b.data)

    def bwd(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _from_op(out, "matmul", (a, b), bwd)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, epsilon: float) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + epsilon)
    xhat = (x.data - mean) * inv_std
    out = gain.data * xhat + bias.data

    def bwd(g):
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        dx = inv_std * (dxhat - m1 - xhat * m2)
        axes = tuple(range(g.ndim - 1))
        dgain = (g * xhat).sum(axis=axes)
        dbias = g.sum(axis=axes)
        return dx, dgain, dbias

    return _from_op(out, "layer_norm", (x, gain, bias), bwd)


def full_encode(ids, attention_mask, model, train_mode: bool = False,
                rng: Optional[np.random.Generator] = None) -> Tensor:
    """`encode`'s states for every real position, as [B, n, d]: reshaped
    when there is no padding, gathered into the slots otherwise, so the
    rows at padding positions are unspecified (they repeat row 0)."""
    mask = np.asarray(attention_mask)
    real = np.flatnonzero(mask)
    states = encode(ids, mask, model, train_mode=train_mode, rng=rng, rows=real)
    batch, seq_len = mask.shape
    if real.size == mask.size:
        return reshape(states, (batch, seq_len, states.shape[-1]))
    slot = np.zeros(mask.size, dtype=np.intp)  # packed row read by each slot
    slot[real] = np.arange(real.size)
    return ag.take(states, slot.reshape(batch, seq_len))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Probability-normalize along `axis`, max-subtracted for stability."""
    if not -x.data.ndim <= axis < x.data.ndim:
        raise ShapeError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _from_op(out, "softmax", (x,), bwd)


def tensor_sum(x: Tensor, axis: Optional[int] = None) -> Tensor:
    out = x.data.sum(axis=axis)

    def bwd(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).astype(x.dtype).copy(),)
        expanded = np.expand_dims(g, axis)
        return (np.broadcast_to(expanded, x.shape).astype(x.dtype).copy(),)

    return _from_op(out, "sum", (x,), bwd)


def _wrap(value, like: Tensor) -> Tensor:
    if isinstance(value, Tensor):
        return value
    return Tensor(np.asarray(value, dtype=like.dtype))


Tensor.backward = lambda self: ag.backward(self)
Tensor.__add__ = lambda self, other: ag.add(self, _wrap(other, self))
Tensor.__radd__ = lambda self, other: ag.add(_wrap(other, self), self)
Tensor.__sub__ = lambda self, other: ag.add(self, mul(_wrap(other, self), _wrap(-1.0, self)))
Tensor.__mul__ = lambda self, other: mul(self, _wrap(other, self))
Tensor.__rmul__ = lambda self, other: mul(_wrap(other, self), self)
Tensor.__neg__ = lambda self: mul(self, _wrap(-1.0, self))
Tensor.__truediv__ = lambda self, number: mul(self, _wrap(1.0 / number, self))
Tensor.__matmul__ = lambda self, other: matmul(self, other)
Tensor.__getitem__ = lambda self, key: ag.take(self, key)
