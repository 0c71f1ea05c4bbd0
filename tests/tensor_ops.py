"""Autograd conveniences that only the tests use.

`softmax` and `tensor_sum` are ops in the style of `offlm.autograd`, and
importing this module gives `Tensor` its operator sugar (`+`, `-`, `*`,
`/` by a number, unary `-`, `@`, indexing) and `.backward()`. The
encoder and the losses need none of them: the fused attention and
cross-entropy ops do their own softmax. `tests/conftest.py` imports
this module, so every test module has the sugar.
"""

from typing import Optional

import numpy as np

from offlm import autograd as ag
from offlm.autograd import Tensor, _from_op
from offlm.errors import ShapeError


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
Tensor.__sub__ = lambda self, other: ag.add(self, ag.mul(_wrap(other, self), _wrap(-1.0, self)))
Tensor.__mul__ = lambda self, other: ag.mul(self, _wrap(other, self))
Tensor.__rmul__ = lambda self, other: ag.mul(_wrap(other, self), self)
Tensor.__neg__ = lambda self: ag.mul(self, _wrap(-1.0, self))
Tensor.__truediv__ = lambda self, number: ag.mul(self, _wrap(1.0 / number, self))
Tensor.__matmul__ = lambda self, other: ag.matmul(self, other)
Tensor.__getitem__ = lambda self, key: ag.take(self, key)
