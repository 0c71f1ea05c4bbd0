"""Adam optimizer and global-norm gradient clipping."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .autograd import Tensor
from .errors import ConfigError, ShapeError

_ADAM_BLOCK = 16384  # elements per block: a block of all six arrays fits in L2


@dataclass
class AdamState:
    """Per-parameter first/second moment buffers plus the step counter.

    Buffers are keyed by parameter name and created lazily as zeros, so
    a fresh state (step_count == 0) has all-zero moments by definition.
    """

    step_count: int = 0
    first_moment: dict = field(default_factory=dict)
    second_moment: dict = field(default_factory=dict)

    def buffers_for(self, name: str, like: np.ndarray):
        if name not in self.first_moment:
            self.first_moment[name] = np.zeros_like(like)
            self.second_moment[name] = np.zeros_like(like)
        return self.first_moment[name], self.second_moment[name]


def clip_global_norm(grads: Iterable[Tensor], max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm.

    Returns the joint norm before clipping. Tensors without a gradient
    buffer are ignored.
    """
    if max_norm <= 0:
        raise ConfigError(f"max_norm must be positive, got {max_norm}")
    tensors = [t for t in grads if t.grad is not None]
    total = float(np.sqrt(sum(float(np.square(t.grad, dtype=np.float64).sum())
                              for t in tensors)))
    if total <= max_norm:
        return total
    factor = max_norm / total
    for t in tensors:
        t.grad *= t.dtype.type(factor)
    return total


def adam_step(named_params: Sequence[tuple[str, Tensor]], state: AdamState,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              epsilon: float = 1e-8) -> None:
    """One bias-corrected Adam update over all parameters with gradients.

    The step counter increments once per call, before bias correction.
    Parameters whose grad is None are skipped (their moments still decay
    on the steps where they do have gradients, not here). The arithmetic is
    `m = b1*m + (1-b1)*g`, `v = b2*v + (1-b2)*g*g`, then
    `p -= lr * (m/c1) / (sqrt(v/c2) + eps)`, in the parameter's dtype.
    Each parameter is walked in blocks of about _ADAM_BLOCK elements
    (whole rows of its first axis), and each operation is written into
    one of two block-sized scratch arrays.
    """
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, param in named_params:
        if param.grad is None:
            continue
        if param.grad.shape != param.data.shape:
            raise ShapeError(
                f"gradient shape {param.grad.shape} does not match parameter "
                f"{name} of shape {param.data.shape}")
        p, g, m, v = np.atleast_1d(param.data, param.grad,
                                   *state.buffers_for(name, param.data))
        rows = max(1, _ADAM_BLOCK // max(1, math.prod(p.shape[1:])))
        scratch = np.empty((2, min(rows, len(p))) + p.shape[1:], dtype=p.dtype)
        lr_typed = p.dtype.type(lr)
        for start in range(0, len(p), rows):
            block = slice(start, start + rows)
            pb, gb, mb, vb = p[block], g[block], m[block], v[block]
            a, b = scratch[:, :len(pb)]
            mb *= beta1
            mb += np.multiply(1.0 - beta1, gb, out=a)
            vb *= beta2
            vb += np.multiply(1.0 - beta2, np.multiply(gb, gb, out=a), out=a)
            denom = np.add(np.sqrt(np.divide(vb, c2, out=a), out=a), epsilon, out=a)
            update = np.divide(np.divide(mb, c1, out=b), denom, out=b)
            pb -= np.multiply(lr_typed, update, out=b)
