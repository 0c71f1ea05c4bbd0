"""Reverse-mode automatic differentiation over numpy arrays.

Provides exactly the primitives the encoder, the losses, and the
optimizer need: broadcast-aware addition, a dense layer (`linear`, the
product with its bias added in place), GELU, tanh, a residual layer norm
(`add_layer_norm`, the sum and its normalization in one node), embedding
lookup, dropout, transpose, slicing and indexing, a fused multi-head
self-attention over packed rows, and a fused masked cross-entropy. Each
fused op's values and gradients are bitwise those of the composition it
replaces; `tests/tensor_ops.py` keeps `matmul` and `layer_norm` as the
oracles. Working precision is float32; float64 is supported end
to end for gradient verification.

Every completed operation validates that its result is finite: NaN/Inf
raises NumericError instead of propagating silently.

Inside `with no_grad():` operations record no graph (each result's `ctx`
is None), so an intermediate array is freed as soon as the code that
made it drops it. Forward values are bitwise the same either way.
"""

from __future__ import annotations

import math
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, NumericError, ShapeError

_FLOAT_DTYPES = (np.float32, np.float64)
_recording = True  # process-wide; False inside `no_grad`


def _check_finite(arr: np.ndarray, name: str) -> None:
    if not np.isfinite(arr).all():
        raise NumericError(f"non-finite values in {name}")


class GradContext:
    """One recorded node of the operation graph.

    Holds the parent tensors and a callable mapping the output gradient
    to one gradient per parent (None for parents that need no gradient).
    """

    __slots__ = ("op", "parents", "backward_fn")

    def __init__(self, op: str, parents: Sequence["Tensor"],
                 backward_fn: Callable[[np.ndarray], tuple]):
        self.op = op
        self.parents = tuple(parents)
        self.backward_fn = backward_fn


class Tensor:
    """N-dimensional float array, optionally participating in the tape.

    `requires_grad` marks a leaf whose gradient should be accumulated
    into `.grad` by `backward`. Tensors produced by operations carry a
    GradContext linking them to their inputs.
    """

    __slots__ = ("data", "grad", "requires_grad", "ctx")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        arr = np.array(data, dtype=dtype)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        _check_finite(arr, "tensor")
        self.data = arr
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self.ctx: Optional[GradContext] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype.name}, requires_grad={self.requires_grad})"


class no_grad:
    """Context manager under which operations record no graph, for forward
    passes that no backward reads. Leaving the block, normally or by an
    exception, restores the state it was entered in, so blocks nest."""

    def __enter__(self) -> None:
        global _recording
        self._outer = _recording
        _recording = False

    def __exit__(self, *exc) -> None:
        global _recording
        _recording = self._outer


def _from_op(data: np.ndarray, op: str, parents: Sequence[Tensor],
             backward_fn: Callable[[np.ndarray], tuple]) -> Tensor:
    _check_finite(data, op)
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out.requires_grad = False
    out.ctx = None
    if _recording and any(p.requires_grad or p.ctx is not None for p in parents):
        out.ctx = GradContext(op, parents, backward_fn)
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# primitives


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.data + b.data

    def bwd(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _from_op(out, "add", (a, b), bwd)


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Dense layer x @ w + b for rows x [..., k], weights w [k, n] and bias
    b [n], as one node: the bias is added into the product in place.
    Values and gradients are bitwise those of the two-node composition
    add(x @ w, b); the weight and bias gradients reduce through
    `_unbroadcast` as that composition's did."""
    if x.data.ndim < 2 or w.data.ndim != 2 or b.shape != w.shape[1:]:
        raise ShapeError(f"linear needs [..., k] rows, [k, n] weights and an [n] bias, "
                         f"got {x.shape}, {w.shape} and {b.shape}")
    if x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear inner extents disagree: {x.shape} @ {w.shape}")
    out = np.matmul(x.data, w.data)
    out += b.data

    def bwd(g):
        gw = np.matmul(np.swapaxes(x.data, -1, -2), g)
        return (np.matmul(g, w.data.T), _unbroadcast(gw, w.shape),
                _unbroadcast(g, b.shape))

    return _from_op(out, "linear", (x, w, b), bwd)


# Phi(x) = 0.5 + x * S(x*x) for |x| < 1.5. S's coefficients, highest power
# first, are the Chebyshev interpolant of S(t) = (Phi(sqrt(t)) - 0.5) / sqrt(t)
# on t in [0, 2.25] at its degree + 1 Chebyshev nodes, computed in 60-digit
# arithmetic (mpmath), converted to powers of t and rounded to double.
# Largest relative error in S: 2.9e-9 at degree 6, 1.2e-16 at degree 13.
_CDF_CENTRAL = {
    np.dtype(np.float32): (
        4.129777259590944e-07, -8.728008718515329e-06, 1.1438129506903969e-04,
        -1.1865180532421409e-03, 9.973257250800475e-03, -6.649033819662523e-02,
        3.989422794413929e-01),
    np.dtype(np.float64): (
        -1.7246786631556737e-16, 7.382776393587045e-15, -2.092106695261274e-13,
        5.104626692265903e-12, -1.1299746350803253e-10, 2.2735114701286147e-09,
        -4.1226657443911435e-08, 6.659693410139346e-07, -9.444656254915928e-06,
        1.1543468761486967e-04, -1.1873282154802383e-03, 9.973557010035798e-03,
        -6.649038006690544e-02, 3.989422804014327e-01),
}
# Phi(-a) = r * exp(P(4r - 1) - a*a/2) with r = 1 / (2 + a/sqrt(2)) for
# a >= 1.5, P(y) = c0/2 + sum_k c_k T_k(y): the Chebyshev erfc of Press et
# al., Numerical Recipes 3rd ed. (2007), section 6.2 (erfccheb). float32 uses
# the first 12 coefficients (relative error 1.0e-8 for a >= 1.5), float64
# all 28 (6.3e-17).
_ERFC_CHEB = (
    -1.3026537197817094, 6.4196979235649026e-1, 1.9476473204185836e-2,
    -9.561514786808631e-3, -9.46595344482036e-4, 3.66839497852761e-4,
    4.2523324806907e-5, -2.0278578112534e-5, -1.624290004647e-6,
    1.303655835580e-6, 1.5626441722e-8, -8.5238095915e-8, 6.529054439e-9,
    5.059343495e-9, -9.91364156e-10, -2.27365122e-10, 9.6467911e-11,
    2.394038e-12, -6.886027e-12, 8.94487e-13, 3.13092e-13, -1.12708e-13,
    3.81e-16, 7.106e-15, -1.523e-15, -9.4e-17, 1.21e-16, -2.8e-17)
_TAIL_TERMS = {np.dtype(np.float32): 12, np.dtype(np.float64): 28}
_GELU_BLOCK = 16384  # float64 elements: the three scratch arrays fit in L2


def _lower_tail(a: np.ndarray, cheb: Sequence[float]) -> np.ndarray:
    """Phi(-a) for float64 a >= 1.5, accurate in relative terms."""
    a = np.minimum(a, 40.0)  # Phi(-40) underflows to 0 in float64 anyway
    r = 1.0 / (2.0 + a * math.sqrt(0.5))
    y = 4.0 * r - 1.0
    d = dd = np.zeros_like(a)  # Clenshaw's recurrence for sum_k c_k T_k(y)
    for c in cheb[:0:-1]:
        d, dd = 2.0 * y * d - dd + c, d
    exponent = y * d - dd + 0.5 * cheb[0]
    # a*a/2 = hi*hi/2 (exact) + (a - hi)*(a + hi)/2: a rounded a*a would
    # cost up to 6e-14 relative error at a = 37. Veltkamp's split by
    # 2**27 + 1 leaves hi with 26 significant bits.
    s = a * 134217729.0
    hi = s - (s - a)
    return r * np.exp(-0.5 * hi * hi) * np.exp(exponent - 0.5 * (a - hi) * (a + hi))


def _gelu_forward(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x * Phi(x) and Phi(x) in x's dtype, Phi the standard normal CDF.

    Both are evaluated in float64 and rounded once. The central region
    runs over blocks of _GELU_BLOCK elements in preallocated scratch;
    elements with |x| >= 1.5 are gathered per block and evaluated
    together afterwards. Phi keeps relative accuracy in the left tail:
    it is q = Phi(-|x|) for x < 0 and 1 - q otherwise.
    """
    central = _CDF_CENTRAL[x.dtype]
    flat = x.reshape(-1)
    out, cdf = np.empty_like(flat), np.empty_like(flat)
    size = min(flat.size, _GELU_BLOCK)
    xs, ts, ps = np.empty(size), np.empty(size), np.empty(size)
    tails = []
    for start in range(0, flat.size, _GELU_BLOCK):
        stop = min(start + _GELU_BLOCK, flat.size)
        xb, t, p = xs[:stop - start], ts[:stop - start], ps[:stop - start]
        np.copyto(xb, flat[start:stop])
        np.multiply(xb, xb, out=t)
        np.multiply(t, central[0], out=p)  # Horner's rule for S(t)
        np.add(p, central[1], out=p)
        for c in central[2:]:
            np.multiply(p, t, out=p)
            np.add(p, c, out=p)
        np.multiply(p, xb, out=p)
        np.add(p, 0.5, out=p)
        index = np.flatnonzero(t >= 2.25)  # x*x >= 2.25 iff |x| >= 1.5
        if index.size:
            tails.append(index + start)
        np.copyto(cdf[start:stop], p, casting="same_kind")
        np.multiply(xb, p, out=out[start:stop], casting="same_kind")
    if tails:
        index = np.concatenate(tails)
        xt = flat[index].astype(np.float64)
        q = _lower_tail(np.abs(xt), _ERFC_CHEB[:_TAIL_TERMS[x.dtype]])
        phi = np.where(xt < 0, q, 1.0 - q)
        cdf[index] = phi
        out[index] = xt * phi
    return out.reshape(x.shape), cdf.reshape(x.shape)


def gelu(x: Tensor) -> Tensor:
    """Exact GELU, x * Phi(x) with Phi the standard normal CDF, returned in
    the tensor's own dtype (see _gelu_forward)."""
    out, cdf = _gelu_forward(x.data)

    def bwd(g):  # g * (cdf + x * pdf), every step written into one buffer
        d = np.multiply(x.data, -0.5)
        np.multiply(d, x.data, out=d)
        np.exp(d, out=d)
        np.multiply(d, 1.0 / math.sqrt(2.0 * math.pi), out=d)
        np.multiply(x.data, d, out=d)
        np.add(cdf, d, out=d)
        np.multiply(g, d, out=d)
        return (d,)

    return _from_op(out, "gelu", (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    out = np.tanh(x.data)

    def bwd(g):
        return (g * (1.0 - out * out),)

    return _from_op(out, "tanh", (x,), bwd)


def add_layer_norm(x: Tensor, y: Tensor, gain: Tensor, bias: Tensor,
                   epsilon: float) -> Tensor:
    """Residual layer norm as one node: s = x + y normalized over its last
    axis to zero mean and unit variance, then scaled by `gain` and shifted
    by `bias`.

    The mean and variance are numpy's `mean` and `var` arithmetic (a sum
    over the axis, then a true division by its extent), but s - mean is
    computed once, squared for the variance and scaled in place into
    xhat. Values and gradients are bitwise those of the composition
    layer_norm(add(x, y)); x and y receive the same gradient array.
    """
    if x.shape != y.shape or gain.shape != x.shape[-1:] or bias.shape != gain.shape:
        raise ShapeError(f"add_layer_norm needs equal [..., d] inputs and [d] gain and "
                         f"bias, got {x.shape}, {y.shape}, {gain.shape} and {bias.shape}")
    extent = np.intp(x.shape[-1])
    xhat = x.data + y.data  # s, then s - mean, then xhat, all in place
    mean = np.add.reduce(xhat, axis=-1, keepdims=True)
    np.true_divide(mean, extent, out=mean, casting="unsafe")
    np.subtract(xhat, mean, out=xhat)
    out = np.square(xhat)  # the squared deviations, later the output
    var = np.add.reduce(out, axis=-1, keepdims=True)
    np.true_divide(var, extent, out=var, casting="unsafe")
    inv_std = 1.0 / np.sqrt(var + epsilon)
    xhat *= inv_std
    np.multiply(gain.data, xhat, out=out)
    out += bias.data

    def bwd(g):
        dx = g * gain.data  # d loss / d xhat, then d loss / d s in place
        scratch = dx * xhat
        m2 = scratch.mean(axis=-1, keepdims=True)
        dx -= dx.mean(axis=-1, keepdims=True)
        dx -= np.multiply(xhat, m2, out=scratch)
        dx *= inv_std
        axes = tuple(range(g.ndim - 1))
        dgain = np.multiply(g, xhat, out=scratch).sum(axis=axes)
        return dx, dx, dgain, g.sum(axis=axes)

    return _from_op(out, "add_layer_norm", (x, y, gain, bias), bwd)


def attention(x: Tensor, wq: Tensor, wk: Tensor, wv: Tensor, bq: Tensor,
              bk: Tensor, bv: Tensor, attention_mask: np.ndarray, heads: int,
              rate: float, rng: Optional[np.random.Generator],
              queries: Optional[np.ndarray] = None) -> Tensor:
    """Multi-head self-attention over packed rows, as one node.

    `x` holds the [T, d] real rows of a [B, n] `attention_mask` in
    row-major order. `queries` picks the R rows that attend: packed row
    indices into `x`, in any order and possibly repeated; by default
    every row. The result is their [R, d] context in `queries` order,
    before the output projection.

    K and V come from one GEMM of all T rows against the joined [d, 2d]
    weights. A batch without padding reshapes straight into heads; with
    padding the rows are scattered into their B*n slots, where zero rows
    are hidden as keys by a -1e9 score. Q comes from a GEMM of the query
    rows only. Each query goes to cell (b, rank) of a [B, m] grid: b is
    its sequence, rank its place among that sequence's queries, and m
    the most queries of any one sequence. With every row a query, on a
    batch padded to its longest sequence, m = n and the cells are the
    slots. Scores, softmax, dropout and the weighted sum span
    [B, h, m, n]. With `rate` > 0 the probabilities are dropped out with
    one `_keep_mask` draw of that shape.
    """
    mask = np.asarray(attention_mask)
    if mask.ndim != 2 or x.data.ndim != 2:
        raise ShapeError(f"attention needs [T, d] rows and a [B, n] mask, "
                         f"got {x.shape} and {mask.shape}")
    batch, seq_len = mask.shape
    rows, width = x.shape
    real = np.flatnonzero(mask)
    if rows != real.size or width % heads:
        raise ShapeError(f"attention: {x.shape} rows for {real.size} real positions "
                         f"and {heads} heads")
    every = queries is None
    queries = np.arange(rows) if every else np.asarray(queries)
    padded = real.size != batch * seq_len
    head_size = width // heads
    dtype = x.dtype
    wkv = np.concatenate([wk.data, wv.data], axis=1)
    kv = x.data @ wkv
    kv += np.concatenate([bk.data, bv.data])
    if padded:
        slots = np.zeros((batch * seq_len, 2 * width), dtype=dtype)
        slots[real] = kv
        kv = slots
    # [2, B, h, n, head_size] views of the joined rows
    k, v = kv.reshape(batch, seq_len, 2, heads, head_size).transpose(2, 0, 3, 1, 4)

    xq = x.data if every else x.data[queries]
    q = xq @ wq.data
    q += bq.data
    cell, per_seq = _query_cells(real[queries] // seq_len, batch)
    scattered = not np.array_equal(cell, np.arange(batch * per_seq))
    if scattered:
        grid = np.zeros((batch * per_seq, width), dtype=dtype)
        grid[cell] = q
        q = grid
    q = q.reshape(batch, per_seq, heads, head_size).transpose(0, 2, 1, 3)

    scale = np.asarray(1.0 / math.sqrt(head_size), dtype)
    probs = np.matmul(q, np.swapaxes(k, -1, -2))
    probs *= scale
    if padded:
        probs += ((1.0 - mask.astype(dtype)) * np.asarray(-1e9, dtype))[:, None, None, :]
    probs -= probs.max(axis=-1, keepdims=True)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    keep = _keep_mask("attention", rate, rng, probs.shape, dtype)
    dropped = probs if keep is None else probs * keep

    context = np.matmul(dropped, v).transpose(0, 2, 1, 3).reshape(batch * per_seq, width)
    out = context[cell] if scattered else context

    def bwd(g):
        if scattered:
            full = np.zeros((batch * per_seq, width), dtype=g.dtype)
            full[cell] = g
            g = full
        g_ctx = g.reshape(batch, per_seq, heads, head_size).transpose(0, 2, 1, 3)
        g_kv = np.empty((batch, seq_len, 2, heads, head_size), dtype=g.dtype)
        g_k, g_v = g_kv.transpose(2, 0, 3, 1, 4)
        np.matmul(np.swapaxes(dropped, -1, -2), g_ctx, out=g_v)
        g_scores = np.matmul(g_ctx, np.swapaxes(v, -1, -2))
        if keep is not None:
            g_scores *= keep
        g_scores -= (g_scores * probs).sum(axis=-1, keepdims=True)  # softmax backward
        g_scores *= probs
        g_scores *= scale
        g_q = np.empty((batch, per_seq, heads, head_size), dtype=g.dtype)
        np.matmul(g_scores, k, out=g_q.transpose(0, 2, 1, 3))
        g_k[...] = np.swapaxes(np.matmul(np.swapaxes(q, -1, -2), g_scores), -1, -2)
        g_q = g_q.reshape(batch * per_seq, width)
        if scattered:
            g_q = g_q[cell]
        g_kv = g_kv.reshape(batch * seq_len, 2 * width)
        if padded:
            g_kv = g_kv[real]
        g_x = np.matmul(g_kv, wkv.T)
        g_xq = np.matmul(g_q, wq.data.T)
        g_x += g_xq if every else _scatter_rows(x.shape, queries, g_xq)
        g_wkv = np.matmul(x.data.T, g_kv)
        return (g_x, np.matmul(xq.T, g_q), g_wkv[:, :width], g_wkv[:, width:],
                g_q.sum(axis=0), *np.split(g_kv.sum(axis=0), 2))

    return _from_op(out, "attention", (x, wq, wk, wv, bq, bk, bv), bwd)


def _query_cells(seq: np.ndarray, batch: int) -> tuple[np.ndarray, int]:
    """The cell b*m + rank of each query of sequence `seq[i]`, rank counting
    that sequence's earlier queries, and m, the most queries of any one
    sequence."""
    counts = np.bincount(seq, minlength=batch)
    order = np.argsort(seq, kind="stable")
    rank = np.empty_like(seq)
    rank[order] = np.arange(seq.size) - (np.cumsum(counts) - counts)[seq[order]]
    per_seq = int(counts.max())
    return seq * per_seq + rank, per_seq


def _scatter_rows(shape: tuple, rows: np.ndarray, g: np.ndarray) -> np.ndarray:
    """`np.add.at(zeros(shape), rows, g)` for 1-D in-range `rows`, bitwise,
    but on flat element indices, which take numpy's fast path for
    `ufunc.at`. A negative row still counts from the end."""
    width = math.prod(shape[1:])
    out = np.zeros(math.prod(shape), dtype=g.dtype)
    flat = (rows.astype(np.intp, copy=False)[:, None] * width + np.arange(width)).reshape(-1)
    np.add.at(out, flat, g.reshape(-1))
    return out.reshape(shape)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup; gradient scatter-adds into the table."""
    ids = np.asarray(ids)
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(
            f"embedding ids out of range [0, {table.shape[0]}): min={ids.min()}, max={ids.max()}")
    out = table.data[ids]

    def bwd(g):
        return (_scatter_rows(table.shape, ids.reshape(-1), g),)

    return _from_op(out, "embedding", (table,), bwd)


def _keep_mask(op: str, rate: float, rng: Optional[np.random.Generator],
               shape: tuple, dtype) -> Optional[np.ndarray]:
    """Inverted-dropout multipliers of `shape`: 0 where an element is
    dropped, 1 / (1 - rate) where it is kept; None for rate 0.

    An element is kept where `rng.random() >= rate` would hold. PCG64's
    double is (raw >> 11) * 2**-53 of one raw 64-bit draw, so that is
    raw >= ceil(rate * 2**53) << 11: the mask is decided on `random_raw`
    output without a float64 conversion, and the mask and the generator
    state it leaves are bitwise those of `rng.random(shape) >= rate`. A
    rate outside [0, 1), or a positive rate without a numpy Generator on
    PCG64, is a ConfigError naming `op`.
    """
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"{op}: dropout rate {rate} outside [0, 1)")
    if rate == 0.0:
        return None
    if not (isinstance(rng, np.random.Generator)
            and isinstance(rng.bit_generator, np.random.PCG64)):
        raise ConfigError(f"{op}: dropout rate {rate} needs a numpy Generator on "
                          f"PCG64, got {rng!r}")
    threshold = np.uint64(math.ceil(rate * 2.0 ** 53) << 11)
    keep = (rng.bit_generator.random_raw(shape) >= threshold).astype(dtype)
    keep /= 1.0 - rate
    return keep


def dropout(x: Tensor, rate: float, rng: Optional[np.random.Generator]) -> Tensor:
    """Inverted dropout with `_keep_mask`'s multipliers; identity when
    rate == 0."""
    keep = _keep_mask("dropout", rate, rng, x.shape, x.dtype)
    if keep is None:
        return x

    def bwd(g):
        return (g * keep,)

    return _from_op(x.data * keep, "dropout", (x,), bwd)


def transpose(x: Tensor, axes: tuple) -> Tensor:
    out = x.data.transpose(axes)
    inverse = tuple(np.argsort(axes))

    def bwd(g):
        return (g.transpose(inverse),)

    return _from_op(out, "transpose", (x,), bwd)


def take(x: Tensor, key) -> Tensor:
    """Basic (slice/index) selection; gradient scatters into zeros, summing
    over repeated indices. An integer array `key` picks rows of `x`."""
    out = x.data[key]

    def bwd(g):
        if isinstance(key, np.ndarray) and key.dtype.kind in "iu":
            return (_scatter_rows(x.shape, key.reshape(-1), g),)
        gx = np.zeros_like(x.data)
        np.add.at(gx, key, g)
        return (gx,)

    return _from_op(out, "take", (x,), bwd)


def masked_cross_entropy(logits: Tensor, targets: np.ndarray, mask: np.ndarray,
                         reduction: str = "sum") -> Tensor:
    """Cross-entropy of `targets` under softmax(logits), gated by `mask`.

    Positions with mask 0 contribute nothing. `reduction="sum"` returns
    the plain sum over masked positions (0 for an all-zero mask);
    `"mean"` divides by the number of masked positions and treats an
    all-zero mask as a degenerate batch.
    """
    targets = np.asarray(targets)
    mask = np.asarray(mask)
    n, vocab = logits.shape[-2], logits.shape[-1]
    if logits.data.ndim != 2:
        raise ShapeError(f"masked_cross_entropy expects [n, V] logits, got {logits.shape}")
    if targets.shape != (n,) or mask.shape != (n,):
        raise ShapeError(
            f"targets/mask must have shape ({n},), got {targets.shape} and {mask.shape}")
    if n and (targets.min() < 0 or targets.max() >= vocab):
        raise ShapeError(f"target ids out of range [0, {vocab})")
    if not np.isin(mask, (0, 1)).all():
        raise ShapeError("mask entries must be 0 or 1")
    if reduction not in ("sum", "mean"):
        raise ShapeError(f"unknown reduction {reduction!r}")

    mask_count = float(mask.sum())
    if reduction == "mean" and mask_count == 0:
        raise NumericError("degenerate batch: mean-form loss over an all-zero mask")

    z = logits.data
    zmax = z.max(axis=1, keepdims=True) if n else np.zeros((0, 1), dtype=z.dtype)
    e = np.exp(z - zmax)
    e_sum = e.sum(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(e_sum[:, 0])
    log_p_target = z[np.arange(n), targets] - lse
    m = mask.astype(z.dtype)
    total = -(m * log_p_target).sum()
    scale = 1.0 if reduction == "sum" else 1.0 / mask_count
    out = np.asarray(total * scale, dtype=z.dtype)

    def bwd(g):
        probs = e / e_sum
        probs[np.arange(n), targets] -= 1.0
        return ((g * scale) * m[:, None] * probs,)

    return _from_op(out, "masked_cross_entropy", (logits,), bwd)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Backpropagate from a scalar loss through the recorded graph.

    Gradients add into the `.grad` buffers of requires_grad leaves, so a
    repeated backward without zero_grad accumulates. Each recorded node
    is visited exactly once, in reverse topological order. A loss with
    no graph (made inside `no_grad`, or from constants) is a ConfigError.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    if loss.ctx is None and not loss.requires_grad:
        raise ConfigError("backward: the loss has no recorded graph (computed "
                          "inside no_grad, or from constants only)")

    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        if node.ctx is not None:
            for parent in node.ctx.parents:
                if id(parent) not in seen:
                    stack.append((parent, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node.requires_grad:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g
        if node.ctx is None:
            continue
        parent_grads = node.ctx.backward_fn(g)
        for parent, pg in zip(node.ctx.parents, parent_grads):
            if pg is None or not (parent.requires_grad or parent.ctx is not None):
                continue
            _check_finite(pg, f"gradient of {node.ctx.op}")
            if id(parent) in grads:
                grads[id(parent)] = grads[id(parent)] + pg
            else:
                grads[id(parent)] = pg


def zero_grads(tensors) -> None:
    for t in tensors:
        t.zero_grad()
