import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from offlm import autograd as ag
from offlm.autograd import Tensor
from offlm.errors import ConfigError
from offlm.optim import _ADAM_BLOCK, AdamState, adam_step, clip_global_norm
from tensor_ops import mul, tensor_sum


def leaf(values):
    t = Tensor(np.asarray(values, dtype=np.float64), requires_grad=True)
    t.grad = np.zeros_like(t.data)
    return t


def test_first_adam_step_matches_closed_form():
    # With bias correction, step one reduces to lr * g / (|g| + eps').
    g = np.array([0.5, -2.0, 0.1])
    p = leaf([1.0, 1.0, 1.0])
    p.grad = g.copy()
    state = AdamState()
    lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
    adam_step([("p", p)], state, lr, beta1=b1, beta2=b2, epsilon=eps)

    m_hat = (1 - b1) * g / (1 - b1)
    v_hat = (1 - b2) * g * g / (1 - b2)
    expected = 1.0 - lr * m_hat / (np.sqrt(v_hat) + eps)
    np.testing.assert_allclose(p.data, expected, rtol=1e-12)


def test_three_steps_match_manual_recurrence():
    grads = [np.array([1.0, -1.0]), np.array([0.5, 0.5]), np.array([-0.2, 2.0])]
    p = leaf([0.0, 0.0])
    state = AdamState()
    lr, b1, b2, eps = 0.01, 0.9, 0.999, 1e-8

    x = np.zeros(2)
    m = np.zeros(2)
    v = np.zeros(2)
    for t, g in enumerate(grads, start=1):
        p.grad = g.copy()
        adam_step([("p", p)], state, lr, epsilon=eps)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        x = x - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        np.testing.assert_allclose(p.data, x, rtol=1e-12)
    assert state.step_count == 3


def reference_adam_step(named_params, state, lr, beta1=0.9, beta2=0.999,
                        epsilon=1e-8):
    """Adam as first written, one temporary array per operation: the
    oracle for the in-place `adam_step`."""
    state.step_count += 1
    t = state.step_count
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    for name, param in named_params:
        if param.grad is None:
            continue
        m, v = state.buffers_for(name, param.data)
        g = param.grad
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        update = (m / c1) / (np.sqrt(v / c2) + epsilon)
        param.data -= param.dtype.type(lr) * update.astype(param.dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_adam_step_is_bitwise_the_reference_formula(dtype):
    """Several steps over matrices, vectors, a parameter whose grad is
    None on some steps, and a matrix and a vector that span several
    blocks, the last one partial: parameters and moments bitwise equal
    the oracle."""
    rng = np.random.default_rng(5)
    shapes = {"w": (7, 5), "b": (5,), "idle": (3,),
              "table": (_ADAM_BLOCK // 9 + 300, 9), "long": (2 * _ADAM_BLOCK + 11,)}
    start = {name: rng.standard_normal(shape).astype(dtype)
             for name, shape in shapes.items()}

    def params():
        return [(name, Tensor(start[name].copy(), requires_grad=True)) for name in shapes]

    got, want = params(), params()
    got_state, want_state = AdamState(), AdamState()
    for step in range(6):
        for (name, a), (_, b) in zip(got, want):
            if name == "idle" and step % 3 != 2:
                a.grad = b.grad = None
            else:
                a.grad = (rng.standard_normal(shapes[name]) * 10.0 ** (step - 3)).astype(dtype)
                b.grad = a.grad.copy()
        lr = 1e-3 * (step + 1)
        adam_step(got, got_state, lr, epsilon=1e-6)
        reference_adam_step(want, want_state, lr, epsilon=1e-6)
        for (name, a), (_, b) in zip(got, want):
            assert a.data.dtype == dtype
            assert a.data.tobytes() == b.data.tobytes(), name
    for moments in ("first_moment", "second_moment"):
        for name in shapes:
            assert (getattr(got_state, moments)[name].tobytes()
                    == getattr(want_state, moments)[name].tobytes()), (moments, name)


def test_moment_buffers_keyed_by_name():
    a, b = leaf([1.0]), leaf([2.0])
    a.grad = np.array([1.0])
    b.grad = np.array([-1.0])
    state = AdamState()
    adam_step([("a", a), ("b", b)], state, 1e-3)
    assert set(state.first_moment) == {"a", "b"}
    assert set(state.second_moment) == {"a", "b"}


def test_adam_skips_params_without_grad():
    p = Tensor(np.array([1.0]), requires_grad=True)
    adam_step([("p", p)], AdamState(), 1e-3)
    np.testing.assert_array_equal(p.data, [1.0])


def test_global_grad_norm_matches_numpy():
    a = leaf(np.ones((2, 2)))
    b = leaf(np.ones(5))
    a.grad = np.full((2, 2), 3.0)
    b.grad = np.full(5, 4.0)
    expected = math.sqrt((9.0 * 4) + (16.0 * 5))
    assert abs(clip_global_norm([a, b], max_norm=1e9) - expected) < 1e-12


def test_global_grad_norm_is_bitwise_the_float64_sum_of_squares():
    rng = np.random.default_rng(8)
    tensors = []
    for shape in [(300, 7), (11,), (2, 3, 5)]:
        t = Tensor(np.zeros(shape, dtype=np.float32), requires_grad=True)
        t.grad = rng.standard_normal(shape).astype(np.float32)
        tensors.append(t)
    want = float(np.sqrt(sum(float((t.grad.astype(np.float64) ** 2).sum())
                             for t in tensors)))
    assert clip_global_norm(tensors, max_norm=1e9) == want


def test_clip_rescales_only_above_threshold():
    a = leaf([3.0, 4.0])
    a.grad = np.array([3.0, 4.0])
    norm = clip_global_norm([a], max_norm=1.0)
    np.testing.assert_allclose(norm, 5.0, rtol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(a.grad), 1.0, rtol=1e-12)

    b = leaf([0.1])
    b.grad = np.array([0.1])
    before = b.grad.copy()
    np.testing.assert_allclose(clip_global_norm([b], max_norm=1.0), 0.1, rtol=1e-12)
    np.testing.assert_array_equal(b.grad, before)


def test_clip_requires_positive_max_norm():
    with pytest.raises(ConfigError):
        clip_global_norm([], max_norm=0.0)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    max_norm=st.floats(min_value=0.01, max_value=10.0),
)
def test_clipped_norm_never_exceeds_bound(seed, max_norm):
    rng = np.random.default_rng(seed)
    tensors = []
    for shape in [(3,), (2, 2), (4, 1)]:
        t = leaf(rng.standard_normal(shape))
        t.grad = rng.standard_normal(shape) * 10
        tensors.append(t)
    clip_global_norm(tensors, max_norm)
    joint = np.linalg.norm(np.concatenate([t.grad.ravel() for t in tensors]))
    assert joint <= max_norm * (1 + 1e-9)


def test_adam_descends_a_quadratic():
    p = leaf([5.0])
    state = AdamState()
    for _ in range(400):
        p.grad = 2.0 * p.data
        adam_step([("p", p)], state, lr=0.05)
    assert abs(float(p.data[0])) < 0.05


def test_adam_descends_through_autograd_graph():
    w = Tensor(np.array([4.0, -3.0]), requires_grad=True)
    state = AdamState()
    for _ in range(300):
        ag.zero_grads([w])
        loss = tensor_sum(mul(w, w))
        ag.backward(loss)
        adam_step([("w", w)], state, lr=0.1)
    assert float(tensor_sum(mul(w, w)).data) < 1e-3
