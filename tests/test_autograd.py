import math
from decimal import Context, Decimal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from offlm import autograd as ag
from offlm.autograd import Tensor
from offlm.errors import ConfigError, NumericError, ShapeError
from tensor_ops import layer_norm, matmul, mul, reshape, softmax, tensor_sum


def fd_grad(f, x, h=1e-6):
    """Central finite differences of a scalar-valued f at array x."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    out = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = f()
        flat[i] = orig - h
        lo = f()
        flat[i] = orig
        out[i] = (hi - lo) / (2 * h)
    return g


def check_grad(build, *params, atol=1e-6, rtol=1e-5):
    """build() returns a scalar Tensor from the given leaf tensors."""
    loss = build()
    ag.backward(loss)
    for p in params:
        numeric = fd_grad(lambda: float(build().data), p.data)
        np.testing.assert_allclose(p.grad, numeric, atol=atol, rtol=rtol)


def rand_tensor(rng, shape):
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def test_tensor_wraps_data_and_tracks_grad_flag():
    t = Tensor([[1.0, 2.0]], requires_grad=True)
    assert t.shape == (1, 2)
    assert t.data.dtype == np.float64
    assert t.grad is None
    u = Tensor(np.zeros(3, dtype=np.float32))
    assert not u.requires_grad


def test_add_backward_is_ones():
    a = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    b = Tensor([4.0, 5.0, 6.0], requires_grad=True)
    ag.backward(tensor_sum(ag.add(a, b)))
    np.testing.assert_array_equal(a.grad, np.ones(3))
    np.testing.assert_array_equal(b.grad, np.ones(3))


def test_add_broadcasts_and_unbroadcasts_grad():
    rng = np.random.default_rng(0)
    a = rand_tensor(rng, (4, 3))
    b = rand_tensor(rng, (3,))
    check_grad(lambda: tensor_sum(mul(ag.add(a, b), ag.add(a, b))), a, b)
    assert b.grad.shape == (3,)


def test_mul_grad_matches_fd():
    rng = np.random.default_rng(1)
    a = rand_tensor(rng, (2, 5))
    b = rand_tensor(rng, (2, 5))
    check_grad(lambda: tensor_sum(mul(a, b)), a, b)


def test_scalar_operator_sugar():
    t = Tensor([1.0, 2.0], requires_grad=True)
    out = (2.0 * t + 1.0 - 0.5) / 2.0
    np.testing.assert_allclose(out.data, [1.25, 2.25])
    ag.backward(tensor_sum(out))
    np.testing.assert_allclose(t.grad, [1.0, 1.0])


def test_module_level_ops_require_tensors():
    t = Tensor([1.0])
    with pytest.raises(AttributeError):
        ag.add(t, 1.0)


def test_matmul_grad_matches_fd():
    rng = np.random.default_rng(2)
    a = rand_tensor(rng, (3, 4))
    b = rand_tensor(rng, (4, 2))
    check_grad(lambda: tensor_sum(matmul(a, b)), a, b)


def test_matmul_batched_grad_matches_fd():
    rng = np.random.default_rng(3)
    a = rand_tensor(rng, (2, 3, 4))
    b = rand_tensor(rng, (2, 4, 3))
    check_grad(lambda: tensor_sum(matmul(a, b)), a, b)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(4)
    x = rand_tensor(rng, (5, 7))
    out = softmax(x)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-12)


def test_softmax_is_shift_invariant():
    x = np.array([[1.0, 2.0, 3.0]])
    a = softmax(Tensor(x))
    b = softmax(Tensor(x + 1000.0))
    np.testing.assert_allclose(a.data, b.data, atol=1e-12)


def test_softmax_grad_matches_fd():
    rng = np.random.default_rng(5)
    x = rand_tensor(rng, (3, 6))
    w = Tensor(rng.standard_normal((3, 6)))
    check_grad(lambda: tensor_sum(mul(softmax(x), w)), x)


def test_gelu_against_definition():
    import math
    xs = np.array([-2.0, -0.5, 0.0, 0.5, 1.0, 3.0])
    out = ag.gelu(Tensor(xs))
    expected = np.array([x * 0.5 * (1.0 + math.erf(x / math.sqrt(2))) for x in xs])
    np.testing.assert_allclose(out.data, expected, atol=1e-12)


def test_gelu_float32_within_2_ulp_of_float64():
    rng = np.random.default_rng(14)
    xs = np.concatenate([np.linspace(-10.0, 10.0, 20001),
                         3.0 * rng.standard_normal(20000)]).astype(np.float32)
    out = ag.gelu(Tensor(xs)).data
    assert out.dtype == np.float32
    reference = ag.gelu(Tensor(xs.astype(np.float64))).data
    ulp = np.spacing(np.abs(reference).astype(np.float32))
    assert np.all(np.abs(out - reference) <= 2 * ulp)


def test_gelu_grad_matches_fd():
    rng = np.random.default_rng(6)
    x = rand_tensor(rng, (4, 4))
    check_grad(lambda: tensor_sum(ag.gelu(x)), x)


DIGITS_50 = Context(prec=50)


def oracle_gelu(x: float) -> float:
    """x * Phi(x) from math.erfc alone. The argument -x/sqrt(2) is carried
    to 50 digits and its rounding error corrected to first order: erfc
    would amplify that error by 2z^2 (3e-13 relative at x = -37)."""
    z_exact = DIGITS_50.multiply(Decimal(-x), DIGITS_50.sqrt(Decimal("0.5")))
    z = float(z_exact)
    dz = float(DIGITS_50.subtract(z_exact, Decimal(z)))
    erfc = math.erfc(z) - dz * 2.0 / math.sqrt(math.pi) * math.exp(-z * z)
    return x * 0.5 * erfc


def test_gelu_matches_erfc_oracle():
    """float64 within 1e-14 relative of the oracle over [-37, 37] (below
    that, Phi is subnormal in float64); float32 within 2 ulp of it. The
    kernel's float64 error is about 1e-15; rounding x*x in the tail's
    exp(-x*x/2) alone would cost up to 1.1e-13."""
    rng = np.random.default_rng(15)
    xs = np.concatenate([np.linspace(-37.0, 37.0, 7401),
                         np.linspace(-1.6, 1.6, 3201),
                         rng.standard_normal(2000)])
    reference = np.array([oracle_gelu(float(x)) for x in xs])
    np.testing.assert_allclose(ag.gelu(Tensor(xs)).data, reference,
                               rtol=1e-14, atol=0.0)

    xs32 = xs.astype(np.float32)
    out = ag.gelu(Tensor(xs32)).data
    reference = np.array([oracle_gelu(float(x)) for x in xs32])
    ulp = np.spacing(np.abs(reference).astype(np.float32))
    assert np.all(np.abs(out - reference) <= 2 * ulp)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_is_bitwise_independent_of_blocking(dtype):
    """Cutting the input at and around the 16,384-element block edge
    leaves every output bit as it was."""
    rng = np.random.default_rng(16)
    xs = (2.0 * rng.standard_normal(40000)).astype(dtype)
    whole = ag.gelu(Tensor(xs.reshape(8, 5000))).data.reshape(-1)
    pieces = np.split(xs, [1, 16383, 16384, 16385])
    joined = np.concatenate([ag.gelu(Tensor(p)).data for p in pieces])
    assert whole.dtype == joined.dtype == dtype
    assert whole.tobytes() == joined.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_backward_is_bitwise_the_textbook_formula(dtype):
    """g * (Phi(x) + x * phi(x)) with phi(x) = exp(-x*x/2) / sqrt(2 pi),
    one temporary per step, bitwise; the incoming gradient is left as it
    was (add_layer_norm hands one array to both summands)."""
    rng = np.random.default_rng(17)
    x = Tensor((2.0 * rng.standard_normal((30, 50))).astype(dtype), requires_grad=True)
    g = rng.standard_normal((30, 50)).astype(dtype)
    before = g.copy()
    (got,) = ag.gelu(x).ctx.backward_fn(g)
    cdf = ag._gelu_forward(x.data)[1]
    pdf = np.exp(-0.5 * x.data * x.data) * (1.0 / math.sqrt(2.0 * math.pi))
    want = g * (cdf + x.data * pdf)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert g.tobytes() == before.tobytes()


@pytest.mark.parametrize("dtype, step", [
    (np.float32, None),  # consecutive float32 values
    # consecutive float64 values are not monotone in any float64 kernel
    # (scipy's ndtr decreases 11 times within 200 ulp of -1.0): the step
    # is 2 ulp of Phi at -1.5 against several ulp of rounding. 64 ulp
    # apart, Phi rises by 1.8e-15 per step, 10x its rounding error.
    (np.float64, 2.0 ** -46),
])
@pytest.mark.parametrize("edge", [-1.5, 1.5])
def test_gelu_cdf_does_not_decrease_across_region_edge(dtype, step, edge):
    """Phi steps up, not down, where the central polynomial hands over to
    the tail formula."""
    if step is None:
        below, above = [dtype(edge)], [dtype(edge)]
        for _ in range(8):
            below.append(np.nextafter(below[-1], dtype(-np.inf)))
            above.append(np.nextafter(above[-1], dtype(np.inf)))
        xs = np.array(below[::-1] + above[1:], dtype=dtype)
    else:
        xs = edge + step * np.arange(-8, 9, dtype=dtype)
    assert np.any(np.abs(xs) < 1.5) and np.any(np.abs(xs) > 1.5)
    _, cdf = ag._gelu_forward(xs)
    assert np.all(np.diff(cdf) >= 0)


def test_tanh_grad_matches_fd():
    rng = np.random.default_rng(7)
    x = rand_tensor(rng, (10,))
    check_grad(lambda: tensor_sum(mul(ag.tanh(x), ag.tanh(x))), x)


def test_layer_norm_standardizes_rows():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((6, 16)))
    gain = Tensor(np.ones(16))
    bias = Tensor(np.zeros(16))
    out = layer_norm(x, gain, bias, epsilon=1e-12).data
    np.testing.assert_allclose(out.mean(axis=-1), np.zeros(6), atol=1e-10)
    np.testing.assert_allclose(out.std(axis=-1), np.ones(6), atol=1e-6)


def test_layer_norm_grad_matches_fd():
    rng = np.random.default_rng(9)
    x = rand_tensor(rng, (3, 8))
    gain = rand_tensor(rng, (8,))
    bias = rand_tensor(rng, (8,))
    w = Tensor(rng.standard_normal((3, 8)))
    check_grad(
        lambda: tensor_sum(mul(layer_norm(x, gain, bias, 1e-12), w)),
        x, gain, bias, atol=1e-5)


FUSED_SHAPES = {"rows": (37,), "stacked": (3, 11)}


def _bitwise_grads(build, leaves, dtype, seed):
    """The output of build() and every leaf's gradient under the loss
    sum(out * w), w fixed, as bytes."""
    out = build()
    w = Tensor(np.random.default_rng(seed).standard_normal(out.shape).astype(dtype))
    ag.zero_grads(leaves)
    ag.backward(tensor_sum(mul(out, w)))
    return [out.data.tobytes()] + [t.grad.tobytes() for t in leaves]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", sorted(FUSED_SHAPES))
def test_linear_is_bitwise_add_of_matmul(dtype, lead):
    """Values and the gradients of rows, weights and bias equal those of
    add(matmul(x, w), b), on [T, k] rows and on stacked [B, m, k] rows."""
    rng = np.random.default_rng(30)
    x, w, b = (Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
               for shape in (FUSED_SHAPES[lead] + (24,), (24, 40), (40,)))
    fused = _bitwise_grads(lambda: ag.linear(x, w, b), (x, w, b), dtype, 31)
    oracle = _bitwise_grads(lambda: ag.add(matmul(x, w), b), (x, w, b), dtype, 31)
    assert fused == oracle


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", sorted(FUSED_SHAPES))
def test_add_layer_norm_is_bitwise_layer_norm_of_add(dtype, lead):
    """Values and the gradients of both summands, gain and bias equal those
    of layer_norm(add(x, y)), on [T, d] rows and on stacked [B, m, d]."""
    rng = np.random.default_rng(32)
    shape = FUSED_SHAPES[lead] + (24,)
    x, y = (Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
            for _ in range(2))
    gain, bias = (Tensor((1.0 + 0.1 * rng.standard_normal(24)).astype(dtype),
                         requires_grad=True) for _ in range(2))
    leaves = (x, y, gain, bias)
    fused = _bitwise_grads(lambda: ag.add_layer_norm(x, y, gain, bias, 1e-12),
                           leaves, dtype, 33)
    oracle = _bitwise_grads(lambda: layer_norm(ag.add(x, y), gain, bias, 1e-12),
                            leaves, dtype, 33)
    assert fused == oracle


def test_linear_grad_matches_fd():
    rng = np.random.default_rng(34)
    x, w, b = rand_tensor(rng, (2, 3, 4)), rand_tensor(rng, (4, 5)), rand_tensor(rng, (5,))
    v = Tensor(rng.standard_normal((2, 3, 5)))
    check_grad(lambda: tensor_sum(mul(ag.linear(x, w, b), v)), x, w, b)


def test_add_layer_norm_grad_matches_fd():
    rng = np.random.default_rng(35)
    x, y = rand_tensor(rng, (3, 8)), rand_tensor(rng, (3, 8))
    gain, bias = rand_tensor(rng, (8,)), rand_tensor(rng, (8,))
    v = Tensor(rng.standard_normal((3, 8)))
    check_grad(lambda: tensor_sum(mul(ag.add_layer_norm(x, y, gain, bias, 1e-12), v)),
               x, y, gain, bias, atol=1e-5)


def test_fused_ops_reject_mismatched_shapes():
    rng = np.random.default_rng(36)
    x, w, b = rand_tensor(rng, (3, 4)), rand_tensor(rng, (4, 5)), rand_tensor(rng, (5,))
    for args in ((x, w, x), (w, w, b), (x, x, b)):
        with pytest.raises(ShapeError, match="linear"):
            ag.linear(*args)
    with pytest.raises(ShapeError, match="add_layer_norm"):
        ag.add_layer_norm(x, w, b, b, 1e-12)
    with pytest.raises(ShapeError, match="add_layer_norm"):
        ag.add_layer_norm(x, x, b, b, 1e-12)


def test_embedding_gathers_rows():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    ids = np.array([[0, 2], [3, 0]])
    out = ag.embedding(table, ids)
    np.testing.assert_array_equal(out.data[0, 1], [6.0, 7.0, 8.0])
    assert out.shape == (2, 2, 3)


def test_embedding_grad_accumulates_repeated_ids():
    table = Tensor(np.zeros((4, 2)), requires_grad=True)
    ids = np.array([0, 0, 0, 1])
    ag.backward(tensor_sum(ag.embedding(table, ids)))
    np.testing.assert_array_equal(table.grad[0], [3.0, 3.0])
    np.testing.assert_array_equal(table.grad[1], [1.0, 1.0])
    np.testing.assert_array_equal(table.grad[2], [0.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 6),
       st.lists(st.integers(0, 8), max_size=40),
       st.sampled_from([np.float32, np.float64]), st.integers(0, 2 ** 32 - 1))
def test_scatter_rows_is_bitwise_add_at(vocab, width, rows, dtype, seed):
    """Repeated, negative and zero rows, both float dtypes, a [V, d] table."""
    rows = np.array(rows, dtype=np.int64) % (2 * vocab) - vocab  # in [-V, V)
    g = np.random.default_rng(seed).standard_normal((rows.size, width)).astype(dtype)
    expected = np.zeros((vocab, width), dtype=dtype)
    np.add.at(expected, rows, g)
    got = ag._scatter_rows((vocab, width), rows, g)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def test_dropout_rate_zero_is_identity():
    rng = np.random.default_rng(10)
    x = Tensor(rng.standard_normal((5, 5)))
    out = ag.dropout(x, 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out.data, x.data)


def test_dropout_scales_survivors():
    x = Tensor(np.ones((200, 200)))
    out = ag.dropout(x, 0.25, np.random.default_rng(0)).data
    survivors = out[out != 0]
    np.testing.assert_allclose(survivors, 1.0 / 0.75)
    assert abs(out.mean() - 1.0) < 0.01


def test_dropout_deterministic_under_same_rng_seed():
    x = Tensor(np.ones((8, 8)))
    a = ag.dropout(x, 0.5, np.random.default_rng(42)).data
    b = ag.dropout(x, 0.5, np.random.default_rng(42)).data
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_keep_mask_is_bitwise_the_uniform_draw(dtype):
    """The multipliers, and the generator state after the draw, equal those
    of (rng.random(shape) >= rate).astype(dtype) / (1 - rate), over rates
    that are and are not multiples of 2**-53."""
    for rate in (2.0 ** -60, 1e-3, 0.1, 0.25, 1 / 3, 0.5, 0.9, 1.0 - 2.0 ** -53):
        got_rng, want_rng = np.random.default_rng(41), np.random.default_rng(41)
        got = ag._keep_mask("dropout", rate, got_rng, (70, 3, 50), dtype)
        want = (want_rng.random((70, 3, 50)) >= rate).astype(dtype) / (1.0 - rate)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), rate
        np.testing.assert_equal(got_rng.bit_generator.state, want_rng.bit_generator.state)
        assert got_rng.random() == want_rng.random()
    assert ag._keep_mask("dropout", 0.0, None, (2, 2), dtype) is None
    for other in (np.random.MT19937(0), np.random.Philox(0)):
        with pytest.raises(ConfigError, match="dropout.*Generator on PCG64"):
            ag._keep_mask("dropout", 0.1, np.random.Generator(other), (2,), dtype)


BAD_DROPOUT = {
    "no-generator": (0.1, None, "Generator"),
    "rate-one": (1.0, 0, r"rate 1\.0"),
    "negative-rate": (-0.5, 0, r"rate -0\.5"),
    "rate-above-one": (1.5, 0, r"rate 1\.5"),
    "nan-rate": (math.nan, 0, r"rate nan"),
}


@pytest.mark.parametrize("case", sorted(BAD_DROPOUT))
def test_dropout_and_attention_reject_bad_inputs_naming_the_op(case):
    """A rate outside [0, 1) or a missing generator is a ConfigError that
    names the op, raised before any value is drawn or scaled."""
    rate, seed, message = BAD_DROPOUT[case]
    rng = np.random.default_rng(25)
    x = rand_tensor(rng, (4, 4))
    w, b = rand_tensor(rng, (4, 4)), rand_tensor(rng, (4,))
    mask = np.array([[1, 1, 1], [1, 0, 0]])

    def generator():
        return None if seed is None else np.random.default_rng(seed)

    with pytest.raises(ConfigError, match=f"dropout.*{message}"):
        ag.dropout(x, rate, generator())
    with pytest.raises(ConfigError, match=f"attention.*{message}"):
        ag.attention(x, w, w, w, b, b, b, mask, 2, rate, generator())


def test_reshape_transpose_round_trip_grad():
    rng = np.random.default_rng(11)
    x = rand_tensor(rng, (2, 3, 4))
    check_grad(
        lambda: tensor_sum(
            mul(ag.transpose(reshape(x, (6, 4)), (1, 0)),
                   ag.transpose(reshape(x, (6, 4)), (1, 0)))),
        x)


def test_take_selects_and_scatters_grad():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    out = ag.take(x, (slice(None), 1))
    np.testing.assert_array_equal(out.data, [1.0, 5.0, 9.0])
    ag.backward(tensor_sum(out))
    expected = np.zeros((3, 4))
    expected[:, 1] = 1.0
    np.testing.assert_array_equal(x.grad, expected)


def test_take_integer_rows_grad_matches_fd():
    rng = np.random.default_rng(11)
    x = rand_tensor(rng, (6, 3))
    w = Tensor(rng.standard_normal((3, 3)))
    rows = np.array([0, 2, 5])  # sorted and distinct, as np.flatnonzero gives
    check_grad(lambda: tensor_sum(mul(ag.take(x, rows), w)), x)


def test_take_repeated_rows_accumulate_grad():
    x = Tensor(np.ones((3, 2)), requires_grad=True)
    ag.backward(tensor_sum(ag.take(x, np.array([1, 1]))))
    np.testing.assert_array_equal(x.grad, [[0.0, 0.0], [2.0, 2.0], [0.0, 0.0]])
    rng = np.random.default_rng(12)
    y = rand_tensor(rng, (4, 3))
    w = Tensor(rng.standard_normal((5, 3)))
    rows = np.array([2, 0, 2, 3, 2])
    check_grad(lambda: tensor_sum(mul(ag.take(y, rows), w)), y)


THREE_SEQUENCES = np.array([[1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 1, 0]])
# unsorted, row 7 twice and no row of the middle sequence, both under
# THREE_SEQUENCES and under a [3, 3] mask without padding: m = 2
SOME_ROWS = np.array([7, 2, 0, 7])

ATTENTION_CASES = {  # mask, dropout rate, queries
    "padded": (np.array([[1, 1, 1, 1], [1, 1, 0, 0]]), 0.0, None),
    "unpadded": (np.ones((2, 3), dtype=np.int64), 0.0, None),
    "dropout": (np.array([[1, 1, 1, 1], [1, 1, 1, 0]]), 0.3, None),
    "queries-padded": (THREE_SEQUENCES, 0.0, SOME_ROWS),
    "queries-unpadded": (np.ones((3, 3), dtype=np.int64), 0.0, SOME_ROWS),
    "queries-dropout": (THREE_SEQUENCES, 0.3, SOME_ROWS),
}


@pytest.mark.parametrize("case", sorted(ATTENTION_CASES))
def test_attention_grad_matches_fd(case):
    """Every input's gradient, with the key bias active (padding), on the
    reshape-only path (no padding), with dropout under a fixed mask, and
    for a subset of query rows."""
    mask, rate, queries = ATTENTION_CASES[case]
    rng = np.random.default_rng(14)
    rows, width = int(mask.sum()), 6
    x = rand_tensor(rng, (rows, width))
    weights = [Tensor(0.5 * rng.standard_normal((width, width)), requires_grad=True)
               for _ in range(3)]
    biases = [rand_tensor(rng, (width,)) for _ in range(3)]
    w = Tensor(rng.standard_normal((rows if queries is None else queries.size, width)))

    def build(rate=rate):  # a fresh generator per evaluation keeps the mask fixed
        out = ag.attention(x, *weights, *biases, mask, 2, rate, np.random.default_rng(5),
                           queries)
        return tensor_sum(mul(out, w))

    if rate:
        assert build().data != build(0.0).data
    check_grad(build, x, *weights, *biases)


def test_attention_lists_each_input_once():
    mask = np.array([[1, 1, 1], [1, 1, 0]])
    rng = np.random.default_rng(15)
    x = rand_tensor(rng, (5, 4))
    inputs = [rand_tensor(rng, (4, 4)) for _ in range(3)] + [
        rand_tensor(rng, (4,)) for _ in range(3)]
    out = ag.attention(x, *inputs, mask, 2, 0.0, None)
    assert [id(p) for p in out.ctx.parents] == [id(t) for t in (x, *inputs)]


def test_tensor_sum_axis_semantics():
    x = Tensor(np.ones((2, 3)))
    assert tensor_sum(x).data == 6.0
    np.testing.assert_array_equal(tensor_sum(x, axis=0).data, [2.0, 2.0, 2.0])


def test_masked_cross_entropy_uniform_logits():
    v = 11
    logits = Tensor(np.zeros((4, v)))
    targets = np.array([0, 3, 7, 10])
    mask = np.array([1, 1, 0, 1])
    out = ag.masked_cross_entropy(logits, targets, mask, reduction="sum")
    np.testing.assert_allclose(out.data, 3 * np.log(v), atol=1e-12)


def test_masked_cross_entropy_mean_divides_by_count():
    rng = np.random.default_rng(12)
    logits = Tensor(rng.standard_normal((6, 5)))
    targets = rng.integers(5, size=6)
    mask = np.array([1, 0, 1, 1, 0, 1])
    s = ag.masked_cross_entropy(logits, targets, mask, reduction="sum").data
    m = ag.masked_cross_entropy(logits, targets, mask, reduction="mean").data
    np.testing.assert_allclose(m, s / 4.0, atol=1e-12)


def test_masked_cross_entropy_zero_mask():
    logits = Tensor(np.zeros((3, 4)))
    targets = np.zeros(3, dtype=int)
    zero = np.zeros(3, dtype=int)
    assert ag.masked_cross_entropy(logits, targets, zero).data == 0.0
    with pytest.raises(NumericError):
        ag.masked_cross_entropy(logits, targets, zero, reduction="mean")


def test_masked_cross_entropy_grad_is_gated_softmax_minus_onehot():
    rng = np.random.default_rng(13)
    z = rng.standard_normal((5, 7))
    logits = Tensor(z.copy(), requires_grad=True)
    targets = rng.integers(7, size=5)
    mask = np.array([1, 1, 0, 1, 0])
    ag.backward(ag.masked_cross_entropy(logits, targets, mask))
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    probs[np.arange(5), targets] -= 1.0
    probs *= mask[:, None]
    np.testing.assert_allclose(logits.grad, probs, atol=1e-12)


def test_masked_cross_entropy_grad_matches_recomputed_softmax():
    """The backward reuses the forward's exponentials; it must agree with
    recomputing the softmax from the logits."""
    rng = np.random.default_rng(15)
    z = 2.0 * rng.standard_normal((9, 31))
    targets = rng.integers(31, size=9)
    mask = np.array([1, 0, 1, 1, 1, 0, 1, 1, 0])
    logits = Tensor(z.copy(), requires_grad=True)
    ag.backward(ag.masked_cross_entropy(logits, targets, mask, reduction="mean"))
    zmax = z.max(axis=1, keepdims=True)
    probs = np.exp(z - zmax - np.log(np.exp(z - zmax).sum(axis=1, keepdims=True)))
    probs[np.arange(9), targets] -= 1.0
    np.testing.assert_allclose(logits.grad, probs * mask[:, None] / mask.sum(),
                               rtol=1e-12)


def test_masked_cross_entropy_validates_shapes():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        ag.masked_cross_entropy(logits, np.array([0]), np.array([1, 1]))
    with pytest.raises(ShapeError):
        ag.masked_cross_entropy(logits, np.array([0, 5]), np.array([1, 1]))
    with pytest.raises(ShapeError):
        ag.masked_cross_entropy(logits, np.array([0, 0]), np.array([1, 2]))


def test_backward_accumulates_through_shared_subgraph():
    x = Tensor([3.0], requires_grad=True)
    y = mul(x, x)
    ag.backward(tensor_sum(ag.add(y, y)))
    np.testing.assert_allclose(x.grad, [12.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ShapeError):
        ag.backward(ag.add(x, x))


def test_backward_refuses_a_loss_with_no_graph():
    """A loss made inside no_grad, or from constants only, would update
    nothing; backward says so instead of returning."""
    x = Tensor([1.0, 2.0], requires_grad=True)
    with ag.no_grad():
        loss = tensor_sum(mul(x, x))
    with pytest.raises(ConfigError, match="no_grad"):
        ag.backward(loss)
    assert x.grad is None
    with pytest.raises(ConfigError, match="no_grad"):
        ag.backward(tensor_sum(Tensor([1.0, 2.0])))
    leaf = Tensor([3.0], requires_grad=True)  # a leaf is its own graph
    ag.backward(leaf)
    np.testing.assert_array_equal(leaf.grad, [1.0])


def _one_of_each_op(x, w, b):
    """One result of every op, on [6, 4] packed rows `x` of a [2, 4] mask."""
    mask = np.array([[1, 1, 1, 1], [1, 1, 0, 0]])
    return [ag.add(x, b), ag.linear(x, w, b), ag.gelu(x), ag.tanh(x),
            ag.add_layer_norm(x, x, w[0], b, 1e-12),
            ag.attention(x, w, w, w, b, b, b, mask, 2, 0.0, None),
            ag.attention(x, w, w, w, b, b, b, mask, 2, 0.5, np.random.default_rng(1),
                         queries=np.array([4, 0])),
            ag.embedding(w, np.array([3, 0, 3])),
            ag.dropout(x, 0.5, np.random.default_rng(0)),
            ag.transpose(x, (1, 0)), ag.take(x, np.array([5, 0])), ag.take(x, (slice(1, 3), 2)),
            ag.masked_cross_entropy(x, np.array([0, 1, 2, 3, 0, 1]), np.ones(6, dtype=int)),
            mul(x, w[0]), reshape(x, (4, 6)), matmul(x, w), layer_norm(x, w[0], b, 1e-12),
            softmax(x), tensor_sum(x)]


def test_no_grad_records_no_graph_and_keeps_every_value():
    rng = np.random.default_rng(5)
    x, w, b = rand_tensor(rng, (6, 4)), rand_tensor(rng, (4, 4)), rand_tensor(rng, (4,))
    recorded = _one_of_each_op(x, w, b)
    with ag.no_grad():
        quiet = _one_of_each_op(x, w, b)
    for loud, silent in zip(recorded, quiet):
        assert loud.ctx is not None and silent.ctx is None, loud.ctx.op
        assert loud.data.tobytes() == silent.data.tobytes(), loud.ctx.op
    with pytest.raises(ConfigError):
        ag.backward(quiet[-1])
    assert x.grad is None and w.grad is None and b.grad is None


def test_no_grad_nests_and_restores_after_an_exception():
    x = Tensor([1.0], requires_grad=True)

    def records() -> bool:
        return ag.add(x, x).ctx is not None

    with ag.no_grad():
        with ag.no_grad():
            assert not records()
        assert not records()
        with pytest.raises(ShapeError), ag.no_grad():
            ag.linear(x, x, x)  # 1-d operands
        assert not records()
    assert records()
    with pytest.raises(ShapeError), ag.no_grad():
        ag.linear(x, x, x)
    assert records()


def test_zero_grads_clears():
    x = Tensor([1.0], requires_grad=True)
    ag.backward(tensor_sum(mul(x, x)))
    assert x.grad is not None
    ag.zero_grads([x])
    assert x.grad is None


def test_deep_chain_does_not_recurse():
    x = Tensor([1.0], requires_grad=True)
    y = x
    for _ in range(3000):
        y = y + 1.0
    ag.backward(tensor_sum(y))
    np.testing.assert_allclose(x.grad, [1.0])


def test_nonfinite_forward_raises():
    x = Tensor([1e308])
    with np.errstate(over="ignore"), pytest.raises(NumericError):
        mul(x, x)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_finite_check_reads_strided_views(bad):
    """A non-finite value in a strided view raises; the skipped elements
    of the base array are not read."""
    base = np.zeros((4, 6), dtype=np.float32)
    base[:, 1::2] = np.inf  # every skipped column
    view = base[:, ::2]
    ag._check_finite(view, "view")
    view[2, 1] = bad
    with pytest.raises(NumericError, match="non-finite values in view"):
        ag._check_finite(view, "view")


def test_finite_check_accepts_empty_and_checks_zero_d():
    ag._check_finite(np.zeros((0, 3), dtype=np.float32), "empty")
    ag._check_finite(np.array(1.5), "scalar")
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericError):
            ag._check_finite(np.array(bad), "scalar")


@settings(max_examples=40, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5),
    cols=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_broadcast_grad_shapes_match_leaves(rows, cols, seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((rows, cols)), requires_grad=True)
    b = Tensor(rng.standard_normal((cols,)), requires_grad=True)
    c = Tensor(rng.standard_normal((rows, 1)), requires_grad=True)
    ag.backward(tensor_sum(mul(ag.add(a, b), c)))
    assert a.grad.shape == a.shape
    assert b.grad.shape == b.shape
    assert c.grad.shape == c.shape
    np.testing.assert_allclose(b.grad, (np.ones((rows, cols)) * c.data).sum(axis=0))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_softmax_then_ce_matches_manual_logsumexp(seed):
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((4, 6)) * 5
    targets = rng.integers(6, size=4)
    mask = np.ones(4, dtype=int)
    loss = ag.masked_cross_entropy(Tensor(z), targets, mask).data
    lse = np.log(np.exp(z - z.max(1, keepdims=True)).sum(1)) + z.max(1)
    manual = (lse - z[np.arange(4), targets]).sum()
    np.testing.assert_allclose(loss, manual, atol=1e-10)
