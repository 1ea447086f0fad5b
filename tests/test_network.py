import math
import tracemalloc

import numpy as np
import pytest

from uqeval import network
from uqeval.distributions import Gaussian
from uqeval.network import (
    FORWARD_BLOCK_ROWS as F,
    FORWARD_CHUNK_ROWS as C,
    AdamState,
    LAYER_SIZES,
    LEARNING_RATE,
    MlpParams,
    VARIANCE_SHIFT,
    _forward_hidden,
    _hidden_layers,
    _sigmoid,
    adam_step,
    forward,
    gaussian_nll_terms,
    init_params,
    loss_and_grads,
    variance_from_raw,
    work_buffers,
)
from uqeval.seeds import make_rng


def test_init_shapes_and_range() -> None:
    params = init_params(make_rng(0))
    for w, b, fan_in, fan_out in zip(
        params.weights, params.biases, LAYER_SIZES[:-1], LAYER_SIZES[1:]
    ):
        a = 1.0 / math.sqrt(fan_in)
        assert w.shape == (fan_in, fan_out)
        assert b.shape == (fan_out,)
        assert np.abs(w).max() <= a and np.abs(b).max() <= a


def test_init_is_seeded() -> None:
    a = init_params(make_rng(1))
    b = init_params(make_rng(1))
    c = init_params(make_rng(2))
    assert all(np.array_equal(x, y) for x, y in zip(a.arrays(), b.arrays()))
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_parameter_shape_validation() -> None:
    params = init_params(make_rng(0))
    weights = [w.copy() for w in params.weights]
    weights[0] = weights[0][:, :10]
    with pytest.raises(ValueError):
        MlpParams(weights, [b.copy() for b in params.biases])


def test_forward_returns_gaussian_with_shifted_variance() -> None:
    params = init_params(make_rng(3))
    dist = forward(params, np.linspace(-1, 1, 32))
    assert isinstance(dist, Gaussian)
    assert np.asarray(dist.mean).shape == (32,)
    assert np.all(np.asarray(dist.variance) > VARIANCE_SHIFT / 2)
    one = forward(params, np.array([0.25]))
    assert one.mean.shape == one.variance.shape == (1,)
    out, _ = _forward_hidden(params, np.array([0.25]))
    assert one.mean.tobytes() == out[:, 0].tobytes()


def test_block_and_chunk_sizes() -> None:
    # the smallest power of two above the 1953-row cut; a scoring chunk
    # that is not the whole input runs as forward blocks of at least F rows
    assert F == 2048 and 1953 < F <= C


@pytest.mark.parametrize("seed", [3, 11])
def test_chunked_forward_is_bit_identical_to_single_batch(seed) -> None:
    # 1953/1954 straddle the OpenBLAS small-matrix cut of the 256->2 layer;
    # the F-adjacent sizes and 4F+1 (a 1-row remainder, which would run as
    # a matrix-vector product on its own) fail for a short-tail layout;
    # 6143 runs as blocks of F and 2F-1 rows, and the C-adjacent sizes are
    # scoring chunks.  A call on shared work buffers, left dirty by another
    # member, matches too
    params, other = init_params(make_rng(seed)), init_params(make_rng(seed + 1))
    sizes = (1, 2, 1953, 1954, F - 1, F, F + 1, 2 * F - 1, 3 * F - 1, 4 * F - 1,
             3 * F + 7, 4 * F + 1, C - 1, C, C + 1, 2 * C - 1, 2 * C, 3 * C + 7, 4 * C + 1)
    for n in sizes:
        x = make_rng(seed + n).uniform(-1.0, 1.0, size=n)
        ref, _ = _forward_hidden(params, x)
        bufs = work_buffers(n)
        forward(other, x, bufs)
        for dist in (forward(params, x), forward(params, x, bufs)):
            assert np.array_equal(dist.mean.view(np.uint64), ref[:, 0].view(np.uint64)), n
            assert np.array_equal(
                dist.variance.view(np.uint64), variance_from_raw(ref[:, 1]).view(np.uint64)
            ), n


@pytest.mark.parametrize("n", [128, C])
def test_input_layer_is_bit_identical_to_matmul(n) -> None:
    # the 1-wide input layer runs as an elementwise product; the reference
    # is the K=1 matmul, on a training batch and on a scoring chunk
    params = init_params(make_rng(8))
    x = make_rng(n).uniform(-1.0, 1.0, size=(n, 1))
    x[:3, 0] = 0.0, -0.0, 1.0
    ref = x @ params.weights[0]
    ref += params.biases[0]
    np.maximum(ref, 0.0, out=ref)
    bufs = [np.full((n, LAYER_SIZES[1]), np.nan) for _ in range(2)]
    for got in (next(_hidden_layers(params, x)), next(_hidden_layers(params, x, bufs))):
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))


def test_work_buffers_hold_under_two_forward_blocks() -> None:
    big = work_buffers(2**16)
    assert [b.shape for b in big] == [(F, LAYER_SIZES[1])] * 2
    assert all(b.dtype == np.float64 for b in big)
    # the widest block: the whole input below 2F rows, else F plus the remainder
    for n, rows in ((1, 1), (F - 1, F - 1), (2 * F - 1, 2 * F - 1), (2 * F, F),
                    (3 * F - 1, 2 * F - 1), (C + 1, F + 1), (2**20 + F - 1, 2 * F - 1)):
        assert [b.shape for b in work_buffers(n)] == [(rows, LAYER_SIZES[1])] * 2, n
    assert max(len(work_buffers(n)[0]) for n in range(1, 6 * F)) == 2 * F - 1


def _forward_peak_bytes(params: MlpParams, n: int) -> int:
    x = np.linspace(-1.0, 1.0, n)
    tracemalloc.start()
    try:
        forward(params, x)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_memory_is_bounded_in_rows() -> None:
    params = init_params(make_rng(5))
    small = _forward_peak_bytes(params, C)
    big = _forward_peak_bytes(params, 32 * C)
    assert big < 32 * C * 256 * 8  # one full-size hidden activation
    # two work buffers of F rows, plus 40 bytes a row for the (N, 2) output
    # and the variance (32 bytes measured): 4096-row buffers do not fit
    assert big < 2 * F * 256 * 8 + 40 * 32 * C
    # beyond the (N, 2) output and the variance, nothing grows with N
    assert big - small < 32 * (32 * C - C)


def test_loss_equals_negative_log_density() -> None:
    mean = np.array([0.3, -1.0])
    raw = np.array([0.2, -0.7])
    y = np.array([0.5, -0.4])
    loss, _, _ = gaussian_nll_terms(mean, raw, y)
    dist = Gaussian(mean, variance_from_raw(raw))
    assert np.allclose(loss, -np.asarray(dist.log_density(y)), rtol=1e-12)


def test_mean_gradient_hand_value() -> None:
    # variance 1 => raw = softplus^-1(1 - shift); gradient wrt mean is -(y-mean)/var
    raw = math.log(math.expm1(1.0 - VARIANCE_SHIFT))
    _, dmean, _ = gaussian_nll_terms(np.array([0.0]), np.array([raw]), np.array([1.0]))
    assert dmean[0] == pytest.approx(-1.0, rel=1e-9)


def test_nll_term_gradients_match_finite_differences() -> None:
    rng = np.random.default_rng(0)
    h = 1e-6
    for _ in range(10):
        mean, raw, y = rng.normal(size=3)
        _, dmean, draw = gaussian_nll_terms(np.array([mean]), np.array([raw]), np.array([y]))

        def value(m, r):
            return gaussian_nll_terms(np.array([m]), np.array([r]), np.array([y]))[0][0]

        fd_mean = (value(mean + h, raw) - value(mean - h, raw)) / (2 * h)
        fd_raw = (value(mean, raw + h) - value(mean, raw - h)) / (2 * h)
        assert dmean[0] == pytest.approx(fd_mean, rel=1e-5, abs=1e-8)
        assert draw[0] == pytest.approx(fd_raw, rel=1e-5, abs=1e-8)


def test_sigmoid_is_bit_identical_to_scipy_expit() -> None:
    from scipy.special import expit

    rng = np.random.default_rng(20)
    scales = [1e-8, 1e-4, 0.1, 1.0, 10.0, 37.0, 100.0, 800.0]
    edges = [1e308, 709.8, 745.3, 0.0, 710.0, 36.8, 1e-300, 5e-324, np.inf]
    x = np.concatenate([s * rng.standard_normal(20_000) for s in scales]
                       + [np.array(edges), -np.array(edges)])
    assert np.array_equal(_sigmoid(x).view(np.int64), expit(x).view(np.int64))
    assert _sigmoid(np.array([])).shape == (0,)


def test_backprop_matches_finite_differences() -> None:
    rng = np.random.default_rng(7)
    params = init_params(make_rng(7))
    x = rng.uniform(-1, 1, size=8)
    y = rng.normal(size=8)
    _, grad_arrays = loss_and_grads(params, x, y)
    h = 1e-5
    arrays = params.arrays()
    for _ in range(8):
        layer = int(rng.integers(len(arrays)))
        flat = int(rng.integers(arrays[layer].size))
        orig = arrays[layer].flat[flat]
        arrays[layer].flat[flat] = orig + h
        up, _ = loss_and_grads(params, x, y)
        arrays[layer].flat[flat] = orig - h
        down, _ = loss_and_grads(params, x, y)
        arrays[layer].flat[flat] = orig
        fd = (up - down) / (2 * h)
        analytic = grad_arrays[layer].flat[flat]
        denom = max(abs(analytic), abs(fd), 1e-8)
        assert abs(analytic - fd) / denom < 1e-4


ADAM_CONSTANTS = ("LEARNING_RATE", "BETA1", "BETA2", "EPS")


def allocating_adam_step(arrays, grads, state, config):
    """The allocating update the in-place `adam_step` replaced, kept as its reference.

    `config` is (learning rate, beta1, beta2, eps).
    """
    lr, beta1, beta2, eps = config
    t = state.step + 1
    new_arrays, new_m, new_v = [], [], []
    for a, g, m, v in zip(arrays, grads, state.m, state.v):
        m = beta1 * m + (1.0 - beta1) * g
        v = beta2 * v + (1.0 - beta2) * g * g
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        new_arrays.append(a - lr * m_hat / (np.sqrt(v_hat) + eps))
        new_m.append(m)
        new_v.append(v)
    return new_arrays, AdamState(step=t, m=new_m, v=new_v)


@pytest.mark.parametrize(
    "config",
    [tuple(getattr(network, name) for name in ADAM_CONSTANTS), (0.01, 0.8, 0.99, 1e-6)],
)
def test_in_place_adam_is_bit_identical_to_allocating_adam(monkeypatch, config) -> None:
    for name, value in zip(ADAM_CONSTANTS, config):
        monkeypatch.setattr(network, name, value)
    rng = np.random.default_rng(4)
    arrays = init_params(make_rng(4)).arrays()
    ref = [a.copy() for a in arrays]
    state = AdamState.zeros_like(arrays)
    ref_state = AdamState.zeros_like(ref)
    for _ in range(50):
        # gradients over several decades, some exactly zero
        grads = [rng.normal(size=a.shape) * 10.0 ** rng.integers(-8, 3, size=a.shape)
                 * (rng.random(a.shape) > 0.05) for a in arrays]
        kept = [g.copy() for g in grads]
        adam_step(arrays, grads, state)
        ref, ref_state = allocating_adam_step(ref, grads, ref_state, config)
        assert all(g.tobytes() == k.tobytes() for g, k in zip(grads, kept))  # grads are read only
    assert state.step == ref_state.step == 50
    for got, want in zip(arrays + state.m + state.v, ref + ref_state.m + ref_state.v):
        assert got.tobytes() == want.tobytes()


def test_adam_first_step_magnitude() -> None:
    arr = [np.array([0.0])]
    state = AdamState.zeros_like(arr)
    adam_step(arr, [np.array([1.0])], state)
    assert abs(arr[0][0] + LEARNING_RATE) < 1e-8
    assert state.step == 1


def test_adam_zero_gradient_keeps_parameters() -> None:
    arr = [np.array([1.5, -2.0])]
    state = AdamState.zeros_like(arr)
    adam_step(arr, [np.zeros(2)], state)
    assert np.array_equal(arr[0], [1.5, -2.0])


def test_adam_is_deterministic() -> None:
    grads = [np.array([0.1]), np.array([[0.2, -0.3]])]
    runs = []
    for _ in range(2):
        arr = [np.array([0.3]), np.array([[1.0, 2.0]])]
        state = AdamState.zeros_like(arr)
        adam_step(arr, grads, state)
        first = [a.copy() for a in arr]
        adam_step(arr, grads, state)
        runs.append((first, arr))
    (a1, a2), (b1, b2) = runs
    assert all(np.array_equal(x, y) for x, y in zip(a1, b1))
    assert all(np.array_equal(x, y) for x, y in zip(a2, b2))
