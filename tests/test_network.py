import math
import tracemalloc

import numpy as np
import pytest

from uqeval.distributions import Gaussian
from uqeval.network import (
    FORWARD_CHUNK_ROWS as C,
    AdamConfig,
    AdamState,
    LAYER_SIZES,
    MlpParams,
    VARIANCE_SHIFT,
    _forward_hidden,
    adam_step,
    forward,
    gaussian_nll_terms,
    init_params,
    loss_and_grads,
    variance_from_raw,
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
    bad = [a.copy() for a in params.arrays()]
    bad[0] = bad[0][:, :10]
    with pytest.raises(ValueError):
        MlpParams.from_arrays(bad)


def test_forward_returns_gaussian_with_shifted_variance() -> None:
    params = init_params(make_rng(3))
    dist = forward(params, np.linspace(-1, 1, 32))
    assert isinstance(dist, Gaussian)
    assert np.asarray(dist.mean).shape == (32,)
    assert np.all(np.asarray(dist.variance) > VARIANCE_SHIFT / 2)
    scalar = forward(params, 0.25)
    vector = forward(params, np.array([0.25]))
    assert isinstance(scalar.mean, float)
    assert scalar.mean == pytest.approx(np.asarray(vector.mean)[0], rel=1e-15)
    assert scalar.variance == pytest.approx(np.asarray(vector.variance)[0], rel=1e-15)


@pytest.mark.parametrize("seed", [3, 11])
def test_chunked_forward_is_bit_identical_to_single_batch(seed) -> None:
    # 1953/1954 straddle the OpenBLAS small-matrix cut of the 256->2 layer;
    # the C-adjacent sizes and 4C+1 (a 1-row remainder, which would run as
    # a matrix-vector product on its own) fail for a short-tail layout
    params = init_params(make_rng(seed))
    for n in (1, 2, 1953, 1954, C - 1, C, C + 1, 2 * C - 1, 2 * C, 3 * C + 7, 4 * C + 1):
        x = make_rng(seed + n).uniform(-1.0, 1.0, size=n)
        ref, _ = _forward_hidden(params, x)
        dist = forward(params, x)
        assert np.array_equal(np.asarray(dist.mean).view(np.uint64), ref[:, 0].view(np.uint64)), n
        assert np.array_equal(
            np.asarray(dist.variance).view(np.uint64),
            variance_from_raw(ref[:, 1]).view(np.uint64),
        ), n


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


def test_backprop_matches_finite_differences() -> None:
    rng = np.random.default_rng(7)
    params = init_params(make_rng(7))
    x = rng.uniform(-1, 1, size=8)
    y = rng.normal(size=8)
    _, grads = loss_and_grads(params, x, y)
    h = 1e-5
    arrays = params.arrays()
    grad_arrays = grads.arrays()
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


def test_adam_first_step_magnitude() -> None:
    cfg = AdamConfig()
    state = AdamState.zeros_like([np.array([0.0])])
    new, state = adam_step([np.array([0.0])], [np.array([1.0])], state, cfg)
    assert abs(new[0][0] + cfg.learning_rate) < 1e-8
    assert state.step == 1


def test_adam_zero_gradient_keeps_parameters() -> None:
    cfg = AdamConfig()
    arr = [np.array([1.5, -2.0])]
    state = AdamState.zeros_like(arr)
    new, _ = adam_step(arr, [np.zeros(2)], state, cfg)
    assert np.array_equal(new[0], arr[0])


def test_adam_is_deterministic() -> None:
    cfg = AdamConfig()
    arr = [np.array([0.3]), np.array([[1.0, 2.0]])]
    grads = [np.array([0.1]), np.array([[0.2, -0.3]])]
    s0 = AdamState.zeros_like(arr)
    a1, s1 = adam_step(arr, grads, s0, cfg)
    b1, t1 = adam_step(arr, grads, AdamState.zeros_like(arr), cfg)
    assert all(np.array_equal(x, y) for x, y in zip(a1, b1))
    a2, _ = adam_step(a1, grads, s1, cfg)
    b2, _ = adam_step(b1, grads, t1, cfg)
    assert all(np.array_equal(x, y) for x, y in zip(a2, b2))
