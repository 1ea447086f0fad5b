import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad, trapezoid

from uqeval.distributions import (
    Gaussian,
    GaussianMixture,
    VARIANCE_FLOOR,
    logsumexp,
    moment_match,
    ndtr,
)


def test_gaussian_log_density_known_values() -> None:
    std = Gaussian(0.0, 1.0)
    assert std.log_density(0.0) == pytest.approx(-0.5 * math.log(2 * math.pi))
    g = Gaussian(1.0, 4.0)
    assert g.log_density(3.0) == pytest.approx(-0.5 * math.log(8 * math.pi) - 0.5)
    assert g.log_density(3.0) == pytest.approx(-2.1121, abs=5e-5)


def test_gaussian_log_density_broadcasts() -> None:
    g = Gaussian(np.array([0.0, 1.0]), np.array([1.0, 4.0]))
    out = g.log_density(np.array([0.0, 3.0]))
    assert out.shape == (2,)
    assert out[0] == pytest.approx(-0.5 * math.log(2 * math.pi))
    assert out[1] == pytest.approx(-0.5 * math.log(8 * math.pi) - 0.5)


def test_gaussian_cdf_known_values() -> None:
    std = Gaussian(0.0, 1.0)
    assert std.cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    assert std.cdf(1.959964) == pytest.approx(0.975, abs=1e-6)
    assert std.cdf(-8.0) == pytest.approx(0.0, abs=1e-14)
    assert std.cdf(8.0) == pytest.approx(1.0, abs=1e-14)


def test_cdf_matches_quadrature_to_1e7() -> None:
    g = Gaussian(0.3, 2.5)
    for y in [-2.0, 0.0, 0.3, 1.7, 4.0]:
        ref, err = quad(lambda t: math.exp(g.log_density(t)), 0.3 - 60.0, y, limit=400)
        assert err < 1e-8
        assert g.cdf(y) == pytest.approx(ref, abs=1e-7)


def test_cdf_monotone_and_consistent_with_density() -> None:
    mix = GaussianMixture(
        np.array([0.3, 0.7]),
        (Gaussian(-1.0, 0.5), Gaussian(2.0, 1.5)),
    )
    for dist, center, sd in [
        (Gaussian(0.7, 2.0), 0.7, math.sqrt(2.0)),
        (mix, float(mix.mean), math.sqrt(float(mix.variance))),
    ]:
        ys = np.linspace(center - 6 * sd, center + 6 * sd, 2001)
        cdf = np.asarray(dist.cdf(ys))
        assert np.all(np.diff(cdf) >= 0)
        h = ys[1] - ys[0]
        derivative = (cdf[2:] - cdf[:-2]) / (2 * h)
        density = np.exp(np.asarray(dist.log_density(ys[1:-1])))
        assert np.max(np.abs(derivative - density)) < 1e-4


def test_density_integrates_to_one() -> None:
    g = Gaussian(-0.4, 0.8)
    total, err = quad(lambda t: math.exp(g.log_density(t)), -0.4 - 40, -0.4 + 40, limit=400)
    assert total == pytest.approx(1.0, abs=1e-6)
    mix = GaussianMixture(np.array([0.5, 0.5]), (Gaussian(-3.0, 0.04), Gaussian(3.0, 0.04)))
    total, err = quad(lambda t: math.exp(mix.log_density(t)), -40, 40, limit=800, points=[-3, 3])
    assert total == pytest.approx(1.0, abs=1e-6)


def test_variance_floor_applies() -> None:
    g = Gaussian(0.0, 0.0)
    assert g.variance == VARIANCE_FLOOR
    assert math.isfinite(g.log_density(0.0))
    arr = Gaussian(np.zeros(3), np.array([0.0, 1e-15, 1.0]))
    assert np.all(np.asarray(arr.variance) >= VARIANCE_FLOOR)


def test_non_finite_parameters_rejected() -> None:
    with pytest.raises(ValueError):
        Gaussian(np.nan, 1.0)
    with pytest.raises(ValueError):
        Gaussian(0.0, np.inf)


def test_mixture_weight_validation() -> None:
    comps = (Gaussian(0.0, 1.0), Gaussian(1.0, 1.0))
    with pytest.raises(ValueError):
        GaussianMixture(np.array([0.5, 0.6]), comps)
    with pytest.raises(ValueError):
        GaussianMixture(np.array([-0.1, 1.1]), comps)
    with pytest.raises(ValueError):
        GaussianMixture(np.array([0.5]), comps)


def test_mixture_moments_hand_cases() -> None:
    mix = GaussianMixture(np.array([0.5, 0.5]), (Gaussian(0.0, 1.0), Gaussian(2.0, 1.0)))
    assert mix.mean == pytest.approx(1.0)
    assert mix.variance == pytest.approx(2.0)
    mix = GaussianMixture(np.array([0.5, 0.5]), (Gaussian(-1.0, 0.25), Gaussian(1.0, 0.25)))
    assert mix.mean == pytest.approx(0.0)
    assert mix.variance == pytest.approx(1.25)


def test_moment_match_preserves_mean_and_variance() -> None:
    mix = GaussianMixture(
        np.array([0.2, 0.3, 0.5]),
        (Gaussian(-1.0, 0.3), Gaussian(0.5, 1.2), Gaussian(4.0, 0.7)),
    )
    g = moment_match(mix)
    assert isinstance(g, Gaussian)
    assert g.mean == pytest.approx(mix.mean)
    assert g.variance == pytest.approx(mix.variance)


def grid_moments(dist, lo: float, hi: float) -> tuple[float, float]:
    """Mean and variance of exp(log_density), integrated on a fine grid."""
    y = np.linspace(lo, hi, 400_001)
    p = np.exp(dist.log_density(y))
    mean = trapezoid(y * p, y)
    return mean, trapezoid((y - mean) ** 2 * p, y)


def test_moment_match_agrees_with_integrated_density() -> None:
    mix = GaussianMixture(
        np.array([0.25, 0.75]),
        (Gaussian(-2.0, 0.5), Gaussian(1.0, 2.0)),
    )
    mean, var = grid_moments(mix, -20.0, 20.0)
    g = moment_match(mix)
    assert g.mean == pytest.approx(mean, rel=1e-9, abs=1e-9)
    assert g.variance == pytest.approx(var, rel=1e-9)


def test_mixture_log_density_matches_direct_sum() -> None:
    mix = GaussianMixture(np.array([0.4, 0.6]), (Gaussian(0.0, 1.0), Gaussian(1.0, 0.5)))
    y = 0.7
    direct = math.log(
        0.4 * math.exp(Gaussian(0.0, 1.0).log_density(y))
        + 0.6 * math.exp(Gaussian(1.0, 0.5).log_density(y))
    )
    assert mix.log_density(y) == pytest.approx(direct, rel=1e-12)


def test_mixture_log_density_stable_with_distant_components() -> None:
    mix = GaussianMixture(np.array([0.5, 0.5]), (Gaussian(0.0, 1.0), Gaussian(1e4, 1.0)))
    val = mix.log_density(0.0)
    # far component underflows; result is log(0.5) + standard normal log density
    assert math.isfinite(val)
    assert val == pytest.approx(math.log(0.5) - 0.5 * math.log(2 * math.pi), rel=1e-12)


def test_mixture_of_identical_components_equals_single_gaussian() -> None:
    g = Gaussian(0.3, 0.8)
    mix = GaussianMixture(np.array([0.5, 0.5]), (g, g))
    ys = np.linspace(-3, 3, 11)
    assert np.allclose(mix.log_density(ys), g.log_density(ys), rtol=1e-12)
    assert np.allclose(mix.cdf(ys), g.cdf(ys), rtol=1e-12)


@pytest.mark.parametrize("y", [np.linspace(-3.0, 3.0, 11), 0.7], ids=["array", "scalar"])
def test_one_component_mixture_log_density_is_bit_identical_to_its_gaussian(y) -> None:
    g = Gaussian(0.3, 0.8)
    got = GaussianMixture(np.array([1.0]), (g,)).log_density(y)
    want = g.log_density(y)
    assert type(got) is type(want)
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def test_mixture_cdf_weighted_sum_and_symmetry() -> None:
    mix = GaussianMixture(np.array([0.5, 0.5]), (Gaussian(-1.0, 0.25), Gaussian(1.0, 0.25)))
    assert mix.cdf(0.0) == pytest.approx(0.5, abs=1e-12)
    direct = 0.5 * Gaussian(-1.0, 0.25).cdf(0.7) + 0.5 * Gaussian(1.0, 0.25).cdf(0.7)
    assert mix.cdf(0.7) == pytest.approx(direct, rel=1e-12)


def test_gaussian_density_moments_are_its_parameters() -> None:
    mean, var = grid_moments(Gaussian(0.0, 1.0), -12.0, 12.0)
    assert mean == pytest.approx(0.0, abs=1e-12)
    assert var == pytest.approx(1.0, rel=1e-9)


def test_mixture_cdf_between_separated_components_is_lower_weight() -> None:
    w = np.array([0.3, 0.7])
    mix = GaussianMixture(w, (Gaussian(0.0, 1.0), Gaussian(100.0, 1.0)))
    assert mix.cdf(50.0) == pytest.approx(0.3, abs=1e-15)


def test_elementwise_shape_follows_parameters() -> None:
    g = Gaussian(np.array([0.0, 10.0, -10.0]), np.array([1e-6, 1e-6, 1e-6]))
    assert g.cdf(0.0).shape == (3,)
    assert np.allclose(g.cdf(0.0), [0.5, 0.0, 1.0])
    assert g.log_density(np.array([0.0, 10.0, -10.0])).shape == (3,)
    mix = GaussianMixture(np.array([0.5, 0.5]), (g, Gaussian(0.0, 1.0)))
    assert mix.cdf(0.0).shape == (3,)
    assert np.asarray(mix.log_density(0.0)).shape == (3,)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(-20, 20),
    st.floats(1e-6, 50),
    st.floats(-25, 25),
)
def test_log_density_never_exceeds_mode(mean, var, y) -> None:
    g = Gaussian(mean, var)
    assert g.log_density(y) <= g.log_density(mean) + 1e-12


# ------------------------------------------- ndtr and logsumexp against scipy

def same_bits(got, want) -> bool:
    """Equal values, shapes and types, bit for bit (signed zeros, infinities)."""
    return (type(got) is type(want) and np.shape(got) == np.shape(want)
            and np.asarray(got).tobytes() == np.asarray(want).tobytes())


def quiet_ndtr(a):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return ndtr(a)


# |a| at Cephes' branch points, with x = a / sqrt(2): erf below 1, erfc(|x|)
# from |x| = 1/sqrt(2) (|a| = 1), its exp(-x^2) tail from |x| = 1 (|a| =
# sqrt 2), the second tail polynomial from |x| = 8, and 0 once x^2 > MAXLOG
NDTR_BRANCH_POINTS = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0),
                      math.sqrt(2.0 * 7.09782712893383996843e2)]


def test_ndtr_is_bit_identical_to_scipy_over_the_full_range() -> None:
    magnitudes = np.logspace(-320, 300, 20_001)
    a = np.concatenate([np.linspace(-40.0, 40.0, 400_001), magnitudes, -magnitudes,
                        np.random.default_rng(0).standard_normal(100_000)])
    assert same_bits(quiet_ndtr(a), special.ndtr(a))


def test_ndtr_is_bit_identical_to_scipy_at_branch_boundaries() -> None:
    edges = [0.0, 5e-324, 1e-310, np.finfo(float).tiny, 1e300, np.inf, *NDTR_BRANCH_POINTS]
    values = []
    for edge in edges:
        for v in (edge, -edge):
            values += [v, np.nextafter(v, -np.inf), np.nextafter(v, np.inf)]
    a = np.array(values)
    assert same_bits(quiet_ndtr(a), special.ndtr(a))
    for v in values:  # a 0-d input gives a numpy scalar, as scipy's does
        assert same_bits(quiet_ndtr(v), special.ndtr(v))
        assert same_bits(quiet_ndtr(np.array(v)), special.ndtr(np.array(v)))


@pytest.mark.parametrize("shape", [(0,), (1,), (8191,), (8193,), (3, 4097), (2, 3, 5)])
def test_ndtr_keeps_its_bits_across_blocks_and_shapes(shape) -> None:
    a = np.random.default_rng(1).standard_normal(shape) * 10.0
    assert same_bits(quiet_ndtr(a), special.ndtr(a))


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False))
def test_ndtr_equals_scipy_on_any_float(a) -> None:
    assert same_bits(quiet_ndtr(a), special.ndtr(a))


def scipy_logsumexp(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return special.logsumexp(a, axis=0, b=b)


def mixture_terms(k: int, shape: tuple, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """K log terms of the given trailing shape and weights of shape (K, 1, ...)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(0.0, 5.0, (k, *shape))
    b = rng.dirichlet(np.ones(k)).reshape((k,) + (1,) * len(shape))
    return a, b


@pytest.mark.parametrize("k", [1, 2, 3, 5])
@pytest.mark.parametrize("shape", [(), (7,), (40, 33)], ids=["0-d", "vector", "grid"])
def test_logsumexp_is_bit_identical_to_scipy(k, shape) -> None:
    a, b = mixture_terms(k, shape, seed=k)
    cases = [a]
    if k > 1:
        tied = a.copy()
        tied[k - 1] = tied[0]  # two maximal terms wherever the first is largest
        far = a.copy()
        far[1:] -= 1e4 * np.arange(1, k).reshape((k - 1,) + (1,) * len(shape))
        cases += [tied, np.round(a), far]
    for terms in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = logsumexp(terms, b)
        assert same_bits(got, scipy_logsumexp(terms, b))


@pytest.mark.parametrize("k", [2, 3, 5])
def test_logsumexp_with_a_zero_weight_is_bit_identical_to_scipy(k) -> None:
    a, b = mixture_terms(k, (50,), seed=10 + k)
    b[0] = 0.0
    b /= b.sum()
    a[0] += 100.0  # the zero-weight term is the largest, and must not count
    assert same_bits(logsumexp(a, b), scipy_logsumexp(a, b))


def test_logsumexp_over_a_density_grid_block_is_bit_identical_to_scipy() -> None:
    # the (K, ny, step) layout of density_grid_csv, with ties and underflow
    k, ny, step = 2, 48, 21
    a, b = mixture_terms(k, (ny, step), seed=3)
    a[1, ::3] = a[0, ::3]
    a[:, 5] = -np.inf  # every component underflows on this row
    a[0, 7] = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logsumexp(a, b)
    assert got.shape == (ny, step)
    assert np.all(got[5] == -np.inf)
    assert same_bits(got, scipy_logsumexp(a, b))


@pytest.mark.parametrize("k", [1, 2, 3])
def test_logsumexp_of_an_all_underflow_column_is_minus_inf(k) -> None:
    # log1p(s/m) + log(m) + max is nan there; the direct log(sum b exp(a)) is -inf
    a, b = mixture_terms(k, (4,), seed=20 + k)
    a[:, 2] = -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = logsumexp(a, b)
    assert got[2] == -np.inf and np.all(np.isfinite(got[[0, 1, 3]]))
    assert same_bits(got, scipy_logsumexp(a, b))
    column = logsumexp(a[:, 2], b[:, 0])
    assert same_bits(column, np.float64(-np.inf))


# ----------------------------------------------------------------- mixture weights

MIXTURE_WEIGHTS = (0.7, 0.2, 0.1)  # dividing these by their sum would move their last bits


def test_rebuilt_mixture_keeps_the_weights_bits() -> None:
    weights = np.array(MIXTURE_WEIGHTS)
    full = GaussianMixture(weights, (Gaussian(np.zeros(4), np.ones(4)),) * 3)
    rebuilt = GaussianMixture(full.weights, full.components)
    assert same_bits(full.weights, weights)
    assert same_bits(rebuilt.weights, weights)
    assert not full.weights.flags.writeable and not rebuilt.weights.flags.writeable
    assert weights.flags.writeable  # the caller's array is copied, not frozen
