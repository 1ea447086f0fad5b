import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from uqeval.metrics import (
    CURVE_BLOCK_ROWS,
    EvalConfig,
    EvaluationRecords,
    MetricReport,
    RankTieMode,
    UndefinedMetricError,
    WeightMode,
    _removal_order,
    _stable_order,
    ause,
    calibration_error,
    evaluate,
    nll,
    rank,
    sparsification_curve,
    spearman,
)
from uqeval.seeds import TAG_TIEBREAK, derive_seed, make_rng


def records_from(abs_errors, uncertainties) -> EvaluationRecords:
    e = np.asarray(abs_errors, dtype=np.float64)
    u = np.asarray(uncertainties, dtype=np.float64)
    n = len(e)
    return EvaluationRecords(
        abs_errors=e,
        uncertainties=u,
        log_densities=np.zeros(n),
        pits=np.full(n, 0.5),
    )


# ----------------------------------------------------------------- records

def test_records_validation() -> None:
    with pytest.raises(ValueError):
        records_from([-1.0], [1.0])
    with pytest.raises(ValueError):
        records_from([np.nan], [1.0])
    with pytest.raises(ValueError):
        EvaluationRecords(np.zeros(2), np.zeros(2), np.zeros(2), np.array([0.5, 1.5]))
    with pytest.raises(ValueError):
        EvaluationRecords(np.zeros(1), np.zeros(2), np.zeros(2), np.zeros(2))


def test_records_leave_the_callers_arrays_writable() -> None:
    fields = [np.ones(3), np.ones(3), np.zeros(3), np.full(3, 0.5)]
    rec = EvaluationRecords(*fields)
    stored = [rec.abs_errors, rec.uncertainties, rec.log_densities, rec.pits]
    for given_array, kept in zip(fields, stored):
        assert given_array.flags.writeable
        assert np.shares_memory(given_array, kept)  # no copy
        with pytest.raises(ValueError, match="read-only"):
            kept[0] = 0.0


def test_records_take_selects_rows() -> None:
    rec = records_from([1.0, 2.0, 3.0], [4.0, 5.0, 6.0])
    sub = rec.take(np.array([2, 0]))
    assert np.array_equal(sub.abs_errors, [3.0, 1.0])
    assert np.array_equal(sub.uncertainties, [6.0, 4.0])
    assert len(sub) == 2


def test_empty_records_raise() -> None:
    empty = records_from([], [])
    with pytest.raises(ValueError):
        nll(empty)
    with pytest.raises(ValueError):
        sparsification_curve(empty)
    with pytest.raises(ValueError):
        ause(empty)


# ----------------------------------------------------------------- sparsification

def test_sparsification_hand_enumerated_case() -> None:
    rec = records_from([4.0, 3.0, 2.0, 1.0], [1.0, 2.0, 3.0, 4.0])
    curve = sparsification_curve(rec)
    assert np.allclose(curve.fractions, [0.0, 0.25, 0.5, 0.75])
    assert np.allclose(curve.by_uncertainty, [1.0, 1.2, 1.4, 1.6])
    assert np.allclose(curve.by_oracle, [1.0, 0.8, 0.6, 0.4])
    assert ause(rec) == pytest.approx(0.6)


def test_perfectly_ranked_uncertainty_gives_zero_ause() -> None:
    e = np.array([0.1, 0.7, 0.3, 2.0, 1.1])
    rec = records_from(e, e * 3.0)  # any strictly increasing transform
    curve = sparsification_curve(rec)
    assert np.allclose(curve.by_uncertainty, curve.by_oracle)
    assert ause(rec) == pytest.approx(0.0, abs=1e-15)


def test_curves_start_at_one_and_oracle_is_lower_envelope() -> None:
    rng = np.random.default_rng(0)
    rec = records_from(rng.exponential(size=200), rng.uniform(size=200))
    curve = sparsification_curve(rec)
    assert curve.by_uncertainty[0] == pytest.approx(1.0)
    assert curve.by_oracle[0] == pytest.approx(1.0)
    assert np.all(np.diff(curve.by_oracle) <= 1e-12)
    assert np.all(curve.by_oracle <= curve.by_uncertainty + 1e-12)


def test_all_zero_errors_give_zero_ause() -> None:
    rec = records_from([0.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    assert ause(rec) == pytest.approx(0.0)


def test_tie_shuffle_is_seeded() -> None:
    rng = np.random.default_rng(3)
    rec = records_from(rng.exponential(size=64), np.ones(64))
    a = sparsification_curve(rec, tie_seed=0)
    b = sparsification_curve(rec, tie_seed=0)
    c = sparsification_curve(rec, tie_seed=1)
    assert np.array_equal(a.by_uncertainty, b.by_uncertainty)
    assert not np.array_equal(a.by_uncertainty, c.by_uncertainty)
    # oracle ordering ignores uncertainty ties entirely
    assert np.array_equal(a.by_oracle, c.by_oracle)


def brute_force_curves(errors, uncertainties, tie_breaker):
    """Literal reading: at fraction j/N drop the floor(j/N * N) worst-ranked samples."""
    n = len(errors)
    by_u, by_e = [], []
    mae_all = sum(errors) / n
    for j in range(n):
        k = math.floor(j / n * n)
        keep_u = sorted(range(n), key=lambda i: (-uncertainties[i], tie_breaker[i]))[k:]
        keep_e = sorted(range(n), key=lambda i: (-errors[i], tie_breaker[i]))[k:]
        by_u.append(sum(errors[i] for i in keep_u) / len(keep_u) / mae_all)
        by_e.append(sum(errors[i] for i in keep_e) / len(keep_e) / mae_all)
    return by_u, by_e


def test_matches_brute_force_on_distinct_uncertainties() -> None:
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 11))
        e = rng.exponential(size=n)
        u = rng.permutation(n).astype(float)  # distinct, arbitrary order
        rec = records_from(e, u)
        curve = sparsification_curve(rec)
        by_u, by_e = brute_force_curves(list(e), list(u), [0] * n)
        assert np.allclose(curve.by_uncertainty, by_u, atol=1e-12)
        assert np.allclose(curve.by_oracle, by_e, atol=1e-12)


def test_matches_brute_force_with_ties_small_n() -> None:
    # Tied uncertainties are resolved by the seeded shuffle: sample i ranks
    # by its position in the tie-break permutation.
    rng = np.random.default_rng(8)
    for _ in range(80):
        n = int(rng.integers(1, 11))
        e = rng.exponential(size=n)
        u = rng.integers(0, 3, size=n).astype(float)
        tie_seed = int(rng.integers(0, 1000))
        perm = make_rng(derive_seed(tie_seed, TAG_TIEBREAK)).permutation(n)
        curve = sparsification_curve(records_from(e, u), tie_seed)
        by_u, by_e = brute_force_curves(list(e), list(u), list(np.argsort(perm)))
        assert np.allclose(curve.by_uncertainty, by_u, atol=1e-12)
        assert np.allclose(curve.by_oracle, by_e, atol=1e-12)


# ------------------------------------------- bit identity with the two-sort code

def reference_curves(records, tie_seed):
    """Sparsification curves from two stable argsorts of the shuffled fields."""
    n = len(records)
    perm = make_rng(derive_seed(tie_seed, TAG_TIEBREAK)).permutation(n)
    errors = records.abs_errors[perm]
    uncertainties = records.uncertainties[perm]
    removed = np.floor(np.arange(n) / n * n).astype(np.int64)
    total = float(errors.sum())
    curves = []
    for order in (np.argsort(-uncertainties, kind="stable"), np.argsort(-errors, kind="stable")):
        if total == 0.0:
            curves.append(np.ones(n))
            continue
        prefix = np.concatenate([[0.0], np.cumsum(errors[order])])
        curves.append((total - prefix[removed]) / (n - removed) / (total / n))
    return curves


def reference_rank(values, tie_mode):
    """Ranks from `searchsorted` counts of the values below and through each value."""
    ordered = np.sort(values)
    below = np.searchsorted(ordered, values, side="left")
    if tie_mode is RankTieMode.PAPER:
        return below + 1
    through = np.searchsorted(ordered, values, side="right")
    return (below + through + 1) / 2.0


def reference_spearman(u, e, tie_mode):
    ru = reference_rank(u, tie_mode).astype(np.float64)
    re = reference_rank(e, tie_mode).astype(np.float64)
    du = ru - ru.mean()
    de = re - re.mean()
    denom = np.sqrt(np.sum(du * du) * np.sum(de * de))
    if denom == 0.0:
        return None
    return float(np.clip(np.sum(du * de) / denom, -1.0, 1.0))


def assert_bit_identical(e, u, tie_seeds=(0, 7)) -> None:
    rec = records_from(e, u)
    for tie_seed in tie_seeds:
        curve = sparsification_curve(rec, tie_seed)
        ref_u, ref_e = reference_curves(rec, tie_seed)
        assert curve.by_uncertainty.tobytes() == ref_u.tobytes()
        assert curve.by_oracle.tobytes() == ref_e.tobytes()
        assert curve.fractions.tobytes() == (np.arange(len(e)) / len(e)).tobytes()
        assert np.float64(ause(rec, tie_seed)).tobytes() == np.mean(ref_u - ref_e).tobytes()
    for mode in RankTieMode:
        for values in (e, u):
            ours, ref = rank(values, mode), reference_rank(values, mode)
            assert ours.dtype == ref.dtype and ours.tobytes() == ref.tobytes()
        if len(e) >= 2:
            ref = reference_spearman(u, e, mode)
            if ref is None:
                with pytest.raises(UndefinedMetricError):
                    spearman(u, e, mode)
            else:
                assert np.float64(spearman(u, e, mode)).tobytes() == np.float64(ref).tobytes()


FIELD_KINDS = {
    "random": lambda rng, n: rng.exponential(size=n),
    "constant": lambda rng, n: np.full(n, 0.37),
    "small-integer": lambda rng, n: rng.integers(0, 4, size=n).astype(float),
    "all-zero": lambda rng, n: np.zeros(n),
}


@pytest.mark.parametrize("n", [1, 2, 3, 8, 49, 4097, 65536])
@pytest.mark.parametrize("error_kind", sorted(FIELD_KINDS))
@pytest.mark.parametrize("uncertainty_kind", sorted(FIELD_KINDS))
def test_sort_once_metrics_bit_identical_to_two_sort_reference(
    n, error_kind, uncertainty_kind
) -> None:
    rng = np.random.default_rng(n)
    e = FIELD_KINDS[error_kind](rng, n)
    u = FIELD_KINDS[uncertainty_kind](rng, n)
    assert_bit_identical(e, u)


def test_total_is_summed_in_tie_break_order() -> None:
    # For these heavy-tailed errors the shuffled sum differs in its last bits
    # from the sums in ascending, descending, uncertainty and input order, so
    # a total taken in any of those orders changes both curves.
    n = 4097
    perm = make_rng(derive_seed(0, TAG_TIEBREAK)).permutation(n)
    differs = set()
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        e = rng.lognormal(sigma=3.0, size=n)
        u = rng.uniform(size=n)
        total = e[perm].sum()
        other_orders = {
            "ascending": np.sort(e),
            "descending": np.sort(e)[::-1],
            "uncertainty": e[perm][np.argsort(-u[perm], kind="stable")],
            "input": e,
        }
        differs |= {name for name, x in other_orders.items() if x.sum() != total}
        assert_bit_identical(e, u, tie_seeds=(0,))
    assert differs == {"ascending", "descending", "uncertainty", "input"}


@st.composite
def tie_heavy_fields(draw, min_size=1):
    n = draw(st.integers(min_size, 60))
    values = st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]), min_size=n, max_size=n)
    return np.array(draw(values)), np.array(draw(values))


@settings(max_examples=200, deadline=None)
@given(tie_heavy_fields(), st.integers(0, 2**32))
def test_tie_heavy_fields_bit_identical_to_two_sort_reference(fields, tie_seed) -> None:
    e, u = fields
    assert_bit_identical(e, u, tie_seeds=(tie_seed,))


# ------------------------------------------------------------- stable order

@pytest.mark.parametrize("values", [
    np.array([0.3, -1.0, 2.5, 0.0, 7.0]),  # all distinct: one run per value
    np.full(9, 0.37),  # one tie run: the identity
    np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0]),  # +0.0 and -0.0 are equal values
    np.array([4.2]),
], ids=["distinct", "all-equal", "signed-zeros", "n1"])
def test_stable_order_equals_stable_argsort(values) -> None:
    assert np.array_equal(_stable_order(values), np.argsort(values, kind="stable"))


@settings(max_examples=200, deadline=None)
@given(tie_heavy_fields())
def test_stable_order_equals_stable_argsort_with_ties(fields) -> None:
    for values in fields:
        assert np.array_equal(_stable_order(-values), np.argsort(-values, kind="stable"))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 300), st.integers(1, 3000), st.integers(0, 2**32))
def test_removal_order_equals_stable_argsort_of_the_shuffle(n, distinct, seed) -> None:
    # many distinct values tie a few rows or none (the argsort reversed),
    # few tie most rows (every row sorted again), one ties all (the shuffle)
    rng = np.random.default_rng(seed)
    values = rng.integers(0, distinct, size=n) * 0.5
    shuffle = rng.permutation(n)
    expected = shuffle[np.argsort(-values[shuffle], kind="stable")]
    assert np.array_equal(_removal_order(values, np.argsort(values), shuffle), expected)


# ------------------------------------------------------------- memory bounds

def peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n", [2**14, 2**18])
@pytest.mark.parametrize("uncertainty_kind", ["random", "small-integer", "constant"])
def test_metric_memory_is_four_arrays_plus_one_block(n, uncertainty_kind) -> None:
    # Four float64 arrays of n values (the curve's three results among
    # them), an n-byte tie mask and eight float64 temporaries of one block.
    rng = np.random.default_rng(n)
    e = rng.exponential(size=n)
    u = FIELD_KINDS[uncertainty_kind](rng, n)
    rec = records_from(e, u)
    peaks = {
        "sparsification_curve": peak_bytes(lambda: sparsification_curve(rec)),
        "ause": peak_bytes(lambda: ause(rec)),
    }
    if uncertainty_kind != "constant":
        for mode in RankTieMode:
            peaks[f"spearman-{mode.value}"] = peak_bytes(lambda: spearman(u, e, mode))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # constant uncertainties
        for mode in RankTieMode:
            config = EvalConfig(rank_tie_mode=mode)
            peaks[f"evaluate-{mode.value}"] = peak_bytes(lambda: evaluate(rec, config))
    assert max(peaks.values()) <= 4 * 8 * n + n + 8 * 8 * CURVE_BLOCK_ROWS, peaks


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.001, 100.0), min_size=2, max_size=5))
def test_ause_nonnegative_for_every_ordering(errors) -> None:
    e = np.array(errors)
    n = len(e)
    for perm in itertools.permutations(range(n)):
        u = np.empty(n)
        u[list(perm)] = np.arange(n, dtype=float)  # distinct uncertainties
        assert ause(records_from(e, u)) >= -1e-12


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(0.001, 100.0), min_size=2, max_size=30))
def test_ause_invariant_under_monotone_uncertainty_transform(errors) -> None:
    rng = np.random.default_rng(1)
    e = np.array(errors)
    u = rng.permutation(len(e)).astype(float)
    rec = records_from(e, u)
    rec_t = records_from(e, np.exp(u / 10.0))  # strictly increasing transform
    assert ause(rec) == pytest.approx(ause(rec_t), abs=1e-12)


# ----------------------------------------------------------------- calibration

def test_calibration_error_counts_pit_equal_to_threshold() -> None:
    pits = np.array([0.1, 0.2, 0.9])
    uniform = WeightMode.UNIFORM
    # M = 6 gives the levels 0, 0.2, ..., 1; the PIT 0.2 is covered at the
    # level 0.2: observed coverage 2/3 there, not 1/3
    gaps = np.array([0.0, 0.2 - 2 / 3, 0.4 - 2 / 3, 0.6 - 2 / 3, 0.8 - 2 / 3, 0.0])
    cfg = EvalConfig(thresholds=6, weight_mode=uniform)
    assert calibration_error(pits, cfg) == pytest.approx(np.sum(gaps**2) / 6)
    cfg = EvalConfig(thresholds=6, weight_mode=WeightMode.PAPER)
    weights = np.array([0.0, 2 / 9, 2 / 9, 2 / 9, 2 / 9, 1 / 3])
    assert calibration_error(pits, cfg) == pytest.approx(np.sum(weights * gaps**2))
    # a PIT of 0 is covered at the level 0; every PIT is covered at 1
    cfg = EvalConfig(thresholds=2, weight_mode=uniform)
    assert calibration_error(pits, cfg) == 0.0
    assert calibration_error(np.array([0.0, 0.5, 1.0]), cfg) == pytest.approx((1 / 3) ** 2 / 2)
    with pytest.raises(ValueError):
        calibration_error(np.array([]), cfg)


def test_calibration_error_rejects_nan_pits() -> None:
    for pits in ([np.nan, 0.5], [0.5, np.nan]):
        with pytest.raises(ValueError, match=r"pits must lie in \[0, 1\] and not be nan"):
            calibration_error(np.array(pits))


def test_calibration_error_rejects_pits_outside_the_unit_interval() -> None:
    for pits in ([1.5, -0.5], [0.5, 1.0 + 2**-52], [-5e-324, 0.5], [np.inf]):
        with pytest.raises(ValueError, match=r"pits must lie in \[0, 1\]"):
            calibration_error(np.array(pits))


def test_calibration_error_rejects_pits_that_are_not_1d() -> None:
    for pits in (np.array([[0.1, 0.2]]), np.array(0.5)):
        with pytest.raises(ValueError, match="pits must be 1-D"):
            calibration_error(pits)


def test_calibration_error_hand_case() -> None:
    pits = np.array([0.1, 0.2, 0.9])
    # M = 3: levels 0, 0.5, 1 with observed coverage 0, 2/3, 1; only the
    # level 0.5 is off, by 1/6, and its paper weight is (2/3)/3 = 2/9
    cfg = EvalConfig(thresholds=3, weight_mode=WeightMode.PAPER)
    assert calibration_error(pits, cfg) == pytest.approx(2.0 / 9.0 / 36.0)
    cfg = EvalConfig(thresholds=3, weight_mode=WeightMode.UNIFORM)
    assert calibration_error(pits, cfg) == pytest.approx(1.0 / 36.0 / 3.0)


def test_calibration_error_zero_for_exact_coverage() -> None:
    pits = np.array([0.25, 0.5, 0.75, 1.0])
    cfg = EvalConfig(thresholds=5)  # levels 0, 0.25, 0.5, 0.75, 1
    assert calibration_error(pits, cfg) == 0.0


@pytest.mark.parametrize("mode", list(WeightMode))
@pytest.mark.parametrize("m", [2, 7, 100])
def test_calibration_error_levels_are_m_evenly_spaced_points(m, mode) -> None:
    pits = np.random.default_rng(m).uniform(size=257)
    levels = np.linspace(0, 1, m)
    observed = np.array([np.mean(pits <= level) for level in levels])
    weights = observed / len(pits) if mode is WeightMode.PAPER else np.full(m, 1.0 / m)
    expected = float(np.sum(weights * (levels - observed) ** 2))
    assert calibration_error(pits, EvalConfig(m, mode)) == expected
    assert EvalConfig().thresholds == 100


@pytest.mark.parametrize("thresholds", [1, 0, True, 2.0, np.linspace(0, 1, 5)],
                         ids=["one", "zero", "bool", "float", "array"])
def test_threshold_validation(thresholds) -> None:
    with pytest.raises(ValueError, match="thresholds must be an int count of at least 2"):
        EvalConfig(thresholds=thresholds)


def test_calibrated_pits_score_lower_than_miscalibrated() -> None:
    rng = np.random.default_rng(5)
    pits = rng.uniform(size=2**14)
    squeezed = scipy.stats.norm.cdf(scipy.stats.norm.ppf(pits) / 2.0)
    for mode in WeightMode:
        cfg = EvalConfig(weight_mode=mode)
        assert calibration_error(pits, cfg) < calibration_error(squeezed, cfg)
    assert calibration_error(pits, EvalConfig()) < 1e-6


# ----------------------------------------------------------------- rank / spearman

def test_rank_tie_modes() -> None:
    assert np.array_equal(rank(np.array([5.0, 5.0, 7.0])), [1, 1, 3])
    assert np.array_equal(
        rank(np.array([5.0, 5.0, 7.0]), RankTieMode.AVERAGE), [1.5, 1.5, 3.0]
    )
    assert np.array_equal(rank(np.array([30.0, 10.0, 20.0])), [3, 1, 2])
    with pytest.raises(ValueError):
        rank(np.array([]))


def test_rank_rejects_nan() -> None:
    with pytest.raises(ValueError, match="nan"):
        rank(np.array([1.0, np.nan, 0.0]))
    with pytest.raises(ValueError, match="nan"):
        spearman(np.array([1.0, np.nan, 0.0]), np.arange(3.0))


finite_values = st.lists(
    st.one_of(st.integers(-3, 3).map(float), st.floats(-1e6, 1e6, width=64)),
    min_size=1,
    max_size=80,
)


@settings(max_examples=200, deadline=None)
@given(finite_values)
def test_rank_matches_scipy_rankdata(values) -> None:
    x = np.array(values)
    assert np.array_equal(rank(x, RankTieMode.PAPER), scipy.stats.rankdata(x, method="min"))
    assert np.array_equal(
        rank(x, RankTieMode.AVERAGE), scipy.stats.rankdata(x, method="average")
    )


@settings(max_examples=200, deadline=None)
@given(tie_heavy_fields(min_size=2))
def test_average_spearman_matches_scipy_spearmanr(fields) -> None:
    e, u = fields
    if len(set(u)) < 2 or len(set(e)) < 2:
        with pytest.raises(UndefinedMetricError):
            spearman(u, e, RankTieMode.AVERAGE)
        return
    ref = scipy.stats.spearmanr(u, e).statistic
    assert spearman(u, e, RankTieMode.AVERAGE) == pytest.approx(ref, abs=1e-12)


def test_spearman_identities() -> None:
    u = np.array([1.0, 2.0, 3.0, 4.0])
    assert spearman(u, u**3) == pytest.approx(1.0)
    assert spearman(u, -u) == pytest.approx(-1.0)
    assert spearman(np.array([1.0, 2.0, 3.0]), np.array([3.0, 1.0, 2.0])) == pytest.approx(-0.5)


def test_spearman_symmetry_and_negation() -> None:
    rng = np.random.default_rng(2)
    u = rng.uniform(size=50)
    e = rng.uniform(size=50)
    assert spearman(u, e) == pytest.approx(spearman(e, u))
    assert spearman(u, -e) == pytest.approx(-spearman(u, e))


def test_spearman_errors() -> None:
    with pytest.raises(UndefinedMetricError):
        spearman(np.array([1.0]), np.array([1.0]))
    with pytest.raises(UndefinedMetricError):
        spearman(np.ones(5), np.arange(5.0))
    with pytest.raises(ValueError):
        spearman(np.arange(3.0), np.arange(4.0))


def test_average_tie_mode_matches_reference_implementation() -> None:
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.integers(0, 8, size=40).astype(float)  # plenty of ties
        e = rng.integers(0, 8, size=40).astype(float)
        if len(set(u)) < 2 or len(set(e)) < 2:
            continue
        ours = spearman(u, e, RankTieMode.AVERAGE)
        ref = scipy.stats.spearmanr(u, e).statistic
        assert ours == pytest.approx(ref, abs=1e-12)


def test_spearman_invariant_under_monotone_transforms() -> None:
    rng = np.random.default_rng(4)
    u = rng.uniform(size=30)
    e = rng.uniform(size=30)
    assert spearman(np.exp(u), e) == pytest.approx(spearman(u, e), abs=1e-12)


# ----------------------------------------------------------------- nll / evaluate

def test_nll_is_mean_negative_log_density() -> None:
    rec = EvaluationRecords(
        abs_errors=np.zeros(2),
        uncertainties=np.ones(2),
        log_densities=np.array([-1.0, -2.0]),
        pits=np.full(2, 0.5),
    )
    assert nll(rec) == pytest.approx(1.5)


def assert_evaluate_matches_single_metrics(rec, config) -> None:
    """evaluate's report is, bit for bit, what the four single metrics give."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        report = evaluate(rec, config)
    try:
        rho = spearman(rec.uncertainties, rec.abs_errors, config.rank_tie_mode)
    except UndefinedMetricError as exc:
        assert [str(w.message) for w in caught] == [f"spearman undefined ({exc}); recording nan"]
        assert math.isnan(report.spearman)
    else:
        assert caught == []
        assert report.spearman == rho
    assert report.ause == ause(rec)
    assert report.ce == calibration_error(rec.pits, config)
    assert report.nll == nll(rec)


@pytest.mark.parametrize("config", [
    EvalConfig(),
    EvalConfig(7, WeightMode.UNIFORM, RankTieMode.AVERAGE),
], ids=["default", "uniform-average-7"])
def test_evaluate_bundles_individual_metrics(config) -> None:
    rng = np.random.default_rng(6)
    n = 256
    rec = EvaluationRecords(
        abs_errors=rng.exponential(size=n),
        uncertainties=rng.uniform(size=n).round(1),  # tied, so the rank tie mode matters
        log_densities=rng.normal(size=n),
        pits=rng.uniform(size=n),
    )
    assert_evaluate_matches_single_metrics(rec, config)


def records_with_scores(e, u, rng) -> EvaluationRecords:
    n = len(e)
    return EvaluationRecords(e, u, rng.normal(size=n), rng.uniform(size=n))


@pytest.mark.parametrize("mode", list(RankTieMode))
@pytest.mark.parametrize("n", [1, 2, 3, 8, 49, 4097, 65536])
@pytest.mark.parametrize("error_kind", sorted(FIELD_KINDS))
@pytest.mark.parametrize("uncertainty_kind", sorted(FIELD_KINDS))
def test_evaluate_bit_identical_to_single_metrics(n, error_kind, uncertainty_kind, mode) -> None:
    rng = np.random.default_rng(n)
    e = FIELD_KINDS[error_kind](rng, n)
    u = FIELD_KINDS[uncertainty_kind](rng, n)
    assert_evaluate_matches_single_metrics(records_with_scores(e, u, rng), EvalConfig(rank_tie_mode=mode))


@settings(max_examples=200, deadline=None)
@given(tie_heavy_fields(), st.sampled_from(list(RankTieMode)))
def test_evaluate_on_tie_heavy_fields_bit_identical_to_single_metrics(fields, mode) -> None:
    e, u = fields
    rec = records_with_scores(e, u, np.random.default_rng(len(e)))
    assert_evaluate_matches_single_metrics(rec, EvalConfig(rank_tie_mode=mode))


@pytest.mark.parametrize("tied", [1, 4, 2**14], ids=["one", "floor-4", "quarter"])
@pytest.mark.parametrize("mode", list(RankTieMode))
def test_evaluate_breaks_a_few_exact_ties_among_distinct_values(tied, mode) -> None:
    # distinct uncertainties but for `tied` rows on the variance floor, as
    # the heteroscedastic oracle has 4 at 2^20 rows; one such row is no tie
    n = 2**16
    rng = np.random.default_rng(tied)
    u = rng.uniform(1.0, 2.0, size=n)
    u[rng.choice(n, size=tied, replace=False)] = 1e-12
    rec = records_with_scores(rng.exponential(size=n), u, rng)
    assert_evaluate_matches_single_metrics(rec, EvalConfig(rank_tie_mode=mode))


def test_evaluate_records_undefined_spearman_as_nan() -> None:
    rec = records_from([1.0], [1.0])
    with pytest.warns(RuntimeWarning, match=r"spearman undefined \(need at least 2 samples\); recording nan"):
        report = evaluate(rec)
    assert math.isnan(report.spearman)
    assert report.ause == ause(rec)
    assert report.nll == nll(rec)


def test_evaluate_rejects_empty_records_before_any_warning() -> None:
    rec = records_from([], [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="empty records"):
            evaluate(rec)


def test_report_csv_row_uses_six_significant_digits() -> None:
    report = MetricReport(ause=0.123456789, ce=1.23456789e-7, spearman=-0.5, nll=-0.89654321)
    row = report.csv_row("homoscedastic", "oracle")
    assert row == "homoscedastic,oracle,0.123457,1.23457e-07,-0.5,-0.896543"
