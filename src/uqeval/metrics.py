"""Scoring metrics for predictive uncertainty in regression.

Four headline numbers per evaluation:

    AUSE      area between the uncertainty-ordered and error-ordered
              sparsification curves (0 = uncertainty ranks errors perfectly)
    CE        squared-deviation calibration error of the PIT values
    Spearman  rank correlation between uncertainty and absolute error
    NLL       mean negative log predictive density per sample

All functions operate on EvaluationRecords, a struct-of-arrays bundle of
per-sample quantities produced by `uqeval.predictors.make_records`.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

import numpy as np

from .seeds import TAG_TIEBREAK, derive_seed, make_rng


CURVE_BLOCK_ROWS = 2**12  # sparsification curve fractions computed at once


class UndefinedMetricError(ValueError):
    """Raised when a metric has no defined value for the given records."""


@dataclass(frozen=True, eq=False)
class EvaluationRecords:
    """Per-sample evaluation quantities, one read-only float64 view per field."""

    abs_errors: np.ndarray
    uncertainties: np.ndarray
    log_densities: np.ndarray
    pits: np.ndarray

    def __post_init__(self):
        fields = {}
        n = None
        for name in ("abs_errors", "uncertainties", "log_densities", "pits"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).view()
            if arr.ndim != 1:
                raise ValueError(f"{name} must be 1-D")
            if n is None:
                n = len(arr)
            elif len(arr) != n:
                raise ValueError("all record arrays must share one length")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains non-finite values")
            arr.flags.writeable = False
            fields[name] = arr
        if np.any(fields["abs_errors"] < 0):
            raise ValueError("abs_errors must be nonnegative")
        if np.any(fields["pits"] < 0) or np.any(fields["pits"] > 1):
            raise ValueError("pits must lie in [0, 1]")
        for name, arr in fields.items():
            object.__setattr__(self, name, arr)

    def __len__(self) -> int:
        return len(self.abs_errors)

    def take(self, index: np.ndarray) -> "EvaluationRecords":
        return EvaluationRecords(
            self.abs_errors[index],
            self.uncertainties[index],
            self.log_densities[index],
            self.pits[index],
        )


def _require_nonempty(records: EvaluationRecords) -> None:
    if len(records) == 0:
        raise ValueError("empty records")


# ----------------------------------------------------------------- sparsification

@dataclass(frozen=True, eq=False)
class SparsificationCurve:
    """Normalized MAE of the retained subset as a removal fraction grows.

    At fractions[k], the floor(fractions[k] * N) samples ranked worst by
    the ordering criterion have been removed.  `by_uncertainty` removes
    highest predicted uncertainty first; `by_oracle` removes highest
    actual absolute error first.  Both start at 1 (nothing removed).
    """

    fractions: np.ndarray
    by_uncertainty: np.ndarray
    by_oracle: np.ndarray


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of each tie run in a sorted array."""
    starts = np.empty(len(ordered), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    return starts


def _stable_order(values: np.ndarray) -> np.ndarray:
    """Exactly np.argsort(values, kind="stable"), from one default sort.

    Any argsort groups ties into runs; sorting the keys run_id * n + index
    then puts each run back in index order.
    """
    n = len(values)
    order = np.argsort(values)
    keys = _run_starts(values[order]).astype(np.int64)
    np.cumsum(keys, out=keys)  # run ids; a bool input would be cast to an int64 copy first
    keys *= n
    keys += order
    del order
    keys.sort()
    keys %= n
    return keys


def _tie_shuffle(n: int, tie_seed: int) -> np.ndarray:
    """The seeded permutation of range(n) that breaks AUSE's ordering ties."""
    return make_rng(derive_seed(tie_seed, TAG_TIEBREAK)).permutation(n)


def _removal_order(values: np.ndarray, order: np.ndarray, shuffle: np.ndarray) -> np.ndarray:
    """AUSE's removal order, shuffle[np.argsort(-values[shuffle], kind="stable")].

    That is the values in descending order, each tie run in shuffle order.
    It is made from `order`, a default ascending argsort of `values`,
    which the caller no longer needs.  Without a tie it is `order`
    reversed; with a single run it is `shuffle`.  Otherwise every row is
    sorted again, the negated values in shuffle order by `_stable_order`,
    and the result written over `order` (int64, the size of a float64),
    so no more than four n-length arrays are held, `order` and `shuffle`
    included.
    """
    starts = _run_starts(values[order])
    if starts.all():
        return order[::-1]
    if not starts[1:].any():
        return shuffle
    del starts
    negated = order.view(np.float64)
    np.negative(values[shuffle], out=negated)
    return np.take(shuffle, _stable_order(negated), out=order)


def _fill_prefix(prefix: np.ndarray, ordered: np.ndarray) -> np.ndarray:
    """prefix[r] = the sum of ordered[:r], for r = 0..n, written into `prefix`."""
    prefix[0] = 0.0
    np.cumsum(ordered, out=prefix[1:])
    return prefix


def _fill_curve(curve: np.ndarray, prefix: np.ndarray, total: float) -> np.ndarray:
    """Writes one curve on the grid k / n, k = 0..n-1, into `curve`, CURVE_BLOCK_ROWS at a time.

    curve[k] is the normalized retained MAE once floor(k / n * n) rows are
    removed, for `prefix[r]` the error sum of the first r rows in removal
    order.  All-zero errors give MAE 0 on every retained subset; that
    normalized curve is taken as identically 1.
    """
    n = len(curve)
    if total == 0.0:
        curve.fill(1.0)
        return curve
    for lo in range(0, n, CURVE_BLOCK_ROWS):
        fractions = np.arange(lo, min(lo + CURVE_BLOCK_ROWS, n), dtype=np.float64)
        fractions /= n
        removed = np.floor(fractions * n).astype(np.int64)
        block = curve[lo:lo + CURVE_BLOCK_ROWS]
        np.subtract(total, prefix[removed], out=block)
        block /= n - removed
        block /= total / n
    return curve


def _curves(records: EvaluationRecords, order: np.ndarray,
            tie_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(by_uncertainty, by_oracle): both sparsification curves of `records`.

    `order` is a default argsort of the uncertainties, used up by
    `_removal_order`.  The total is summed in shuffle order, which fixes
    its last bits; the errors gathered for it are then sorted in place,
    for the oracle curve.  Tied errors are equal values, so that order
    needs no tie break.  One error-sum prefix serves both curves in turn,
    so with `order` at most four n-length arrays are held: order, prefix,
    errors and a curve, then order, prefix and the two curves.
    """
    n = len(records)
    errors = records.abs_errors
    shuffle = _tie_shuffle(n, tie_seed)
    gathered = errors[_removal_order(records.uncertainties, order, shuffle)]
    prefix = _fill_prefix(np.empty(n + 1), gathered)
    np.take(errors, shuffle, out=gathered, mode="clip")  # valid indices; "clip" skips a copy of out
    del shuffle
    total = float(gathered.sum())
    gathered.sort()
    by_uncertainty = _fill_curve(np.empty(n), prefix, total)
    _fill_prefix(prefix, gathered[::-1])
    del gathered
    return by_uncertainty, _fill_curve(np.empty(n), prefix, total)


def sparsification_curve(records: EvaluationRecords, tie_seed: int = 0) -> SparsificationCurve:
    """Removal curves on the full fraction grid k / N, k = 0..N-1.

    The removed count is floor(k / N * N), which is k - 1 for the k whose
    quotient rounds down (k = 1 at N = 49, say).  Ordering ties (notably
    constant uncertainties) are broken by a seeded uniform shuffle applied
    before a stable descending sort, so the result is deterministic in
    (records, tie_seed).  The fractions are made only once `_curves` has
    made the curves, so at most four N-length float64 arrays are held at
    once.
    """
    _require_nonempty(records)
    n = len(records)
    by_uncertainty, by_oracle = _curves(records, np.argsort(records.uncertainties), tie_seed)
    fractions = np.arange(n, dtype=np.float64)
    fractions /= n
    return SparsificationCurve(fractions, by_uncertainty, by_oracle)


def ause(records: EvaluationRecords, tie_seed: int = 0) -> float:
    """Mean gap between the two sparsification curves (left Riemann sum)."""
    _require_nonempty(records)
    return _ause(records, np.argsort(records.uncertainties), tie_seed)


def _ause(records: EvaluationRecords, order: np.ndarray, tie_seed: int) -> float:
    """`ause`, given `order`, a default argsort of the uncertainties, used up here."""
    gap, by_oracle = _curves(records, order, tie_seed)
    gap -= by_oracle
    return float(np.mean(gap))


# ----------------------------------------------------------------- calibration

class WeightMode(enum.Enum):
    # literal reading of the reference weighting: w_j = phat_j / N
    PAPER = "paper"
    UNIFORM = "uniform"


def calibration_error(pits: np.ndarray, config: EvalConfig | None = None) -> float:
    """Weighted squared deviation between nominal and observed coverage.

    `pits` must be a nonempty 1-D array of values in [0, 1] (no nan), the
    rule `EvaluationRecords` applies to its PITs; anything else raises
    ValueError.
    """
    config = config or EvalConfig()
    pits = np.asarray(pits, dtype=np.float64)
    if pits.ndim != 1:
        raise ValueError("pits must be 1-D")
    if pits.size == 0:
        raise ValueError("empty pits")
    ordered = np.sort(pits)
    if not (ordered[0] >= 0.0 and ordered[-1] <= 1.0):  # nan sorts last
        raise ValueError("pits must lie in [0, 1] and not be nan")
    levels = np.linspace(0.0, 1.0, config.thresholds)  # M nominal levels, built only here
    observed = np.searchsorted(ordered, levels, side="right") / pits.size
    if config.weight_mode is WeightMode.PAPER:
        weights = observed / pits.size
    else:
        weights = np.full(config.thresholds, 1.0 / config.thresholds)
    return float(np.sum(weights * (levels - observed) ** 2))


# ----------------------------------------------------------------- rank correlation

class RankTieMode(enum.Enum):
    # ties share the minimum rank: r(x_i) = 1 + |{j : x_j < x_i}|
    PAPER = "paper"
    # ties share the average rank, as in standard statistics references
    AVERAGE = "average"


def rank(values: np.ndarray, tie_mode: RankTieMode = RankTieMode.PAPER) -> np.ndarray:
    """1-based ranks: int64 minimum ranks (PAPER) or float64 midranks (AVERAGE).

    One argsort; each tie run takes the sorted positions of its first and
    last element, scattered back through the sort order.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1 or len(values) == 0:
        raise ValueError("values must be a nonempty 1-D array")
    order = np.argsort(values)
    if np.isnan(values[order[-1]]):  # nan sorts last
        raise ValueError("values must not contain nan")
    return _ranks_by_order(values, order, tie_mode)


def _ranks_by_order(values: np.ndarray, order: np.ndarray, tie_mode: RankTieMode) -> np.ndarray:
    """`rank` of `values`, given any ascending argsort of them."""
    n = len(values)
    inside = _run_starts(values[order])
    np.logical_not(inside, out=inside)  # true where a tie run continues
    first = np.arange(n)
    first[inside] = 0
    np.maximum.accumulate(first, out=first)
    if tie_mode is RankTieMode.PAPER:
        first += 1
        ranks = np.empty(n, dtype=np.int64)
        ranks[order] = first
        return ranks
    last = np.arange(n)
    last[:-1][inside[1:]] = n - 1  # all but each run's last element
    np.minimum.accumulate(last[::-1], out=last[::-1])
    first += last
    del last
    first += 2  # first + last + 2 is twice the 1-based midrank
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = first
    ranks /= 2.0
    return ranks


def spearman(
    uncertainties: np.ndarray,
    abs_errors: np.ndarray,
    tie_mode: RankTieMode = RankTieMode.PAPER,
) -> float:
    """Pearson correlation of the two rank sequences.

    The rank vectors are centred and multiplied in place; every sum is
    numpy's pairwise np.sum, whose bits a BLAS dot product would not keep.
    """
    u = np.asarray(uncertainties, dtype=np.float64)
    e = np.asarray(abs_errors, dtype=np.float64)
    if u.shape != e.shape or u.ndim != 1:
        raise ValueError("inputs must be 1-D arrays of equal length")
    return _spearman(u, e, np.argsort(u), tie_mode)


def _spearman(u: np.ndarray, e: np.ndarray, order: np.ndarray, tie_mode: RankTieMode) -> float:
    """`spearman`, given `order`, a default argsort of `u`.

    The errors are ranked first, so that with `order` no more than four
    n-length arrays are held.
    """
    if len(u) < 2:
        raise UndefinedMetricError("need at least 2 samples")
    if np.isnan(u[order[-1]]):  # nan sorts last
        raise ValueError("values must not contain nan")
    de = _centred(rank(e, tie_mode))
    du = _centred(_ranks_by_order(u, order, tie_mode))
    denom = np.sqrt(np.sum(du * du) * np.sum(de * de))
    if denom == 0.0:
        raise UndefinedMetricError("rank variance is zero")
    np.multiply(du, de, out=du)
    return float(np.clip(np.sum(du) / denom, -1.0, 1.0))


def _centred(ranks: np.ndarray) -> np.ndarray:
    """float64 ranks minus their mean, centred in place."""
    ranks = ranks.astype(np.float64, copy=False)
    ranks -= ranks.mean()
    return ranks


# ----------------------------------------------------------------- NLL and report

def nll(records: EvaluationRecords) -> float:
    """Mean negative log predictive density per sample."""
    _require_nonempty(records)
    return float(-np.mean(records.log_densities))


@dataclass(frozen=True)
class EvalConfig:
    """Scoring conventions: CE's level count M and weighting, Spearman tie ranks."""

    thresholds: int = 100
    weight_mode: WeightMode = WeightMode.PAPER
    rank_tie_mode: RankTieMode = RankTieMode.PAPER

    def __post_init__(self):
        t = self.thresholds
        if not isinstance(t, int) or isinstance(t, bool) or t < 2:
            raise ValueError(f"thresholds must be an int count of at least 2, got {t!r}")


REPORT_HEADER = "dataset,predictor,ause,ce,spearman,nll"


@dataclass(frozen=True)
class MetricReport:
    ause: float
    ce: float
    spearman: float
    nll: float

    def csv_row(self, dataset: str, predictor: str) -> str:
        cells = [f"{v:.6g}" for v in (self.ause, self.ce, self.spearman, self.nll)]
        return ",".join([dataset, predictor] + cells)


def evaluate(records: EvaluationRecords, config: EvalConfig | None = None) -> MetricReport:
    """All four metrics in one pass, each bit for bit its own function's value.

    Empty records raise ValueError.  A Spearman correlation that is
    undefined (fewer than two samples, or constant uncertainties or
    errors) is recorded as nan with a RuntimeWarning, never as a silent 0.

    The uncertainties are sorted once: one default argsort gives
    Spearman's ranks (`_spearman`) and then AUSE's removal order
    (`_ause`), which sorts again only when values tie but not all of
    them do (`_removal_order`).
    """
    _require_nonempty(records)
    config = config or EvalConfig()
    order = np.argsort(records.uncertainties)
    try:
        rho = _spearman(records.uncertainties, records.abs_errors, order, config.rank_tie_mode)
    except UndefinedMetricError as exc:
        warnings.warn(f"spearman undefined ({exc}); recording nan", RuntimeWarning)
        rho = float("nan")
    return MetricReport(
        ause=_ause(records, order, 0),
        ce=calibration_error(records.pits, config),
        spearman=rho,
        nll=nll(records),
    )
