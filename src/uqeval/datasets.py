"""Synthetic 1-D regression benchmarks.

Four generating processes, each a known conditional distribution over a
bounded input domain:

    homoscedastic   y = cos(1.5 pi x) + e,  e ~ N(0, 0.1^2),        x in [-1, 1]
    heteroscedastic y = cos(1.5 pi x) + e,  e ~ N(0, s(x)^2),       x in [-1, 1]
                    with s(x) = 0.4 |cos(1.5 pi x)|
    multimodal      y = 0.5 + b cos(2 pi x) + e,  b = +/-1 fair,    x in [0, 1]
                    e ~ N(0, 0.05^2)
    epistemic       y = 0.5 + cos(4 pi x) + e,  e ~ N(0, 0.05^2),   x in [0, 1]
                    train split only: x is redrawn until outside [0.35, 0.65]

Inputs are uniform over the domain.  Draw order per dataset is fixed and
documented: all x first (the epistemic train rejection loop redraws only
the offending entries), then the multimodal mode signs, then the standard
normal noises.  Everything is a pure function of (kind, split, n, seed).
"""
from __future__ import annotations

import csv
import enum
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .seeds import TAG_DATASET, derive_seed, make_rng

GAP_LOW = 0.35
GAP_HIGH = 0.65
CSV_BLOCK_ROWS = 2**14  # rows formatted per chunk of artifact text


class DomainError(ValueError):
    """Raised when an input lies outside the dataset's domain."""


class CsvFormatError(ValueError):
    """Raised on malformed dataset CSV input; names the offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class DatasetKind(enum.Enum):
    HOMOSCEDASTIC = "homoscedastic"
    HETEROSCEDASTIC = "heteroscedastic"
    MULTIMODAL = "multimodal"
    EPISTEMIC = "epistemic"

    @property
    def domain(self) -> tuple[float, float]:
        if self in (DatasetKind.HOMOSCEDASTIC, DatasetKind.HETEROSCEDASTIC):
            return (-1.0, 1.0)
        return (0.0, 1.0)


class Split(enum.Enum):
    TRAIN = "train"
    TEST = "test"


@dataclass(frozen=True, eq=False)
class LabeledSet:
    """Immutable paired samples (xs[i], ys[i])."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        if xs.ndim != 1 or ys.ndim != 1 or len(xs) != len(ys):
            raise ValueError("xs and ys must be 1-D arrays of equal length")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("xs and ys must be finite")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def __len__(self) -> int:
        return len(self.xs)


def _check_domain(kind: DatasetKind, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    lo, hi = kind.domain
    if x.size and (np.min(x) < lo or np.max(x) > hi):
        raise DomainError(f"input outside {kind.value} domain [{lo}, {hi}]")
    return x


def conditional_mean(kind: DatasetKind, x) -> np.ndarray:
    """Mean of y given x under the generating process."""
    x = _check_domain(kind, x)
    if kind in (DatasetKind.HOMOSCEDASTIC, DatasetKind.HETEROSCEDASTIC):
        return np.cos(1.5 * np.pi * x)
    if kind is DatasetKind.MULTIMODAL:
        # the two modes are symmetric about 0.5
        return np.full_like(x, 0.5)
    return 0.5 + np.cos(4 * np.pi * x)


def residual_std(kind: DatasetKind, x) -> np.ndarray:
    """Standard deviation of the additive noise term at x."""
    x = _check_domain(kind, x)
    if kind is DatasetKind.HOMOSCEDASTIC:
        return np.full_like(x, 0.1)
    if kind is DatasetKind.HETEROSCEDASTIC:
        return 0.4 * np.abs(np.cos(1.5 * np.pi * x))
    return np.full_like(x, 0.05)


def generate(kind: DatasetKind, split: Split, n: int, seed: int) -> LabeledSet:
    """Draw n samples; pure in (kind, split, n, seed)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    kind_ix = list(DatasetKind).index(kind)
    split_ix = list(Split).index(split)
    rng = make_rng(derive_seed(seed, TAG_DATASET, kind_ix, split_ix))
    lo, hi = kind.domain

    xs = rng.uniform(lo, hi, n)
    if kind is DatasetKind.EPISTEMIC and split is Split.TRAIN:
        gap = (xs >= GAP_LOW) & (xs <= GAP_HIGH)
        while gap.any():
            xs[gap] = rng.uniform(lo, hi, int(gap.sum()))
            gap = (xs >= GAP_LOW) & (xs <= GAP_HIGH)

    if kind is DatasetKind.MULTIMODAL:
        signs = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        mean = 0.5 + signs * np.cos(2 * np.pi * xs)
    else:
        mean = conditional_mean(kind, xs)

    ys = mean + residual_std(kind, xs) * rng.standard_normal(n)
    return LabeledSet(xs, ys)


def csv_rows(*columns) -> str:
    """One CSV line per row of equal-length float columns.

    repr() keeps full round-trip precision; `.tolist()` hands the format
    plain Python floats, whose repr is the shortest exact one.  `%`
    formatting of row tuples takes about 15% less CPU than `str.format`.
    """
    line = ",".join(["%r"] * len(columns)) + "\n"
    rows = zip(*(np.asarray(c, dtype=np.float64).tolist() for c in columns))
    return "".join([line % row for row in rows])


def csv_chunks(header: str, *columns) -> Iterator[str]:
    """The header line, then the rows of `columns` in chunks of CSV_BLOCK_ROWS."""
    n = len(columns[0])
    return itertools.chain(
        [header + "\n"],
        (csv_rows(*(c[lo : lo + CSV_BLOCK_ROWS] for c in columns))
         for lo in range(0, n, CSV_BLOCK_ROWS)),
    )


def dataset_csv(data: LabeledSet) -> Iterator[str]:
    """`x,y` rows as chunks of text; see `csv_chunks`."""
    return csv_chunks("x,y", data.xs, data.ys)


def read_csv(path) -> LabeledSet:
    xs: list[float] = []
    ys: list[float] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["x", "y"]:
            raise CsvFormatError(1, "expected header 'x,y'")
        for line, row in enumerate(reader, start=2):
            if len(row) != 2:
                raise CsvFormatError(line, f"expected 2 fields, got {len(row)}")
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                raise CsvFormatError(line, f"non-numeric field in {row!r}") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise CsvFormatError(line, "non-finite value")
            xs.append(x)
            ys.append(y)
    return LabeledSet(np.array(xs), np.array(ys))
