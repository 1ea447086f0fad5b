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

import enum
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .cores import map_on_cores
from .seeds import TAG_DATASET, derive_seed, make_rng

GAP_LOW = 0.35
GAP_HIGH = 0.65
CSV_BLOCK_ROWS = 2**14  # rows formatted per chunk of artifact text
# Cells (rows x columns) from which `csv_chunks` formats on every core: on
# 2 cores, 2^18 rows x 3 columns is about break-even, as spawning the workers
# costs about as much as the second core saves.
POOL_MIN_CELLS = 3 * 2**18


class DomainError(ValueError):
    """Raised when an input lies outside the dataset's domain."""


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
    """Immutable paired samples (xs[i], ys[i]), held as read-only float64 views."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=np.float64).view()
        ys = np.asarray(self.ys, dtype=np.float64).view()
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


def conditional_components(kind: DatasetKind, x) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """The means of y's mixture components given x, and their common noise std.

    The one place each dataset's formulas are written: `generate` draws
    from them and the oracle predictor reports them.  One mean unless the
    dataset is multimodal, whose two equally likely modes lie at 0.5 +/- c.
    A constant std is a read-only broadcast view, which holds no N-length
    buffer.
    """
    x = np.asarray(x, dtype=np.float64)
    lo, hi = kind.domain
    if x.size and (np.min(x) < lo or np.max(x) > hi):
        raise DomainError(f"input outside {kind.value} domain [{lo}, {hi}]")
    if kind is DatasetKind.MULTIMODAL:
        c = np.cos(2 * np.pi * x)
        return (0.5 + c, 0.5 - c), np.broadcast_to(0.05, x.shape)
    if kind is DatasetKind.EPISTEMIC:
        return (0.5 + np.cos(4 * np.pi * x),), np.broadcast_to(0.05, x.shape)
    c = np.cos(1.5 * np.pi * x)
    if kind is DatasetKind.HOMOSCEDASTIC:
        return (c,), np.broadcast_to(0.1, x.shape)
    return (c,), 0.4 * np.abs(c)


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

    means, std = conditional_components(kind, xs)
    if kind is DatasetKind.MULTIMODAL:
        # one fair draw per sample picks the mode: u < 0.5 keeps 0.5 + c
        np.copyto(means[0], means[1], where=rng.random(n) >= 0.5)
    ys = means[0] + std * rng.standard_normal(n)
    del means, std  # LabeledSet's checks then run beside xs and ys alone
    return LabeledSet(xs, ys)


def csv_rows(columns) -> str:
    """One CSV line per cell of a tuple of same-shape columns, in C order.

    Each cell is the repr of the Python number `.tolist()` makes of it:
    float64 cells give the shortest exact float repr, integer cells plain
    digits.  `%` formatting of row tuples takes about 15% less CPU than
    `str.format`.
    """
    line = ",".join(["%r"] * len(columns)) + "\n"
    rows = zip(*(np.ravel(c).tolist() for c in columns))
    return "".join([line % row for row in rows])


def csv_chunks(header: str, *columns) -> Iterator[str]:
    """The header line, then one row per cell of the same-shape `columns`, in C order.

    A chunk of text is a view of whole slices along the first axis, about
    CSV_BLOCK_ROWS rows and at least one slice, or of CSV_BLOCK_ROWS cells
    of one row of a wider 2-D slice, so a broadcast column is copied a
    chunk at a time.  A text of at least POOL_MIN_CELLS cells is formatted
    by `map_on_cores`, one task per chunk, and a smaller one in this
    process, a chunk as it is asked for.  A chunk's text depends only on
    its own rows, so the bytes do not depend on the path or on the number
    of cores.  Closing the iterator early ends any pool it started.
    """
    shape = np.shape(columns[0])
    width = math.prod(shape[1:])
    if width > CSV_BLOCK_ROWS:
        blocks = (tuple(c[i, lo : lo + CSV_BLOCK_ROWS] for c in columns)
                  for i in range(shape[0]) for lo in range(0, shape[1], CSV_BLOCK_ROWS))
    else:
        step = max(1, CSV_BLOCK_ROWS // max(1, width))
        blocks = (tuple(c[lo : lo + step] for c in columns) for lo in range(0, shape[0], step))
    yield header + "\n"
    if math.prod(shape) * len(columns) >= POOL_MIN_CELLS:
        yield from map_on_cores(csv_rows, blocks)
    else:
        yield from map(csv_rows, blocks)


def dataset_csv(data: LabeledSet) -> Iterator[str]:
    """`x,y` rows as chunks of text; see `csv_chunks`."""
    return csv_chunks("x,y", data.xs, data.ys)

