import functools
import math
import multiprocessing
import tracemalloc
import warnings
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqeval import cores
from uqeval.cli import run
from uqeval.datasets import (
    CSV_BLOCK_ROWS,
    POOL_MIN_CELLS,
    DatasetKind,
    GAP_HIGH,
    GAP_LOW,
    LabeledSet,
    Split,
    csv_chunks,
    csv_rows,
    dataset_csv,
    generate,
)
from uqeval.distributions import VARIANCE_FLOOR, Gaussian, GaussianMixture
from uqeval.predictors import TrueDistributionPredictor, make_records
from uqeval.seeds import TAG_DATASET, derive_seed, make_rng

ALL_KINDS = list(DatasetKind)


def oracle_moments(kind: DatasetKind, x) -> tuple[np.ndarray, np.ndarray]:
    """Mean and variance of the oracle's predictive distribution at x."""
    dist = TrueDistributionPredictor(kind).predict(x)
    return np.asarray(dist.mean), np.asarray(dist.variance)


def load_xy(path) -> tuple[np.ndarray, np.ndarray]:
    """The x and y columns of a dataset CSV, parsed by numpy."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a header-only file has no rows
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2).reshape(-1, 2)
    return table[:, 0], table[:, 1]

# largest possible std of y - m(x), per kind, for CLT bounds
SIGMA_MAX = {
    DatasetKind.HOMOSCEDASTIC: 0.1,
    DatasetKind.HETEROSCEDASTIC: 0.4,
    DatasetKind.MULTIMODAL: math.sqrt(1.0 + 0.05**2),
    DatasetKind.EPISTEMIC: 0.05,
}


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("split", list(Split))
def test_generate_is_pure(kind, split) -> None:
    a = generate(kind, split, 257, 11)
    b = generate(kind, split, 257, 11)
    assert np.array_equal(a.xs, b.xs)
    assert np.array_equal(a.ys, b.ys)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("split", list(Split))
def test_generate_memory_is_a_few_columns(kind, split) -> None:
    # At its widest, generate holds xs, the two mean columns of a multimodal
    # draw, the uniform draw that picks each row's mode and that draw's
    # 1-byte comparison mask: four float64 columns and n bytes.  The noise
    # draw is scaled and shifted in place (numpy reuses a temporary's
    # buffer), and the means are freed before LabeledSet's checks.
    n = 2**18
    generate(kind, split, 16, 0)  # one-time set-up runs untraced
    tracemalloc.start()
    try:
        data = generate(kind, split, n, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(data) == n
    assert peak <= 4 * 8 * n + n + 64 * 1024


def test_generate_differs_across_seed_kind_split() -> None:
    base = generate(DatasetKind.HOMOSCEDASTIC, Split.TEST, 64, 0)
    assert not np.array_equal(base.xs, generate(DatasetKind.HOMOSCEDASTIC, Split.TEST, 64, 1).xs)
    assert not np.array_equal(base.xs, generate(DatasetKind.HOMOSCEDASTIC, Split.TRAIN, 64, 0).xs)
    assert not np.array_equal(base.xs, generate(DatasetKind.HETEROSCEDASTIC, Split.TEST, 64, 0).xs)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_inputs_stay_in_domain(kind) -> None:
    data = generate(kind, Split.TEST, 4096, 3)
    lo, hi = kind.domain
    assert len(data) == 4096
    assert data.xs.min() >= lo and data.xs.max() <= hi


def test_zero_and_negative_n() -> None:
    empty = generate(DatasetKind.MULTIMODAL, Split.TEST, 0, 0)
    assert len(empty) == 0
    with pytest.raises(ValueError):
        generate(DatasetKind.MULTIMODAL, Split.TEST, -1, 0)


def test_epistemic_train_excludes_gap_test_covers_it() -> None:
    train = generate(DatasetKind.EPISTEMIC, Split.TRAIN, 20_000, 5)
    in_gap = (train.xs >= GAP_LOW) & (train.xs <= GAP_HIGH)
    assert not in_gap.any()
    test = generate(DatasetKind.EPISTEMIC, Split.TEST, 20_000, 5)
    in_gap = (test.xs > GAP_LOW) & (test.xs < GAP_HIGH)
    assert in_gap.sum() > 20_000 * 0.2  # roughly 30% of the mass lies in the gap


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_residual_mean_near_zero_at_scale(kind) -> None:
    n = 2**16
    data = generate(kind, Split.TEST, n, 0)
    resid = data.ys - oracle_moments(kind, data.xs)[0]
    bound = 4.0 * SIGMA_MAX[kind] / math.sqrt(n)
    assert abs(resid.mean()) < bound


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_input_mean_matches_uniform_law(kind) -> None:
    n = 2**16
    data = generate(kind, Split.TEST, n, 9)
    lo, hi = kind.domain
    spread = (hi - lo) / math.sqrt(12.0)
    assert abs(data.xs.mean() - (lo + hi) / 2) < 4.0 * spread / math.sqrt(n)


def test_multimodal_mode_balance() -> None:
    n = 2**16
    data = generate(DatasetKind.MULTIMODAL, Split.TEST, n, 2)
    offset = np.cos(2 * np.pi * data.xs)
    clear = np.abs(offset) > 0.2  # points where the two modes are separable
    upper = ((data.ys - 0.5) * offset)[clear] > 0
    frac = upper.mean()
    assert 0.48 <= frac <= 0.52


def test_heteroscedastic_noise_tracks_schedule() -> None:
    n = 2**16
    data = generate(DatasetKind.HETEROSCEDASTIC, Split.TEST, n, 4)
    mean, var = oracle_moments(DatasetKind.HETEROSCEDASTIC, data.xs)
    resid = data.ys - mean
    sd = np.sqrt(var)
    quiet = sd < 0.05
    loud = sd > 0.35
    assert resid[quiet].std() < resid[loud].std() / 3


def test_noise_std_values() -> None:
    assert oracle_moments(DatasetKind.HOMOSCEDASTIC, 0.3)[1] == pytest.approx(0.1**2)
    assert oracle_moments(DatasetKind.HETEROSCEDASTIC, 0.0)[1] == pytest.approx(0.4**2)
    x = 1.0 / 3.0  # 1.5 pi x = pi / 2, noise vanishes down to the variance floor
    assert oracle_moments(DatasetKind.HETEROSCEDASTIC, x)[1] == VARIANCE_FLOOR
    modes = TrueDistributionPredictor(DatasetKind.MULTIMODAL).predict(0.5).components
    assert [c.variance for c in modes] == pytest.approx([0.05**2, 0.05**2])
    assert oracle_moments(DatasetKind.EPISTEMIC, 0.5)[1] == pytest.approx(0.05**2)


def test_conditional_mean_values() -> None:
    assert oracle_moments(DatasetKind.HOMOSCEDASTIC, 0.0)[0] == pytest.approx(1.0)
    assert oracle_moments(DatasetKind.MULTIMODAL, 0.9)[0] == pytest.approx(0.5)
    assert oracle_moments(DatasetKind.EPISTEMIC, 0.25)[0] == pytest.approx(0.5 + math.cos(math.pi))


def test_labeled_set_validation_and_immutability() -> None:
    with pytest.raises(ValueError):
        LabeledSet(np.array([1.0, 2.0]), np.array([1.0]))
    with pytest.raises(ValueError):
        LabeledSet(np.array([np.nan]), np.array([1.0]))
    data = LabeledSet(np.array([0.5]), np.array([1.0]))
    with pytest.raises(ValueError):
        data.xs[0] = 2.0


def test_labeled_set_leaves_the_callers_arrays_writable() -> None:
    xs, ys = np.array([0.5, 0.25]), np.array([1.0, 2.0])
    data = LabeledSet(xs, ys)
    assert xs.flags.writeable and ys.flags.writeable
    assert np.shares_memory(data.xs, xs) and np.shares_memory(data.ys, ys)  # no copy
    for stored in (data.xs, data.ys):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 1.0


def test_csv_round_trip(tmp_path) -> None:
    data = generate(DatasetKind.HETEROSCEDASTIC, Split.TEST, 100, 13)
    path = tmp_path / "data.csv"
    path.write_text("".join(dataset_csv(data)), encoding="utf-8", newline="\n")
    text = path.read_text(encoding="utf-8")
    assert text.startswith("x,y\n")
    assert "\r" not in text
    xs, ys = load_xy(path)
    assert xs.tobytes() == data.xs.tobytes()
    assert ys.tobytes() == data.ys.tobytes()


def test_streamed_dataset_csv_equals_string_built_text() -> None:
    n = 2 * CSV_BLOCK_ROWS + 7  # a short last chunk
    data = generate(DatasetKind.MULTIMODAL, Split.TEST, n, 5)
    chunks = list(dataset_csv(data))
    assert len(chunks) == 4  # header and three blocks of rows
    # reference: the row-at-a-time text of the file writer this replaced
    rows = "".join(f"{float(x)!r},{float(y)!r}\n" for x, y in zip(data.xs, data.ys))
    assert "".join(chunks) == "x,y\n" + rows


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            st.floats(allow_nan=False, allow_infinity=False, width=64),
        ),
        min_size=0,
        max_size=40,
    )
)
def test_csv_round_trip_arbitrary_floats(tmp_path_factory, pairs) -> None:
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    xs = np.array([p[0] for p in pairs], dtype=np.float64)
    ys = np.array([p[1] for p in pairs], dtype=np.float64)
    path.write_text("".join(dataset_csv(LabeledSet(xs, ys))), encoding="utf-8", newline="\n")
    back_xs, back_ys = load_xy(path)
    assert back_xs.tobytes() == xs.tobytes()
    assert back_ys.tobytes() == ys.tobytes()



# ------------------------------------------------- CSV text on every core

@functools.cache
def csv_case(shape: tuple[int, ...]) -> tuple[tuple[np.ndarray, ...], str]:
    """Three columns of one shape (float, int, float) and their text as one in-process block.

    A 2-D case is laid out as `density_grid_csv` lays out a grid: the
    first column is one value per leading-axis slice and the second one
    value per column index, both broadcast views.
    """
    rng = np.random.default_rng(shape)
    a = rng.standard_normal(shape[0]) * 10.0 ** rng.integers(-300, 300, shape[0])
    b = np.arange(shape[-1]) - shape[-1] // 2
    c = rng.random(shape)
    if len(shape) == 2:
        a, b = np.broadcast_to(a[:, None], shape), np.broadcast_to(b, shape)
    return (a, b, c), "a,b,c\n" + csv_rows((a, b, c))


class StartCountingPool(ProcessPoolExecutor):
    """A process pool counting how often one is started."""

    started = 0

    def __init__(self, *args, **kwargs):
        type(self).started += 1
        super().__init__(*args, **kwargs)


ROWS_AT_POOL_MIN = POOL_MIN_CELLS // 3  # three columns
GRID_Y = 512  # a GRID_Y x GRID_Y grid of three columns is at POOL_MIN_CELLS


@pytest.mark.parametrize("shape", [(ROWS_AT_POOL_MIN - CSV_BLOCK_ROWS,), (ROWS_AT_POOL_MIN,),
                                   (ROWS_AT_POOL_MIN + 1,), (GRID_Y - 1, GRID_Y),
                                   (GRID_Y, GRID_Y), (GRID_Y + 1, GRID_Y),
                                   (2, CSV_BLOCK_ROWS + 5), (2, POOL_MIN_CELLS // 6 + 1)],
                         ids=["block-below", "at", "row-past",
                              "grid-slice-below", "grid-at", "grid-slice-past",
                              "wide", "wide-past"])
@pytest.mark.parametrize("ncores", [1, 2])
def test_csv_text_is_the_same_on_one_core_and_on_two(monkeypatch, ncores, shape) -> None:
    monkeypatch.setattr(cores, "_available_cores", lambda: ncores)
    monkeypatch.setattr(cores, "ProcessPoolExecutor", StartCountingPool)
    monkeypatch.setattr(StartCountingPool, "started", 0)
    columns, text = csv_case(shape)
    chunks = list(csv_chunks("a,b,c", *columns))
    assert "".join(chunks) == text
    if math.prod(shape[1:]) > CSV_BLOCK_ROWS:  # each wide slice is cut into pieces
        assert len(chunks) == 1 + shape[0] * -(-shape[1] // CSV_BLOCK_ROWS)
    else:
        slices = max(1, CSV_BLOCK_ROWS // math.prod(shape[1:]))  # leading-axis slices per chunk
        assert len(chunks) == 1 + -(-shape[0] // slices)
    assert StartCountingPool.started == (ncores == 2 and 3 * math.prod(shape) >= POOL_MIN_CELLS)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("shape", [(ROWS_AT_POOL_MIN,), (GRID_Y, GRID_Y)], ids=["rows", "grid"])
def test_closing_a_pooled_csv_after_one_chunk_ends_its_workers(monkeypatch, shape) -> None:
    monkeypatch.setattr(cores, "_available_cores", lambda: 2)
    columns, text = csv_case(shape)
    chunks = csv_chunks("a,b,c", *columns)
    assert next(chunks) == "a,b,c\n"
    assert text.startswith("a,b,c\n" + next(chunks))
    assert len(multiprocessing.active_children()) == 2
    chunks.close()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("rows", [ROWS_AT_POOL_MIN + 1, 2 * ROWS_AT_POOL_MIN])
def test_pooled_csv_holds_the_window_not_the_text(monkeypatch, rows) -> None:
    # While a pooled CSV streams, this process holds the window's 2 x workers
    # chunks of text, the chunk in hand and the bytes of one more as they
    # arrive, plus one block's columns pickled for a worker, at any size.
    monkeypatch.setattr(cores, "_available_cores", lambda: 2)
    rng = np.random.default_rng(rows)
    columns = [rng.random(rows) for _ in range(3)]
    list(csv_chunks("a,b,c", *(c[:8] for c in columns)))  # one-time set-up runs untraced
    longest = 0
    tracemalloc.start()
    try:
        for chunk in csv_chunks("a,b,c", *columns):
            longest = max(longest, len(chunk))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= (2 * 2 + 2) * longest + 3 * 8 * CSV_BLOCK_ROWS + 64 * 1024, (peak, longest)


@pytest.mark.parametrize("command, n", [("sparsify", ROWS_AT_POOL_MIN + 1),
                                        ("generate", POOL_MIN_CELLS // 2 + 1)])
def test_pooled_artifacts_are_the_same_on_one_core_and_on_two(tmp_path, monkeypatch, command,
                                                             n) -> None:
    written = []
    for ncores in (1, 2):
        monkeypatch.setattr(cores, "_available_cores", lambda: ncores)
        (tmp_path / str(ncores)).mkdir()
        monkeypatch.chdir(tmp_path / str(ncores))  # the manifests record a relative --out
        assert run([command, "--dataset", "multimodal", "--n", str(n), "--out", "a.csv"]) == 0
        written.append({p.name: p.read_bytes() for p in Path().iterdir()})
    assert sorted(written[0]) == ["a.csv", "a.csv.manifest.json"]
    assert written[0] == written[1]
    assert multiprocessing.active_children() == []


# ------------------------------------------------- reference: the formulas as first written
#
# `generate` and the oracle once wrote each dataset's formulas out separately.
# These copies of that code pin the shared per-kind formulas bit for bit.

def reference_conditional_mean(kind: DatasetKind, x: np.ndarray) -> np.ndarray:
    if kind in (DatasetKind.HOMOSCEDASTIC, DatasetKind.HETEROSCEDASTIC):
        return np.cos(1.5 * np.pi * x)
    if kind is DatasetKind.MULTIMODAL:
        return np.full_like(x, 0.5)
    return 0.5 + np.cos(4 * np.pi * x)


def reference_residual_std(kind: DatasetKind, x: np.ndarray) -> np.ndarray:
    if kind is DatasetKind.HOMOSCEDASTIC:
        return np.full_like(x, 0.1)
    if kind is DatasetKind.HETEROSCEDASTIC:
        return 0.4 * np.abs(np.cos(1.5 * np.pi * x))
    return np.full_like(x, 0.05)


def reference_generate(kind: DatasetKind, split: Split, n: int, seed: int) -> LabeledSet:
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
        mean = reference_conditional_mean(kind, xs)
    ys = mean + reference_residual_std(kind, xs) * rng.standard_normal(n)
    return LabeledSet(xs, ys)


class ReferenceOracle:
    def __init__(self, kind: DatasetKind):
        self.kind = kind

    def predict(self, x):
        x = np.asarray(x, dtype=np.float64)
        if self.kind is DatasetKind.MULTIMODAL:
            offset = np.cos(2 * np.pi * x)
            var = np.full_like(x, 0.05**2)
            return GaussianMixture(
                weights=np.array([0.5, 0.5]),
                components=(Gaussian(0.5 + offset, var), Gaussian(0.5 - offset, var)),
            )
        if self.kind is DatasetKind.EPISTEMIC:
            return Gaussian(0.5 + np.cos(4 * np.pi * x), np.full_like(x, 0.05**2))
        mean = np.cos(1.5 * np.pi * x)
        return Gaussian(mean, reference_residual_std(self.kind, x) ** 2)


def parameter_bytes(dist) -> list[bytes]:
    parts = dist.components if isinstance(dist, GaussianMixture) else (dist,)
    return [np.asarray(v).tobytes() for c in parts for v in (c.mean, c.variance)]


@pytest.mark.parametrize("seed", [0, 1009])
@pytest.mark.parametrize("n", [0, 1, 7, 4099, 65537])
@pytest.mark.parametrize("split", list(Split))
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_shared_formulas_are_bit_identical_to_reference(kind, split, n, seed) -> None:
    data = generate(kind, split, n, seed)
    ref = reference_generate(kind, split, n, seed)
    assert data.xs.tobytes() == ref.xs.tobytes()
    assert data.ys.tobytes() == ref.ys.tobytes()

    oracle, ref_oracle = TrueDistributionPredictor(kind), ReferenceOracle(kind)
    assert parameter_bytes(oracle.predict(data.xs)) == parameter_bytes(ref_oracle.predict(data.xs))
    got, want = make_records(oracle, data), make_records(ref_oracle, data)
    for field in ("abs_errors", "uncertainties", "log_densities", "pits"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
