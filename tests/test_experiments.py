import functools
import json
import math
import multiprocessing
import os
import struct
import sys
import tracemalloc

import numpy as np
import pytest

from uqeval.datasets import CSV_BLOCK_ROWS, DatasetKind, Split, generate
from uqeval import cores, experiments
from uqeval.network import FORWARD_CHUNK_ROWS
from uqeval.metrics import (
    CURVE_BLOCK_ROWS,
    EvalConfig,
    MetricReport,
    RankTieMode,
    WeightMode,
    evaluate,
    sparsification_curve,
)
from uqeval.experiments import (
    SIZES,
    _bias_replicate,
    StabilityResult,
    bias_experiment,
    convergence_experiment,
    density_grid_csv,
    make_manifest,
    read_manifest,
    sha256_file,
    sparsification_csv,
)
from uqeval.predictors import (
    TrainConfig,
    TrueDistributionPredictor,
    make_records,
    train_ensemble,
)
from uqeval.seeds import TAG_REPLICATE, derive_seed

ORACLE_HET = TrueDistributionPredictor(DatasetKind.HETEROSCEDASTIC)
ORACLE_HOMO = TrueDistributionPredictor(DatasetKind.HOMOSCEDASTIC)


def test_sizes_cover_the_documented_range() -> None:
    assert SIZES == tuple(2**k for k in range(3, 17))


def test_convergence_rows_and_determinism() -> None:
    sizes = (8, 16, 32)
    a = convergence_experiment(ORACLE_HET, base_seed=1, sizes=sizes)
    b = convergence_experiment(ORACLE_HET, base_seed=1, sizes=sizes)
    assert a.sizes == sizes
    assert a.reports == b.reports


def test_convergence_subsets_are_nested_prefixes() -> None:
    # the row for a given size is identical whether or not smaller sizes
    # are requested, because subsets are prefixes of one seeded permutation
    full = convergence_experiment(ORACLE_HET, base_seed=3, sizes=(8, 16, 64))
    solo = convergence_experiment(ORACLE_HET, base_seed=3, sizes=(64,))
    assert full.reports[-1] == solo.reports[0]


def test_convergence_full_size_equals_one_shot_evaluation() -> None:
    n = 512
    result = convergence_experiment(ORACLE_HET, base_seed=0, sizes=(n,))
    data = generate(DatasetKind.HETEROSCEDASTIC, Split.TEST, n, 0)
    direct = evaluate(make_records(ORACLE_HET, data), EvalConfig())
    row = result.reports[0]
    assert row.ause == pytest.approx(direct.ause, rel=1e-12)
    assert row.ce == pytest.approx(direct.ce, rel=1e-12)
    assert row.spearman == pytest.approx(direct.spearman, rel=1e-12)
    assert row.nll == pytest.approx(direct.nll, rel=1e-12)


@pytest.mark.parametrize("kind", [DatasetKind.HETEROSCEDASTIC, DatasetKind.MULTIMODAL])
def test_stability_memory_is_records_permutation_and_one_subset(monkeypatch, kind) -> None:
    # A study of N rows holds, while it scores its largest subset, the four
    # record arrays (4 * 8N), the int64 permutation (8N) and the subset's
    # four arrays (4 * 8N): neither the test set nor an earlier subset.
    # Scoring adds at most the bound that
    # test_metric_memory_is_four_arrays_plus_one_block holds each metric to.
    # Making the records holds the test set (2 * 8N), the records and one
    # record block's temporaries (about 18 arrays of at most
    # 2 * FORWARD_CHUNK_ROWS - 1 rows for the multimodal oracle, the
    # widest), which at N = 2^18 is less than scoring holds.
    n = 2**18
    predictor = TrueDistributionPredictor(kind)
    convergence_experiment(predictor, kind, sizes=(16,))  # one-time set-up runs untraced
    entries, real = [], experiments.evaluate

    def traced(records, *args):
        entries.append(tracemalloc.get_traced_memory()[0])
        return real(records, *args)

    monkeypatch.setattr(experiments, "evaluate", traced)
    tracemalloc.start()
    try:
        convergence_experiment(predictor, kind, sizes=(16, n))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    jitter = 64 * 1024
    held = 9 * 8 * n
    assert entries[-1] <= held + jitter, entries
    assert peak <= held + 4 * 8 * n + n + 8 * 8 * CURVE_BLOCK_ROWS + jitter, (peak, entries)


def test_in_process_bias_memory_does_not_grow_with_replicates(monkeypatch) -> None:
    # Each replicate's test sets and records are freed once scored; what is
    # kept is two MetricReports per replicate.
    monkeypatch.setattr(cores, "_available_cores", lambda: 1)
    sizes = (8, 2**14)
    bias_experiment(ORACLE_HET, replicates=1, sizes=sizes)  # one-time set-up runs untraced
    peaks = []
    for replicates in (1, 3):
        tracemalloc.start()
        try:
            bias_experiment(ORACLE_HET, replicates=replicates, sizes=sizes)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 16 * 1024, peaks


def test_evaluate_records_nan_under_constant_uncertainty() -> None:
    data = generate(DatasetKind.HOMOSCEDASTIC, Split.TEST, 64, 0)
    records = make_records(ORACLE_HOMO, data)
    with pytest.warns(RuntimeWarning, match="spearman undefined"):
        report = evaluate(records)
    assert math.isnan(report.spearman)
    assert math.isfinite(report.ause)
    assert math.isfinite(report.nll)


def test_stability_csv_format_and_nan_marker() -> None:
    data = generate(DatasetKind.HOMOSCEDASTIC, Split.TEST, 32, 0)
    with pytest.warns(RuntimeWarning):
        report = evaluate(make_records(ORACLE_HOMO, data))
    result = StabilityResult(sizes=(32,), reports=(report,))
    text = result.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "test_size,ause,spearman,nll,ece"
    cells = lines[1].split(",")
    assert cells[0] == "32"
    assert cells[2] == "nan"
    values = (report.ause, report.spearman, report.nll, report.ce)
    assert [struct.pack("<d", float(c)) for c in cells[1:]] == [struct.pack("<d", v) for v in values]
    assert result.to_csv(mean_prefix=True).startswith(
        "test_size,mean_ause,mean_spearman,mean_nll,mean_ece"
    )


def test_bias_single_replicate_matches_direct_evaluation() -> None:
    size = 64
    result = bias_experiment(ORACLE_HET, base_seed=5, replicates=1, sizes=(size,))
    seed = derive_seed(5, TAG_REPLICATE, 0, 0)
    data = generate(DatasetKind.HETEROSCEDASTIC, Split.TEST, size, seed)
    direct = evaluate(make_records(ORACLE_HET, data), EvalConfig())
    row = result.reports[0]
    assert row.ause == pytest.approx(direct.ause, rel=1e-12)
    assert row.nll == pytest.approx(direct.nll, rel=1e-12)


def test_bias_replicates_average_and_determinism() -> None:
    sizes = (8, 16)
    a = bias_experiment(ORACLE_HET, base_seed=2, replicates=3, sizes=sizes)
    b = bias_experiment(ORACLE_HET, base_seed=2, replicates=3, sizes=sizes)
    assert a == b
    assert a.sizes == sizes
    single = bias_experiment(ORACLE_HET, base_seed=2, replicates=1, sizes=sizes)
    assert a.reports[0].nll != single.reports[0].nll
    with pytest.raises(ValueError):
        bias_experiment(ORACLE_HET, replicates=0, sizes=sizes)


def serial_bias_experiment(predictor, kind, base_seed, replicates, eval_config, sizes):
    """Reference: every test set scored in this process, size by size."""
    means = []
    for size_ix, size in enumerate(sizes):
        reports = []
        for rep in range(replicates):
            seed = derive_seed(base_seed, TAG_REPLICATE, size_ix, rep)
            data = generate(kind, Split.TEST, size, seed)
            reports.append(evaluate(make_records(predictor, data), eval_config))
        mean = MetricReport(
            ause=float(np.mean([r.ause for r in reports])),
            ce=float(np.mean([r.ce for r in reports])),
            spearman=float(np.mean([r.spearman for r in reports])),
            nll=float(np.mean([r.nll for r in reports])),
        )
        means.append(mean)
    return StabilityResult(tuple(sizes), tuple(means))


@functools.cache
def _tiny_ensemble():
    train = generate(DatasetKind.HETEROSCEDASTIC, Split.TRAIN, 256, 0)
    return train_ensemble(train, TrainConfig(ensemble_size=2, epochs=1))


BIAS_CASES = {
    "oracle-uniform-average-7": lambda: (ORACLE_HET, 4, (8, 64), EvalConfig(
        7, WeightMode.UNIFORM, RankTieMode.AVERAGE)),
    "tiny-ensemble": lambda: (_tiny_ensemble(), 3, (8, 64), None),
    "three-replicates": lambda: (ORACLE_HET, 3, (8, 64, 4097), None),
}
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("case", sorted(BIAS_CASES))
@pytest.mark.parametrize("ncores", [1, 3])
def test_pooled_bias_is_bit_identical_to_in_process(monkeypatch, ncores, case) -> None:
    predictor, replicates, sizes, eval_config = BIAS_CASES[case]()
    # ncores=3 forces the worker pool even on a one-core machine
    monkeypatch.setattr(cores, "_available_cores", lambda: ncores)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    env = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    kind = DatasetKind.HETEROSCEDASTIC
    result = bias_experiment(predictor, kind, 3, replicates, eval_config, sizes)
    assert {name: os.environ.get(name) for name in BLAS_THREAD_VARS} == env
    expected = serial_bias_experiment(predictor, kind, 3, replicates, eval_config, sizes)
    assert result == expected
    assert result.to_csv(mean_prefix=True) == expected.to_csv(mean_prefix=True)


@pytest.mark.parametrize("ncores, replicates", [(4, 1), (1, 3)])
def test_bias_without_a_second_task_or_core_stays_in_process(monkeypatch, ncores, replicates) -> None:
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(cores, "_available_cores", lambda: ncores)
    monkeypatch.setattr(cores, "ProcessPoolExecutor", no_pool)
    result = bias_experiment(ORACLE_HET, base_seed=2, replicates=replicates, sizes=(8, 16))
    assert result == serial_bias_experiment(
        ORACLE_HET, DatasetKind.HETEROSCEDASTIC, 2, replicates, None, (8, 16))


def test_pooled_bias_warns_in_the_caller(monkeypatch) -> None:
    monkeypatch.setattr(cores, "_available_cores", lambda: 2)
    with pytest.warns(RuntimeWarning, match="spearman undefined"):
        result = bias_experiment(ORACLE_HOMO, DatasetKind.HOMOSCEDASTIC, replicates=2, sizes=(8, 16))
    assert all(math.isnan(report.spearman) for report in result.reports)


class FailingAtSizePredictor:
    """The heteroscedastic oracle, except that it raises on a test set of `size` rows."""

    def __init__(self, size: int):
        self.size = size

    def predict(self, x):
        if len(x) == self.size:
            raise ValueError(f"no prediction for {self.size} rows")
        return ORACLE_HET.predict(x)


def test_a_failing_pooled_bias_replicate_raises_and_leaves_no_workers(monkeypatch) -> None:
    # every replicate fails at its second size, with six replicates in a window of four
    monkeypatch.setattr(cores, "_available_cores", lambda: 2)
    with pytest.raises(ValueError, match="no prediction for 16 rows"):
        bias_experiment(FailingAtSizePredictor(16), replicates=6, sizes=(8, 16))
    assert multiprocessing.active_children() == []


def _bias_replicate_then_report_scipy(rep: int) -> bool:
    # a mixture's densities and CDFs, and every metric, as in a bias worker
    kind = DatasetKind.MULTIMODAL
    _bias_replicate(TrueDistributionPredictor(kind), kind, 0, EvalConfig(), (8, 4097), rep)
    return "scipy" in sys.modules


def test_bias_workers_never_import_scipy(monkeypatch) -> None:
    monkeypatch.setattr(cores, "_available_cores", lambda: 2)
    assert list(cores.map_on_cores(_bias_replicate_then_report_scipy, [0, 1])) == [False, False]


def test_sparsification_csv_layout() -> None:
    text = "".join(sparsification_csv(ORACLE_HET, DatasetKind.HETEROSCEDASTIC, base_seed=0, n=64))
    lines = text.strip().split("\n")
    assert lines[0] == "fraction,oracle,sparsification"
    assert len(lines) == 65
    first = [float(c) for c in lines[1].split(",")]
    assert first == [0.0, 1.0, 1.0]
    fractions = np.array([float(l.split(",")[0]) for l in lines[1:]])
    assert np.allclose(fractions, np.arange(64) / 64)
    oracle = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.all(np.diff(oracle) <= 1e-12)


def test_homoscedastic_oracle_curve_stays_flat_at_scale() -> None:
    n = 2**16
    data = generate(DatasetKind.HOMOSCEDASTIC, Split.TEST, n, 0)
    records = make_records(ORACLE_HOMO, data)
    from uqeval.metrics import sparsification_curve

    curve = sparsification_curve(records)
    half = curve.fractions <= 0.5
    assert np.all(curve.by_uncertainty[half] >= 0.95)
    assert np.all(curve.by_uncertainty[half] <= 1.05)


def test_density_grid_csv_two_by_two() -> None:
    text = "".join(density_grid_csv(ORACLE_HOMO, np.array([0.0, 0.5]), np.array([-1.0, 1.0])))
    lines = text.strip().split("\n")
    assert lines[0] == "x,y,z"
    assert len(lines) == 5
    # x is the outer loop
    assert [float(l.split(",")[0]) for l in lines[1:]] == [0.0, 0.0, 0.5, 0.5]
    assert [float(l.split(",")[1]) for l in lines[1:]] == [-1.0, 1.0, -1.0, 1.0]


def string_built_sparsification_csv(predictor, kind, base_seed, n) -> str:
    """Reference: the curve CSV as one string, one f-string per row."""
    records = make_records(predictor, generate(kind, Split.TEST, n, base_seed))
    curve = sparsification_curve(records)
    lines = ["fraction,oracle,sparsification"]
    for f, orc, unc in zip(curve.fractions, curve.by_oracle, curve.by_uncertainty):
        lines.append(f"{float(f)!r},{float(orc)!r},{float(unc)!r}")
    return "\n".join(lines) + "\n"


def grid_text(x_values, y_values, z) -> str:
    """Reference: the grid CSV of z[i, j] at (x[i], y[j]) as one string, one f-string per row."""
    lines = ["x,y,z"]
    for i, x in enumerate(x_values):
        for j, y in enumerate(y_values):
            lines.append(f"{float(x)!r},{float(y)!r},{float(z[i, j])!r}")
    return "\n".join(lines) + "\n"


def pointwise_log_densities(dist, nx: int, y_values) -> np.ndarray:
    """Reference: column j holds each x's distribution at y[j] alone, nothing broadcast."""
    z = np.empty((nx, len(y_values)))
    for j, y in enumerate(y_values):
        z[:, j] = dist.log_density(np.full(nx, y))
    return z


def test_streamed_sparsification_csv_equals_string_built_text() -> None:
    n = 2 * CSV_BLOCK_ROWS + 7  # a short last chunk
    chunks = list(sparsification_csv(ORACLE_HET, DatasetKind.HETEROSCEDASTIC, 3, n))
    assert len(chunks) == 4  # header and three blocks of rows
    expected = string_built_sparsification_csv(ORACLE_HET, DatasetKind.HETEROSCEDASTIC, 3, n)
    assert "".join(chunks) == expected


GRID_PREDICTORS = {  # each predictor with the dataset whose domain its grid spans
    "multimodal-oracle": (DatasetKind.MULTIMODAL,
                          lambda: TrueDistributionPredictor(DatasetKind.MULTIMODAL)),
    "heteroscedastic-oracle": (DatasetKind.HETEROSCEDASTIC, lambda: ORACLE_HET),
    "ensemble": (DatasetKind.HETEROSCEDASTIC, lambda: _tiny_ensemble()),
}


@pytest.mark.parametrize("nx, ny", [(CSV_BLOCK_ROWS + 5, 3), (3, CSV_BLOCK_ROWS + 5),
                                    (131, 257), (1, 1), (0, 3), (3, 0)])
@pytest.mark.parametrize("name", sorted(GRID_PREDICTORS))
def test_streamed_density_grid_csv_equals_string_built_text(name, nx, ny) -> None:
    # The predictor runs one forward chunk of x at a time (an ensemble's
    # bits then are those of one pass over all x), and z is filled in blocks
    # of y values, which must give the bits of one elementwise call per y
    # value.  An empty grid gives the header alone.
    kind, make_predictor = GRID_PREDICTORS[name]
    predictor = make_predictor()
    xs = np.linspace(*kind.domain, nx)
    ys = np.linspace(-2.0, 2.0, ny)
    chunks = list(density_grid_csv(predictor, xs, ys))
    assert all(c.count("\n") <= CSV_BLOCK_ROWS for c in chunks)
    pointwise = pointwise_log_densities(predictor.predict(xs), nx, ys)
    assert "".join(chunks) == grid_text(xs, ys, pointwise)


def test_density_grid_names_its_first_non_finite_cell_in_row_order() -> None:
    # Two x values fill z in blocks of FORWARD_CHUNK_ROWS // 2 y values.  At
    # x = 1/3 the heteroscedastic variance is floored to 1e-12, so y = 1e150
    # already underflows there, in the first y block; at x = 0 only y =
    # 1e160, in the second y block, does.  The latter comes first in row order.
    xs = np.array([0.0, 1 / 3])
    ys = np.zeros(FORWARD_CHUNK_ROWS // 2 + 2)
    ys[0], ys[-1] = 1e150, 1e160
    with np.errstate(over="ignore"), pytest.raises(ValueError) as err:
        density_grid_csv(ORACLE_HET, xs, ys)
    assert str(err.value) == "log density -inf at x 0.0, y 1e+160"


@pytest.mark.parametrize("nx, ny", [(300, 200), (600, 500), (4 * CSV_BLOCK_ROWS, 2),
                                    (8 * CSV_BLOCK_ROWS, 2), (2, 8 * CSV_BLOCK_ROWS)])
@pytest.mark.parametrize("ncores", [1, 2])
def test_density_grid_memory_is_the_grid_plus_one_chunk(monkeypatch, ncores, nx, ny) -> None:
    # Beyond z (8 bytes a cell), a grid holds the temporaries of one chunk:
    # the prediction and log densities of one forward chunk of cells and
    # the text of about CSV_BLOCK_ROWS cells, or on two cores, from (600,
    # 500) on, the pool's window of chunks.  The tall grids check that no
    # temporary spans all x: the prediction over all x, or one y value's
    # mixture log density over all x (about 120 bytes an x), would exceed
    # the bound.  The wide grid checks the same for all y of one x value.
    monkeypatch.setattr(cores, "_available_cores", lambda: ncores)
    predictor = TrueDistributionPredictor(DatasetKind.MULTIMODAL)
    xs, ys = np.linspace(0.0, 1.0, nx), np.linspace(-2.0, 2.0, ny)
    list(density_grid_csv(predictor, xs[:2], ys[:2]))  # one-time set-up runs untraced
    tracemalloc.start()
    try:
        for _ in density_grid_csv(predictor, xs, ys):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 8 * nx * ny + 384 * CSV_BLOCK_ROWS


# ----------------------------------------------------------------- manifests

def test_manifest_round_trip_and_hashes(tmp_path) -> None:
    artifact = tmp_path / "out.csv"
    artifact.write_text("x,y\n1.0,2.0\n", encoding="utf-8")
    manifest = make_manifest(
        "generate",
        ["generate", "--dataset", "homoscedastic", "--out", str(artifact)],
        {"dataset": "homoscedastic", "n": 1, "seed": 0},
        [artifact],
    )
    assert manifest.outputs[0]["sha256"] == sha256_file(artifact)
    path = tmp_path / "m.json"
    path.write_text(manifest.to_json(), encoding="utf-8")
    back = read_manifest(path)
    assert back.command == "generate"
    assert back.argv == manifest.argv
    assert back.outputs == manifest.outputs
    assert back.config_hash == manifest.config_hash


@pytest.mark.parametrize("text, problem", [
    ('{"command": "eval"}', "(KeyError('argv'))"),
    ('{"command": "eval",', "(JSONDecodeError("),
    ('["eval"]', "(TypeError("),
], ids=["missing-field", "not-json", "not-an-object"])
def test_read_manifest_names_the_file(tmp_path, text, problem) -> None:
    path = tmp_path / "m.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        read_manifest(path)
    assert str(info.value).startswith(f"manifest {path}: not a run manifest {problem}")


def test_manifest_json_is_stable_and_config_hash_sensitive(tmp_path) -> None:
    artifact = tmp_path / "a.txt"
    artifact.write_text("data", encoding="utf-8")
    m1 = make_manifest("eval", ["eval"], {"n": 5}, [artifact])
    m2 = make_manifest("eval", ["eval"], {"n": 5}, [artifact])
    assert m1.to_json() == m2.to_json()
    m3 = make_manifest("eval", ["eval"], {"n": 6}, [artifact])
    assert m1.config_hash != m3.config_hash
    payload = json.loads(m1.to_json())
    assert payload["manifest_version"] == 1
