import errno
import io
import json
import multiprocessing
import os
import struct
import subprocess
import sys
import tracemalloc
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import uqeval
import uqeval.cli
import uqeval.datasets
import uqeval.experiments
from uqeval import cores
from uqeval.cli import build_parser, run
from uqeval.datasets import CSV_BLOCK_ROWS, POOL_MIN_CELLS, DatasetKind, Split, generate
from uqeval.experiments import read_manifest, sha256_file
from uqeval.metrics import CURVE_BLOCK_ROWS, REPORT_HEADER, evaluate
from uqeval.predictors import TrueDistributionPredictor, make_records


@pytest.fixture(scope="module")
def model_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "de.npz"
    code = run(["train", "--dataset", "homoscedastic", "--n", "128",
                "--seed", "0", "--out", str(path)])
    assert code == 0
    return path


def test_generate_writes_dataset_and_manifest(tmp_path) -> None:
    out = tmp_path / "data.csv"
    code = run(["generate", "--dataset", "multimodal", "--split", "test",
                "--n", "50", "--seed", "3", "--out", str(out)])
    assert code == 0
    xs, ys = np.loadtxt(out, delimiter=",", skiprows=1, unpack=True)
    direct = generate(DatasetKind.MULTIMODAL, Split.TEST, 50, 3)
    assert xs.tobytes() == direct.xs.tobytes()
    assert ys.tobytes() == direct.ys.tobytes()
    manifest = read_manifest(f"{out}.manifest.json")
    assert manifest.command == "generate"
    assert manifest.parameters["n"] == 50
    assert manifest.outputs[0]["sha256"] == sha256_file(out)


def test_generate_split_defaults(tmp_path) -> None:
    out = tmp_path / "train.csv"
    code = run(["generate", "--dataset", "epistemic", "--split", "train",
                "--n", "200", "--seed", "1", "--out", str(out)])
    assert code == 0
    xs, ys = np.loadtxt(out, delimiter=",", skiprows=1, unpack=True)
    assert len(xs) == 200
    assert not ((xs >= 0.35) & (xs <= 0.65)).any()


def test_usage_errors_exit_1(tmp_path, capsys) -> None:
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err
    assert run(["generate", "--dataset", "nonsense", "--out", "x.csv"]) == 1
    assert "usage" in capsys.readouterr().err
    assert run(["generate", "--dataset", "multimodal", "--frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert run(["no-such-command"]) == 1


@pytest.mark.parametrize("argv", [
    ["eval", "--dataset", "multimodal", "--n", "0"],
    ["eval", "--dataset", "multimodal", "--n", "-3"],
    ["eval", "--dataset", "multimodal", "--n", "ten"],
    ["sparsify", "--dataset", "multimodal", "--n", "0"],
    ["train", "--dataset", "homoscedastic", "--n", "0"],
    ["generate", "--dataset", "multimodal", "--n", "-1"],
    ["bias", "--replicates", "0"],
    ["eval", "--dataset", "multimodal", "--thresholds", "1"],
    ["density-grid", "--dataset", "multimodal", "--nx", "0"],
    ["density-grid", "--dataset", "multimodal", "--ny", "0"],
])
def test_out_of_range_counts_are_usage_errors(tmp_path, capsys, argv) -> None:
    assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 1
    assert "usage" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("bounds", [["--x-min", "-5"], ["--x-max", "1.5"], ["--x-min", "nan"]])
def test_oracle_density_grid_outside_the_domain_is_a_usage_error(tmp_path, capsys, bounds) -> None:
    argv = ["density-grid", "--dataset", "homoscedastic", "--nx", "3", "--ny", "3", *bounds]
    assert run(argv + ["--out", str(tmp_path / "out.csv")]) == 1
    assert "oracle is defined on [-1.0, 1.0] only" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def _grid_error(x_min, x_max, y_min, y_max) -> str:
    return (f"error: the log predictive density is not finite on --x-min {float(x_min)} "
            f"--x-max {float(x_max)} --y-min {float(y_min)} --y-max {float(y_max)} (")


def _run_printing_warnings(argv) -> int:
    """run(argv) with every warning printed to stderr, as a fresh interpreter prints it."""

    def show(message, category, filename, lineno, file=None, line=None):
        sys.stderr.write(warnings.formatwarning(message, category, filename, lineno, line))

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show
        return run(argv)


def _model_flag(predictor, model_path) -> list[str]:
    """--model-path for the ensemble; the oracle refuses it."""
    return ["--model-path", str(model_path)] if predictor == "ensemble" else []


@pytest.mark.parametrize("predictor", ["oracle", "ensemble"])
@pytest.mark.parametrize("flag, value", [("--x-min", "nan"), ("--x-max", "inf"), ("--y-min", "nan"),
                                         ("--y-max", "inf"), ("--y-min", "-inf")])
def test_non_finite_density_grid_bounds_are_usage_errors(tmp_path, capsys, model_path,
                                                         predictor, flag, value) -> None:
    argv = ["density-grid", "--dataset", "multimodal", "--nx", "2", "--ny", "2", f"{flag}={value}",
            "--predictor", predictor, *_model_flag(predictor, model_path),
            "--out", str(tmp_path / "g.csv")]
    assert _run_printing_warnings(argv) == 1
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    if not (predictor == "oracle" and flag.startswith("--x")):  # outside the oracle's domain
        x_min, x_max = DatasetKind.MULTIMODAL.domain
        bounds = {"--x-min": x_min, "--x-max": x_max, "--y-min": -2.0, "--y-max": 2.0, flag: value}
        assert _grid_error(*bounds.values()) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("predictor", ["oracle", "ensemble"])
def test_overflowing_density_grid_span_is_a_usage_error(tmp_path, capsys, model_path,
                                                        predictor) -> None:
    argv = ["density-grid", "--dataset", "multimodal", "--nx", "2", "--ny", "3",
            "--y-min=-1e308", "--y-max", "1e308", "--predictor", predictor,
            *_model_flag(predictor, model_path), "--out", str(tmp_path / "big.csv")]
    assert _run_printing_warnings(argv) == 1
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert _grid_error(*DatasetKind.MULTIMODAL.domain, -1e308, 1e308) in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("dataset, predictor", [
    ("homoscedastic", "oracle"), ("homoscedastic", "ensemble"), ("multimodal", "oracle"),
], ids=["oracle", "ensemble", "multimodal-oracle"])
def test_density_grid_whose_density_underflows_is_a_usage_error(tmp_path, capsys, model_path,
                                                               dataset, predictor) -> None:
    # finite bounds and span, but at y = -1e200 the log density is -inf; for
    # the two-component oracle, every term of its log-sum-exp is -inf there
    argv = ["density-grid", "--dataset", dataset, "--y-min=-1e200", "--y-max", "1e200",
            "--nx", "3", "--ny", "2", "--predictor", predictor, *_model_flag(predictor, model_path),
            "--out", str(tmp_path / "grid.csv")]
    assert _run_printing_warnings(argv) == 1
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    x_min, x_max = DatasetKind(dataset).domain
    assert (_grid_error(x_min, x_max, -1e200, 1e200)
            + f"log density -inf at x {x_min}, y -1e+200)") in err
    assert list(tmp_path.iterdir()) == []


def test_negative_bounds_in_scientific_notation_are_numbers(tmp_path) -> None:
    argv = ["density-grid", "--dataset", "multimodal", "--nx", "2", "--ny", "3", "--y-max", "1"]
    assert run(argv + ["--y-min", "-0.001", "--out", str(tmp_path / "decimal.csv")]) == 0
    assert run(argv + ["--y-min", "-1e-3", "--out", str(tmp_path / "scientific.csv")]) == 0
    decimal = (tmp_path / "decimal.csv").read_bytes()
    assert (tmp_path / "scientific.csv").read_bytes() == decimal


def test_generate_accepts_zero_rows(tmp_path) -> None:
    out = tmp_path / "empty.csv"
    assert run(["generate", "--dataset", "multimodal", "--n", "0", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == "x,y\n"


def test_eval_requires_model_path_for_ensemble(capsys) -> None:
    assert run(["eval", "--dataset", "multimodal", "--predictor", "ensemble"]) == 1
    assert "--model-path" in capsys.readouterr().err


@pytest.mark.parametrize("exists", [True, False], ids=["model", "missing"])
@pytest.mark.parametrize("command", ["eval", "stability", "bias", "sparsify", "density-grid"])
def test_model_path_without_ensemble_is_a_usage_error(tmp_path, capsys, model_path,
                                                      command, exists) -> None:
    path = model_path if exists else tmp_path / "missing.npz"
    for predictor in ([], ["--predictor", "oracle"]):  # the default predictor, then named
        argv = [command, "--dataset", "homoscedastic", *predictor, "--model-path", str(path),
                "--out", str(tmp_path / "out.csv")]
        assert run(argv) == 1
        assert "--model-path is read only with --predictor ensemble" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_runtime_failures_exit_2(tmp_path, capsys) -> None:
    missing = tmp_path / "missing.npz"
    code = run(["eval", "--dataset", "multimodal", "--predictor", "ensemble",
                "--model-path", str(missing), "--n", "16"])
    assert code == 2
    assert "error" in capsys.readouterr().err

    unwritable = tmp_path / "no" / "such" / "dir" / "out.csv"
    code = run(["generate", "--dataset", "multimodal", "--n", "4",
                "--out", str(unwritable)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(unwritable) in err  # the failed write names its target
    assert ".tmp" not in err


def test_unwritable_out_fails_before_the_command_runs(tmp_path, monkeypatch, capsys) -> None:
    def no_training(*args, **kwargs):
        raise AssertionError("train_ensemble was called")

    monkeypatch.setattr(uqeval.cli, "train_ensemble", no_training)
    missing = tmp_path / "missing" / "m.npz"
    manifest_dir = tmp_path / "m.npz.manifest.json"
    manifest_dir.mkdir()
    cases = [(missing, missing), (tmp_path, tmp_path), ("", ""),  # a missing directory, a
             (tmp_path / "m.npz", manifest_dir)]  # directory, no name, a manifest directory
    for out, named in cases:
        code = run(["train", "--dataset", "homoscedastic", "--n", "64", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(str(named)) in err
        assert ".tmp" not in err
    assert list(tmp_path.iterdir()) == [manifest_dir]
    assert list(manifest_dir.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["eval", "--dataset", "homoscedastic", "--predictor", "ensemble"],  # no --model-path
    ["density-grid", "--dataset", "multimodal", "--x-min", "1", "--x-max", "0"],  # empty range
])
def test_unwritable_out_takes_precedence_over_a_usage_error(tmp_path, capsys, argv) -> None:
    out = tmp_path / "missing" / "a.csv"
    assert run(argv) == 1
    capsys.readouterr()
    assert run(argv + ["--out", str(out)]) == 2
    assert repr(str(out)) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_eval_oracle_to_stdout(capsys) -> None:
    code = run(["eval", "--dataset", "heteroscedastic", "--n", "512", "--seed", "0"])
    assert code == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().split("\n")
    assert lines[0] == "dataset,predictor,ause,ce,spearman,nll"
    cells = lines[1].split(",")
    assert cells[:2] == ["heteroscedastic", "oracle"]
    assert all(np.isfinite(float(c)) for c in cells[2:])
    manifest = json.loads(captured.err)
    assert manifest["command"] == "eval"
    assert manifest["outputs"] == []


# homoscedastic: tied oracle uncertainties, so spearman is nan
@pytest.mark.parametrize("kind", [DatasetKind.HETEROSCEDASTIC, DatasetKind.HOMOSCEDASTIC])
def test_eval_row_is_the_evaluate_report(tmp_path, kind) -> None:
    out = tmp_path / "report.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run(["eval", "--dataset", kind.value, "--n", "256", "--seed", "4",
                    "--out", str(out)]) == 0
        data = generate(kind, Split.TEST, 256, 4)
        report = evaluate(make_records(TrueDistributionPredictor(kind), data))
    expected = f"{REPORT_HEADER}\n{report.csv_row(kind.value, 'oracle')}\n"
    assert out.read_text(encoding="utf-8") == expected


def test_eval_flags_change_the_report(tmp_path) -> None:
    base = tmp_path / "a.csv"
    other = tmp_path / "b.csv"
    argv = ["eval", "--dataset", "heteroscedastic", "--n", "512", "--seed", "0"]
    assert run(argv + ["--out", str(base)]) == 0
    assert run(argv + ["--weights", "uniform", "--thresholds", "50",
                       "--tie-mode", "average", "--out", str(other)]) == 0
    a = base.read_text(encoding="utf-8").strip().split("\n")[1].split(",")
    b = other.read_text(encoding="utf-8").strip().split("\n")[1].split(",")
    assert a[2] == b[2]  # ause unchanged
    assert a[3] != b[3]  # ce responds to weighting
    assert a[5] == b[5]  # nll unchanged


def test_eval_ensemble_with_trained_model(tmp_path, model_path) -> None:
    out = tmp_path / "report.csv"
    code = run(["eval", "--dataset", "homoscedastic", "--predictor", "ensemble",
                "--model-path", str(model_path), "--n", "256", "--seed", "1",
                "--out", str(out)])
    assert code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    cells = lines[1].split(",")
    assert cells[:2] == ["homoscedastic", "ensemble"]
    manifest = read_manifest(f"{out}.manifest.json")
    assert manifest.parameters["model_sha256"] == sha256_file(model_path)


def test_train_manifest_records_configuration(model_path) -> None:
    manifest = read_manifest(f"{model_path}.manifest.json")
    assert manifest.command == "train"
    assert manifest.parameters["ensemble_size"] == 5
    assert manifest.parameters["epochs"] == 20
    assert manifest.outputs[0]["sha256"] == sha256_file(model_path)


MODEL, OUT = "<model>", "<out>"  # replaced by the trained model's path and a fresh --out path
ENSEMBLE = ["--predictor", "ensemble", "--model-path", MODEL]


@pytest.mark.parametrize(
    "argv, resolved",
    [
        (["generate", "--dataset", "epistemic", "--split", "train", "--out", OUT], {"n": 10_000}),
        (["generate", "--dataset", "epistemic", "--out", OUT], {"n": 2**16}),
        (["train"], {"ensemble_size": 5, "epochs": 20, "batch_size": 128, "learning_rate": 1e-3}),
        (["eval", "--dataset", "heteroscedastic", "--n", "64", "--tie-mode", "average"], {}),
        (["eval", "--dataset", "homoscedastic", "--n", "64", *ENSEMBLE, "--out", OUT], {}),
        (["stability", "--seed", "2", "--out", OUT], {}),
        (["bias", "--replicates", "1", "--out", OUT], {}),
        (["sparsify", "--dataset", "homoscedastic", "--n", "32", *ENSEMBLE, "--out", OUT], {}),
        (["density-grid", "--dataset", "multimodal", "--nx", "2", "--ny", "2", "--out", OUT],
         {"x_min": 0.0, "x_max": 1.0}),
        (["density-grid", "--dataset", "homoscedastic", "--x-min=-0.5", "--x-max", "0.25",
          "--nx", "2", "--ny", "2", "--out", OUT], {}),
    ],
    ids=["generate-train-default-n", "generate-test-default-n", "train", "eval-stdout",
         "eval-ensemble", "stability", "bias", "sparsify-ensemble", "density-grid-default-x",
         "density-grid-x-bounds"],
)
def test_manifest_parameters_are_the_set_options(tmp_path, capsys, model_path,
                                                 argv, resolved) -> None:
    out = tmp_path / "out.csv"
    argv = [{MODEL: str(model_path), OUT: str(out)}.get(arg, arg) for arg in argv]
    if argv == ["train"]:  # the module's model, trained once
        manifest = json.loads(Path(f"{model_path}.manifest.json").read_text(encoding="utf-8"))
    elif "--out" in argv:
        assert run(argv) == 0
        manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
    else:  # the report goes to stdout, its manifest to stderr
        assert run(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(REPORT_HEADER)
        manifest = json.loads(captured.err)
        assert manifest["outputs"] == []
    options = vars(build_parser().parse_args(manifest["argv"]))
    expected = {key: value for key, value in options.items()
                if key not in ("command", "out") and value is not None}
    if "--model-path" in argv:
        expected["model_sha256"] = sha256_file(model_path)
    assert manifest["parameters"] == {**expected, **resolved}


def test_sparsify_and_density_grid(tmp_path, model_path) -> None:
    sparse = tmp_path / "curve.csv"
    code = run(["sparsify", "--dataset", "heteroscedastic", "--n", "64",
                "--seed", "0", "--out", str(sparse)])
    assert code == 0
    lines = sparse.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "fraction,oracle,sparsification"
    assert len(lines) == 65

    grid = tmp_path / "grid.csv"
    code = run(["density-grid", "--dataset", "homoscedastic", "--nx", "3",
                "--ny", "2", "--out", str(grid), "--predictor", "ensemble",
                "--model-path", str(model_path)])
    assert code == 0
    lines = grid.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "x,y,z"
    assert len(lines) == 7
    xs = [float(l.split(",")[0]) for l in lines[1:]]
    assert xs[0] == -1.0 and xs[-1] == 1.0  # defaults to the dataset domain

    # the network is defined everywhere, so only the oracle is held to the domain
    code = run(["density-grid", "--dataset", "homoscedastic", "--x-min", "-5", "--nx", "3",
                "--ny", "2", "--out", str(grid), "--predictor", "ensemble",
                "--model-path", str(model_path)])
    assert code == 0
    assert grid.read_text(encoding="utf-8").split("\n")[1].startswith("-5.0,")

    assert run(["density-grid", "--dataset", "homoscedastic", "--nx", "0",
                "--out", str(grid)]) == 1


@pytest.mark.parametrize("n", [2**14, 2**18])
@pytest.mark.parametrize("command, module, scorer", [
    ("eval", uqeval.cli, "evaluate"),
    ("sparsify", uqeval.experiments, "sparsification_curve"),
], ids=["eval", "sparsify"])
def test_scoring_runs_beside_the_records_alone(tmp_path, monkeypatch, n, command, module,
                                               scorer) -> None:
    # The test set is freed before the metrics run: from 16 rows to n, what a
    # command holds on entry to the scorer grows by the four record arrays
    # alone, and while it scores it adds at most the bound that
    # test_metric_memory_is_four_arrays_plus_one_block holds each metric to.
    argv = [command, "--dataset", "multimodal", "--seed", "0", "--out", str(tmp_path / "o.csv")]
    assert run([*argv, "--n", "16"]) == 0  # one-time set-up runs before anything is traced
    seen, real = [], getattr(module, scorer)

    def traced(records, *args):
        entry = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = real(records, *args)
        seen.append((entry, tracemalloc.get_traced_memory()[1]))
        return result

    monkeypatch.setattr(module, scorer, traced)
    for rows in (16, n):
        tracemalloc.start()
        try:
            assert run([*argv, "--n", str(rows)]) == 0
        finally:
            tracemalloc.stop()
    (small, _), (entry, peak) = seen
    jitter = 16 * 1024
    assert entry - small <= 4 * 8 * (n - 16) + jitter, seen
    assert peak - entry <= 4 * 8 * n + n + 8 * 8 * CURVE_BLOCK_ROWS + jitter, seen


@pytest.mark.parametrize("bound", ["1e300", "1e200"])
def test_density_grid_where_the_ensemble_overflows_is_a_usage_error(
    tmp_path, model_path, capsys, bound
) -> None:
    grid = tmp_path / "grid.csv"
    code = _run_printing_warnings(
        ["density-grid", "--dataset", "homoscedastic", "--predictor", "ensemble",
         "--model-path", str(model_path), f"--x-min=-{bound}", "--x-max", bound,
         "--nx", "3", "--ny", "2", "--out", str(grid)])
    assert code == 1
    err = capsys.readouterr().err
    assert "RuntimeWarning" not in err
    assert _grid_error(f"-{bound}", bound, -2, 2) in err
    assert list(tmp_path.iterdir()) == []


def test_artifacts_regenerate_byte_identically(tmp_path, model_path) -> None:
    commands = [
        ["generate", "--dataset", "heteroscedastic", "--n", "64", "--seed", "7",
         "--out", str(tmp_path / "d.csv")],
        ["eval", "--dataset", "epistemic", "--n", "128", "--seed", "7",
         "--out", str(tmp_path / "e.csv")],
        ["sparsify", "--dataset", "multimodal", "--n", "32", "--seed", "7",
         "--out", str(tmp_path / "s.csv")],
        ["density-grid", "--dataset", "epistemic", "--nx", "2", "--ny", "2",
         "--out", str(tmp_path / "g.csv")],
    ]
    for argv in commands:
        assert run(argv) == 0
        out = argv[argv.index("--out") + 1]
        manifest = read_manifest(f"{out}.manifest.json")
        recorded = manifest.outputs[0]["sha256"]
        # wipe and regenerate purely from the manifest's recorded argv
        os.remove(out)
        assert run(list(manifest.argv)) == 0
        assert sha256_file(out) == recorded


@pytest.mark.parametrize("command", ["generate", "sparsify"])
def test_formatter_failure_mid_stream_leaves_no_files(tmp_path, monkeypatch, capsys, command) -> None:
    real_rows = uqeval.datasets.csv_rows
    blocks = []

    def failing_rows(columns):
        blocks.append(len(columns[0]))
        if len(blocks) == 2:
            raise RuntimeError("formatter failed")
        return real_rows(columns)

    monkeypatch.setattr(uqeval.datasets, "csv_rows", failing_rows)
    out = tmp_path / "out.csv"
    code = run([command, "--dataset", "heteroscedastic", "--n", str(3 * CSV_BLOCK_ROWS),
                "--out", str(out)])
    assert code == 2
    assert "error: formatter failed" in capsys.readouterr().err
    assert blocks == [CSV_BLOCK_ROWS, CSV_BLOCK_ROWS]  # failed after one chunk was written
    assert list(tmp_path.iterdir()) == []  # no out, no out.manifest.json, no temp file


def test_failed_rerun_keeps_the_previous_artifact(tmp_path, monkeypatch) -> None:
    out = tmp_path / "data.csv"
    argv = ["generate", "--dataset", "multimodal", "--n", str(2 * CSV_BLOCK_ROWS), "--out", str(out)]
    assert run(argv) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}

    def failing_rows(columns):
        raise RuntimeError("formatter failed")

    monkeypatch.setattr(uqeval.datasets, "csv_rows", failing_rows)
    assert run(argv) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class _DiskFullAfterOneBlock:
    """A text file whose writelines raises ENOSPC once the header and one block are written."""

    def __init__(self, path, *args, **kwargs):
        self.path, self.fh = path, open(path, *args, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def writelines(self, lines):
        for i, line in enumerate(lines):
            if i == 2:
                raise OSError(errno.ENOSPC, "No space left on device", self.path)
            self.fh.write(line)


@pytest.mark.parametrize("argv", [
    ["sparsify", "--dataset", "heteroscedastic", "--n", str(POOL_MIN_CELLS // 3)],
    ["generate", "--dataset", "heteroscedastic", "--n", str(POOL_MIN_CELLS // 2)],
    ["density-grid", "--dataset", "multimodal", "--nx", "513", "--ny", "512"],
], ids=lambda argv: argv[0])
def test_pooled_write_failure_leaves_no_files_and_no_workers(tmp_path, monkeypatch, capsys,
                                                            argv) -> None:
    # the disk fills once the header and the first block of rows are written,
    # with the pool's window of later blocks in flight
    monkeypatch.setattr(cores, "_available_cores", lambda: 2)
    monkeypatch.setattr(uqeval.cli, "open", _DiskFullAfterOneBlock, raising=False)
    out = tmp_path / "out.csv"
    code = run(argv + ["--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"No space left on device: {str(out)!r}" in err
    assert list(tmp_path.iterdir()) == []  # no out, no out.manifest.json, no temp file
    assert multiprocessing.active_children() == []


@dataclass(frozen=True)
class _ZipBytes:
    """An edit of the saved archive's bytes, a bytearray, rather than of its arrays."""

    edit: Callable[[bytearray], None]


def _corrupt_model(src, dst, edit) -> None:
    if isinstance(edit, _ZipBytes):
        data = bytearray(src.read_bytes())
        edit.edit(data)
        dst.write_bytes(data)
        return
    with np.load(src) as archive:
        arrays = {key: archive[key] for key in archive.files}
    edit(arrays)
    with open(dst, "wb") as fh:
        np.savez(fh, **arrays)


def _nan_weight(arrays) -> None:
    arrays["member2_w3"] = arrays["member2_w3"].copy()
    arrays["member2_w3"][7, 11] = np.nan


def _wrong_shape(arrays) -> None:
    arrays["member0_w1"] = arrays["member0_w1"][:, :128]


def _nan_history(arrays) -> None:
    arrays["history"] = arrays["history"].copy()
    arrays["history"][3, 19] = np.nan


def _as_object(arrays, key) -> None:
    arrays[key] = arrays[key].astype(object)  # saved pickled; np.load refuses it by default


def _edit_config(arrays, **changes) -> None:
    """Sets config_json keys to the given values; None removes the key."""
    meta = json.loads(str(arrays["config_json"]))
    meta.update(changes)
    meta = {key: value for key, value in meta.items() if value is not None}
    arrays["config_json"] = np.array(json.dumps(meta, sort_keys=True))


def _central_entry(data: bytearray, name: str) -> int:
    """Offset of `name`'s record in the zip central directory (the archive has no comment)."""
    offset = struct.unpack_from("<I", data, len(data) - 6)[0]  # from the end-of-directory record
    while True:
        name_len, extra_len, comment_len = struct.unpack_from("<3H", data, offset + 28)
        if data[offset + 46 : offset + 46 + name_len] == name.encode():
            return offset
        offset += 46 + name_len + extra_len + comment_len


def _set_field(data: bytearray, offset: int, value: int | None = None, bits: int = 0) -> None:
    """Sets the 2-byte field at `offset` to `value`, or ors `bits` into it."""
    old = struct.unpack_from("<H", data, offset)[0]
    struct.pack_into("<H", data, offset, (old if value is None else value) | bits)


def _entry_field(name: str, at: int, value: int | None = None, bits: int = 0) -> _ZipBytes:
    """An edit of the 2-byte field `at` bytes into `name`'s central directory record."""
    return _ZipBytes(lambda data: _set_field(data, _central_entry(data, name) + at, value, bits))


def _move_central_directory(data: bytearray) -> None:
    # zipfile reads the directory where it ends, so every entry offset moves 1 MiB before the file
    offset = struct.unpack_from("<I", data, len(data) - 6)[0]
    struct.pack_into("<I", data, len(data) - 6, offset + 2**20)


def _deflated_invalid_block(data: bytearray) -> None:
    entry = _central_entry(data, "format.npy")
    _set_field(data, entry + 10, 8)  # compression method: deflate
    local = struct.unpack_from("<I", data, entry + 42)[0]
    name_len, extra_len = struct.unpack_from("<2H", data, local + 26)
    data[local + 30 + name_len + extra_len] = 0xFF  # a deflate block of the reserved type 3


def _undecodable_name(data: bytearray) -> None:
    entry = _central_entry(data, "format.npy")
    _set_field(data, entry + 8, bits=0x800)  # flag bit 11: the name is UTF-8
    data[entry + 46] = 0xD9


def _npy_file(data: bytearray) -> None:
    buffer = io.BytesIO()
    np.save(buffer, np.zeros(3))
    data[:] = buffer.getvalue()


# Central directory record fields: version needed 6, flags 8, compression method 10
ZIP_READ_ERRORS = {
    "zip-version": (_entry_field("format.npy", 6, 255), "(zip file version 25.5)"),
    "compression-method": (_entry_field("format.npy", 10, 99),
                           "(That compression method is not supported)"),
    "flag-bit-5": (_entry_field("format.npy", 8, bits=0x20),
                   "(compressed patched data (flag bit 5))"),
    "flag-bit-6": (_entry_field("format.npy", 8, bits=0x40), "(strong encryption (flag bit 6))"),
    "encrypted": (_entry_field("member0_w2.npy", 8, bits=0x01),
                  "(File 'member0_w2.npy' is encrypted, password required for extraction)"),
    "entry-offset": (_ZipBytes(_move_central_directory), "([Errno 22] Invalid argument)"),
    "deflate-error": (_ZipBytes(_deflated_invalid_block),
                      "(Error -3 while decompressing data: invalid block type)"),
    "lzma-error": (_entry_field("member0_w1.npy", 10, 14), "(Invalid or unsupported options)"),
    "undecodable-name": (_ZipBytes(_undecodable_name), "('utf-8' codec can't decode byte 0xd9 "
                         "in position 0: invalid continuation byte)"),
    "npy-file": (_ZipBytes(_npy_file), "(File is not a zip file)"),
}


@pytest.mark.parametrize(
    "edit, problem",
    [
        *[(edit, f"not a readable .npz archive {problem}")
          for edit, problem in ZIP_READ_ERRORS.values()],
        (_nan_weight, "'member2_w3' has non-finite values"),
        (lambda arrays: arrays.pop("member4_b2"), "missing array 'member4_b2'"),
        (_wrong_shape, "'member0_w1' is float64 (256, 128), expected float64 (256, 256)"),
        (lambda arrays: arrays.update(config_json=np.array('{"seed": 0}')),
         "malformed config_json (KeyError('ensemble_size'))"),
        (partial(_edit_config, epochs=0), "must be positive, got 5, 0 and 128"),
        (partial(_edit_config, eps=None), "malformed config_json (KeyError('eps'))"),
        (partial(_edit_config, epochs=2.7), "config_json 'epochs' must be an integer, got 2.7"),
        (partial(_edit_config, epochs="3"), "config_json 'epochs' must be an integer, got '3'"),
        (partial(_edit_config, epochs=True), "config_json 'epochs' must be an integer, got True"),
        (partial(_edit_config, ensemble_size=2.9),
         "config_json 'ensemble_size' must be an integer, got 2.9"),
        (partial(_edit_config, batch_size=128.0),
         "config_json 'batch_size' must be an integer, got 128.0"),
        (partial(_edit_config, seed=False), "config_json 'seed' must be an integer, got False"),
        (partial(_edit_config, learning_rate="0.001"),
         "config_json 'learning_rate' must be a finite number, got '0.001'"),
        (partial(_edit_config, beta1=True), "config_json 'beta1' must be a finite number, got True"),
        (partial(_edit_config, eps=float("nan")), "config_json 'eps' must be a finite number, got nan"),
        (lambda arrays: arrays.update(history=arrays["history"][:, :19]),
         "array 'history' is float64 (5, 19), expected float64 (5, 20)"),
        (lambda arrays: arrays.update(history=arrays["history"].astype(str)),
         "array 'history' is <U"),
        (_nan_history, "array 'history' has non-finite values"),
        (partial(_edit_config, ensemble_size=4),
         "array 'member4_b0' is not one save_ensemble writes for the 4 members config_json declares"),
        (lambda arrays: arrays.update(member7_w0=arrays["member0_w0"]),
         "array 'member7_w0' is not one save_ensemble writes for the 5 members config_json declares"),
        (lambda arrays: arrays.update(notes=np.array("hand edited")),
         "array 'notes' is not one save_ensemble writes for the 5 members config_json declares"),
        *[(partial(_as_object, key=key), f"array {key!r} cannot be read")
          for key in ("format", "config_json", "history", "member0_w0")],
    ],
    ids=[*ZIP_READ_ERRORS, "nan-weight", "missing-key", "wrong-shape", "bad-config",
         "zero-epochs", "no-eps", "float-epochs", "string-epochs", "bool-epochs",
         "float-ensemble-size", "float-batch-size", "bool-seed", "string-learning-rate",
         "bool-beta1", "nan-eps", "short-history", "string-history", "nan-history", "extra-member", "skipped-member", "stray-key",
         "object-format", "object-config", "object-history", "object-weight"],
)
def test_eval_rejects_bad_model_file(tmp_path, model_path, capsys, edit, problem) -> None:
    bad = tmp_path / "bad.npz"
    _corrupt_model(model_path, bad, edit)
    code = run(["eval", "--dataset", "homoscedastic", "--predictor", "ensemble",
                "--model-path", str(bad), "--n", "16"])
    assert code == 2
    captured = capsys.readouterr()
    assert f"error: model file {bad}: " in captured.err
    assert problem in captured.err
    assert captured.out == ""  # no report
    assert [p.name for p in tmp_path.iterdir()] == ["bad.npz"]


def test_eval_rejects_truncated_model_file(tmp_path, model_path, capsys) -> None:
    bad = tmp_path / "truncated.npz"
    data = model_path.read_bytes()
    bad.write_bytes(data[: len(data) // 2])
    code = run(["eval", "--dataset", "homoscedastic", "--predictor", "ensemble",
                "--model-path", str(bad), "--n", "16"])
    assert code == 2
    assert f"error: model file {bad}: not a readable .npz archive" in capsys.readouterr().err


def _python(*args: str) -> subprocess.CompletedProcess:
    paths = [str(Path(uqeval.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("module", ["uqeval", "uqeval.cli"])
def test_python_m_runs_the_cli(module) -> None:
    done = _python("-m", module, "eval", "--dataset", "homoscedastic", "--n", "16")
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[0] == REPORT_HEADER
    missing = _python("-m", module)
    assert missing.returncode == 1
    assert "a command is required" in missing.stderr


def test_pooled_bias_prints_an_undefined_metric_warning_once(tmp_path) -> None:
    # two workers even on a one-core machine; each meets the undefined Spearman
    script = ("from uqeval import cli, cores; "
              "cores._available_cores = lambda: 2; cli.main()")
    out = tmp_path / "bias.csv"
    done = _python("-c", script, "bias", "--dataset", "homoscedastic", "--replicates", "2",
                     "--out", str(out))
    assert done.returncode == 0, done.stderr
    assert done.stderr.count("spearman undefined") == 1
    assert out.exists()


# Runs every command in one fresh process, checking after each that scipy
# has not been imported; argv[1] is a directory.  train and bias run pooled.
NUMPY_ONLY_COMMANDS = """
import contextlib, io, os, sys
from uqeval import cli, cores

def assert_no_scipy(after):
    assert "scipy" not in sys.modules, f"scipy imported by {after}"

def run(*argv):
    out = os.path.join(sys.argv[1], argv[0] + ".out")
    assert cli.run([*argv, "--out", out]) == 0
    assert_no_scipy(" ".join(argv))

assert_no_scipy("import uqeval.cli")
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.run(["--help"]) == 0
assert_no_scipy("--help")
run("generate", "--dataset", "multimodal", "--n", "64")
cores._available_cores = lambda: 2  # two workers even on a one-core machine
run("train", "--dataset", "homoscedastic", "--n", "64")
run("eval", "--dataset", "multimodal", "--n", "300")
run("sparsify", "--dataset", "multimodal", "--n", "300")
run("density-grid", "--dataset", "multimodal", "--nx", "8", "--ny", "8")
run("stability", "--dataset", "multimodal")
run("bias", "--dataset", "multimodal", "--replicates", "2")
"""


def test_no_command_imports_scipy(tmp_path) -> None:
    done = _python("-c", NUMPY_ONLY_COMMANDS, str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert sorted(p.name for p in tmp_path.iterdir() if not p.name.endswith(".json")) == [
        "bias.out", "density-grid.out", "eval.out", "generate.out", "sparsify.out",
        "stability.out", "train.out"]
    # the fresh process scored as this one does
    here = tmp_path / "here.csv"
    assert run(["eval", "--dataset", "multimodal", "--n", "300", "--out", str(here)]) == 0
    assert here.read_bytes() == (tmp_path / "eval.out").read_bytes()
