import json
import os

import numpy as np
import pytest

from uqeval.cli import run
from uqeval.datasets import DatasetKind, Split, generate, read_csv
from uqeval.experiments import read_manifest, sha256_file


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
    data = read_csv(out)
    direct = generate(DatasetKind.MULTIMODAL, Split.TEST, 50, 3)
    assert np.array_equal(data.xs, direct.xs)
    assert np.array_equal(data.ys, direct.ys)
    manifest = read_manifest(f"{out}.manifest.json")
    assert manifest.command == "generate"
    assert manifest.parameters["n"] == 50
    assert manifest.outputs[0]["sha256"] == sha256_file(out)


def test_generate_split_defaults(tmp_path) -> None:
    out = tmp_path / "train.csv"
    code = run(["generate", "--dataset", "epistemic", "--split", "train",
                "--n", "200", "--seed", "1", "--out", str(out)])
    assert code == 0
    data = read_csv(out)
    assert not ((data.xs >= 0.35) & (data.xs <= 0.65)).any()


def test_usage_errors_exit_1(tmp_path, capsys) -> None:
    assert run([]) == 1
    assert "usage" in capsys.readouterr().err
    assert run(["generate", "--dataset", "nonsense", "--out", "x.csv"]) == 1
    assert "usage" in capsys.readouterr().err
    assert run(["generate", "--dataset", "multimodal", "--frobnicate"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert run(["no-such-command"]) == 1


def test_eval_requires_model_path_for_ensemble(capsys) -> None:
    assert run(["eval", "--dataset", "multimodal", "--predictor", "ensemble"]) == 1
    assert "--model-path" in capsys.readouterr().err


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

    assert run(["density-grid", "--dataset", "homoscedastic", "--nx", "0",
                "--out", str(grid)]) == 1


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


def _corrupt_model(src, dst, edit) -> None:
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


@pytest.mark.parametrize(
    "edit, problem",
    [
        (_nan_weight, "'member2_w3' has non-finite values"),
        (lambda arrays: arrays.pop("member4_b2"), "missing array 'member4_b2'"),
        (_wrong_shape, "'member0_w1' is float64 (256, 128), expected float64 (256, 256)"),
        (lambda arrays: arrays.update(config_json=np.array('{"seed": 0}')),
         "malformed config_json (KeyError('ensemble_size'))"),
    ],
    ids=["nan-weight", "missing-key", "wrong-shape", "bad-config"],
)
def test_eval_rejects_bad_model_file(tmp_path, model_path, capsys, edit, problem) -> None:
    bad = tmp_path / "bad.npz"
    _corrupt_model(model_path, bad, edit)
    code = run(["eval", "--dataset", "homoscedastic", "--predictor", "ensemble",
                "--model-path", str(bad), "--n", "16"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: model file {bad}: " in err
    assert problem in err


def test_eval_rejects_truncated_model_file(tmp_path, model_path, capsys) -> None:
    bad = tmp_path / "truncated.npz"
    data = model_path.read_bytes()
    bad.write_bytes(data[: len(data) // 2])
    code = run(["eval", "--dataset", "homoscedastic", "--predictor", "ensemble",
                "--model-path", str(bad), "--n", "16"])
    assert code == 2
    assert f"error: model file {bad}: not a readable .npz archive" in capsys.readouterr().err
