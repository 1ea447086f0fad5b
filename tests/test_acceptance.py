"""Release acceptance gate: one test per numbered release criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Expected values fall into three groups:

* closed-form expectations of the generating distributions (exact to the
  digits shown),
* one Monte-Carlo estimate, computed once from 10^6 independent draws of
  the multimodal generating mixture and frozen here (standard error noted
  inline),
* tabulated reference values for dataset/metric pairs, checked at the
  looser tolerance stated per test.

The two training-based criteria take a few minutes; everything else runs
in seconds.  Wall-clock budgets are asserted alongside the numeric
bounds so that pathological slowdowns fail the gate too.
"""
from __future__ import annotations

import os
import time

import numpy as np
import pytest

from uqeval import (
    DatasetKind,
    EvaluationRecords,
    ScaledUncertaintyPredictor,
    Split,
    TrainConfig,
    TrueDistributionPredictor,
    ause,
    bias_experiment,
    calibration_error,
    convergence_experiment,
    generate,
    make_records,
    nll,
    rank,
    read_manifest,
    sha256_file,
    spearman,
    train_ensemble,
)
from uqeval.cli import run
from uqeval.network import init_params, loss_and_grads

N_TABLE = 2**16

# Closed-form per-sample expected NLL of the true-distribution predictor
# (analytic integrals of -E[log p]; exact to the digits shown).
NLL_HOMOSCEDASTIC_ANALYTIC = -0.8836
NLL_EPISTEMIC_ANALYTIC = -1.5769

# Frozen Monte-Carlo expectation of the oracle NLL on the multimodal
# dataset: 10^6 draws from the generating mixture, standard error 7.1e-4.
NLL_MULTIMODAL_MC = -0.9067

# Tabulated reference values for the same dataset/metric pairs.
NLL_HOMOSCEDASTIC_REFERENCE = -0.8965
NLL_EPISTEMIC_REFERENCE = -1.5871
AUSE_HETEROSCEDASTIC_REFERENCE = 0.2305
AUSE_HOMOSCEDASTIC_REFERENCE = 0.5917


class Stopwatch:
    def __enter__(self) -> "Stopwatch":
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self.start


def oracle_records(kind: DatasetKind, n: int = N_TABLE, seed: int = 0) -> EvaluationRecords:
    data = generate(kind, Split.TEST, n, seed)
    return make_records(TrueDistributionPredictor(kind), data)


def test_criterion_01_oracle_nll_homoscedastic():
    with Stopwatch() as clock:
        value = nll(oracle_records(DatasetKind.HOMOSCEDASTIC))
    assert value == pytest.approx(NLL_HOMOSCEDASTIC_ANALYTIC, abs=0.02)
    assert value == pytest.approx(NLL_HOMOSCEDASTIC_REFERENCE, abs=0.06)
    assert clock.elapsed < 5.0


def test_criterion_02_oracle_nll_epistemic():
    with Stopwatch() as clock:
        value = nll(oracle_records(DatasetKind.EPISTEMIC))
    assert value == pytest.approx(NLL_EPISTEMIC_ANALYTIC, abs=0.02)
    assert value == pytest.approx(NLL_EPISTEMIC_REFERENCE, abs=0.06)
    assert clock.elapsed < 5.0


def test_criterion_03_oracle_nll_multimodal():
    with Stopwatch() as clock:
        value = nll(oracle_records(DatasetKind.MULTIMODAL))
    assert value == pytest.approx(NLL_MULTIMODAL_MC, abs=0.05)
    assert clock.elapsed < 30.0


def test_criterion_04_oracle_calibration_error():
    with Stopwatch() as clock:
        for kind in DatasetKind:
            data = generate(kind, Split.TEST, N_TABLE, 0)
            oracle = TrueDistributionPredictor(kind)
            well = calibration_error(make_records(oracle, data).pits)
            stretched = ScaledUncertaintyPredictor(oracle, 2.0)
            miscalibrated = calibration_error(make_records(stretched, data).pits)
            assert well <= 0.005, f"{kind.value}: oracle CE {well}"
            assert miscalibrated > well, (
                f"{kind.value}: doubling every predictive standard deviation "
                f"must raise CE ({miscalibrated} vs {well})"
            )
    assert clock.elapsed < 10.0


def test_criterion_05_oracle_ause():
    with Stopwatch() as clock:
        hetero = ause(oracle_records(DatasetKind.HETEROSCEDASTIC))
        homo_records = oracle_records(DatasetKind.HOMOSCEDASTIC)
        # constant predicted uncertainty: the removal order is pure
        # tie-breaking, so average over five tie-shuffle seeds
        homo = float(np.mean([ause(homo_records, tie_seed=s) for s in range(5)]))
    assert hetero == pytest.approx(AUSE_HETEROSCEDASTIC_REFERENCE, abs=0.03)
    assert homo == pytest.approx(AUSE_HOMOSCEDASTIC_REFERENCE, abs=0.03)
    assert clock.elapsed < 30.0


def brute_force_ause(abs_errors: np.ndarray, uncertainties: np.ndarray) -> float:
    """Independent partition-and-average reference implementation.

    For each k = 0..N-1, drop the k samples with the largest ordering
    value and take the MAE of the rest, normalized by the full-set MAE;
    the result is the mean gap between the uncertainty-ordered and the
    error-ordered curve.  Requires distinct ordering values.
    """
    n = len(abs_errors)
    full_mae = abs_errors.mean()

    def curve(key: np.ndarray) -> np.ndarray:
        drop_first = np.argsort(key)[::-1]
        points = []
        for k in range(n):
            retained = drop_first[k:]
            points.append(abs_errors[retained].mean() / full_mae)
        return np.asarray(points)

    return float(np.mean(curve(uncertainties) - curve(abs_errors)))


def test_criterion_06_ause_matches_brute_force():
    rng = np.random.default_rng(20240817)
    with Stopwatch() as clock:
        for _ in range(200):
            n = int(rng.integers(1, 11))
            errors = rng.uniform(0.1, 1.0, size=n)
            uncertainties = rng.uniform(0.0, 1.0, size=n)
            assert len(np.unique(uncertainties)) == n
            assert len(np.unique(errors)) == n
            records = EvaluationRecords(
                abs_errors=errors,
                uncertainties=uncertainties,
                log_densities=np.zeros(n),
                pits=np.zeros(n),
            )
            fast = ause(records)
            slow = brute_force_ause(errors, uncertainties)
            assert abs(fast - slow) <= 1e-12
    assert clock.elapsed < 5.0


def test_criterion_07_spearman_identities():
    with Stopwatch() as clock:
        increasing = np.array([0.5, 1.5, 2.0, 7.0])
        assert spearman(increasing, np.array([1.0, 2.0, 3.0, 4.0])) == pytest.approx(1.0)
        assert spearman(increasing, np.array([4.0, 3.0, 2.0, 1.0])) == pytest.approx(-1.0)
        assert spearman(np.array([1.0, 2.0, 3.0]),
                        np.array([3.0, 1.0, 2.0])) == pytest.approx(-0.5)
        assert rank(np.array([5.0, 5.0, 7.0])).tolist() == [1, 1, 3]
    assert clock.elapsed < 1.0


def test_criterion_08_gradient_check():
    rng = np.random.default_rng(97)
    params = init_params(rng)
    x = rng.uniform(-1.0, 1.0, size=8)
    y = np.cos(1.5 * np.pi * x) + rng.normal(0.0, 0.1, size=8)
    step = 1e-5
    with Stopwatch() as clock:
        _, analytic = loss_and_grads(params, x, y)
        live = params.arrays()
        for _ in range(20):
            arr_ix = int(rng.integers(len(live)))
            flat_ix = int(rng.integers(live[arr_ix].size))
            original = live[arr_ix].flat[flat_ix]
            live[arr_ix].flat[flat_ix] = original + step
            up = loss_and_grads(params, x, y)[0]
            live[arr_ix].flat[flat_ix] = original - step
            down = loss_and_grads(params, x, y)[0]
            live[arr_ix].flat[flat_ix] = original
            fd = (up - down) / (2.0 * step)
            exact = analytic[arr_ix].flat[flat_ix]
            rel = abs(exact - fd) / max(abs(exact), abs(fd), 1e-8)
            assert rel < 1e-4, f"array {arr_ix} index {flat_ix}: {exact} vs {fd}"
    assert clock.elapsed < 10.0


def test_criterion_09_deep_ensemble_training_gap():
    with Stopwatch() as clock:
        for kind, tolerance in (
            (DatasetKind.HOMOSCEDASTIC, 0.10),
            (DatasetKind.HETEROSCEDASTIC, 0.15),
        ):
            train = generate(kind, Split.TRAIN, 10_000, 0)
            ensemble = train_ensemble(train, TrainConfig(seed=0))
            test = generate(kind, Split.TEST, N_TABLE, 0)
            trained = nll(make_records(ensemble, test))
            oracle = nll(make_records(TrueDistributionPredictor(kind), test))
            assert abs(trained - oracle) < tolerance, (
                f"{kind.value}: ensemble NLL {trained:.4f} vs oracle {oracle:.4f}"
            )
    assert clock.elapsed < 600.0


def test_criterion_10_stability_harness():
    kind = DatasetKind.HETEROSCEDASTIC
    oracle = TrueDistributionPredictor(kind)
    with Stopwatch() as clock:
        convergence = convergence_experiment(oracle, kind, base_seed=1)
        by_size = dict(zip(convergence.sizes, convergence.reports))
        for name in ("ause", "ce", "spearman", "nll"):
            small = getattr(by_size[2**10], name)
            large = getattr(by_size[2**16], name)
            assert abs(large - small) < 0.05, f"{name}: {small} vs {large}"

        bias = bias_experiment(oracle, kind, base_seed=1, replicates=100)
        means = dict(zip(bias.sizes, bias.reports))
        for name in ("ause", "ce"):
            small = getattr(means[2**12], name)
            large = getattr(means[2**16], name)
            assert abs(large - small) < 0.02, f"mean {name}: {small} vs {large}"
    assert clock.elapsed < 600.0


def test_criterion_11_artifacts_regenerate_from_manifests(tmp_path):
    model = tmp_path / "model.npz"
    commands = [
        ["generate", "--dataset", "multimodal", "--split", "test",
         "--n", "256", "--seed", "3", "--out", str(tmp_path / "data.csv")],
        ["train", "--dataset", "homoscedastic", "--n", "128", "--seed", "1",
         "--out", str(model)],
        ["eval", "--dataset", "homoscedastic", "--n", "256", "--seed", "2",
         "--out", str(tmp_path / "oracle_report.csv")],
        ["eval", "--dataset", "homoscedastic", "--n", "256", "--seed", "2",
         "--predictor", "ensemble", "--model-path", str(model),
         "--out", str(tmp_path / "ensemble_report.csv")],
        ["stability", "--dataset", "heteroscedastic", "--seed", "0",
         "--out", str(tmp_path / "convergence.csv")],
        ["bias", "--dataset", "heteroscedastic", "--seed", "0",
         "--replicates", "2", "--out", str(tmp_path / "bias.csv")],
        ["sparsify", "--dataset", "heteroscedastic", "--n", "512",
         "--seed", "4", "--out", str(tmp_path / "sparsification.csv")],
        ["density-grid", "--dataset", "multimodal", "--nx", "8", "--ny", "8",
         "--out", str(tmp_path / "grid.csv")],
    ]
    for argv in commands:
        assert run(argv) == 0, argv

    manifests = sorted(tmp_path.glob("*.manifest.json"))
    assert len(manifests) == len(commands)
    for manifest_path in manifests:
        manifest = read_manifest(manifest_path)
        for entry in manifest.outputs:
            recorded = entry["sha256"]
            os.remove(entry["path"])
            assert run(list(manifest.argv)) == 0, manifest.argv
            regenerated = sha256_file(entry["path"])
            assert regenerated == recorded, f"{manifest.command}: {entry['path']}"
        assert read_manifest(manifest_path).to_json() == manifest.to_json()
