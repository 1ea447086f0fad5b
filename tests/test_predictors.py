import json
import math
import multiprocessing
import os
import pickle
import random
import signal
import subprocess
import sys
import time
import tracemalloc
from dataclasses import fields, replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from uqeval.datasets import DatasetKind, DomainError, LabeledSet, Split, generate
from uqeval.distributions import Gaussian, GaussianMixture, VARIANCE_FLOOR
from uqeval.experiments import density_grid_csv
from uqeval.metrics import nll
from uqeval import cores, predictors
from uqeval.cores import map_on_cores
from uqeval.network import FORWARD_CHUNK_ROWS, LAYER_SIZES, forward, init_params
from uqeval.predictors import (
    ENSEMBLE_FORMAT,
    EnsemblePredictor,
    ScaledUncertaintyPredictor,
    TrainConfig,
    TrainingDivergedError,
    TrueDistributionPredictor,
    _train_member,
    load_ensemble,
    make_records,
    save_ensemble,
    train_ensemble,
)

ALL_KINDS = list(DatasetKind)


# ----------------------------------------------------------------- oracle

def test_oracle_homoscedastic_values() -> None:
    pred = TrueDistributionPredictor(DatasetKind.HOMOSCEDASTIC)
    dist = pred.predict(np.array([0.0, 1.0]))
    assert isinstance(dist, Gaussian)
    assert np.asarray(dist.mean)[0] == pytest.approx(1.0)
    assert np.asarray(dist.mean)[1] == pytest.approx(math.cos(1.5 * math.pi))
    assert np.allclose(dist.variance, 0.01)


def test_oracle_heteroscedastic_variance_floor() -> None:
    pred = TrueDistributionPredictor(DatasetKind.HETEROSCEDASTIC)
    x = 1.0 / 3.0  # noise vanishes here
    dist = pred.predict(np.array([x, 0.0]))
    var = np.asarray(dist.variance)
    assert var[0] == pytest.approx(VARIANCE_FLOOR)
    assert var[1] == pytest.approx(0.16)


def test_oracle_multimodal_mixture_moments() -> None:
    pred = TrueDistributionPredictor(DatasetKind.MULTIMODAL)
    dist = pred.predict(np.array([0.0, 0.25]))
    assert isinstance(dist, GaussianMixture)
    mean = np.asarray(dist.mean)
    var = np.asarray(dist.variance)
    assert np.allclose(mean, 0.5)
    assert var[0] == pytest.approx(1.0 + 0.05**2)  # modes at 0.5 +/- 1
    assert var[1] == pytest.approx(0.05**2)  # modes coincide


def test_oracle_epistemic_constant_variance() -> None:
    pred = TrueDistributionPredictor(DatasetKind.EPISTEMIC)
    dist = pred.predict(np.array([0.1, 0.5, 0.9]))
    assert np.allclose(dist.variance, 0.0025)
    assert np.asarray(dist.mean)[1] == pytest.approx(0.5 + math.cos(2 * math.pi))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_oracle_rejects_out_of_domain(kind) -> None:
    pred = TrueDistributionPredictor(kind)
    lo, hi = kind.domain
    with pytest.raises(DomainError):
        pred.predict(np.array([hi + 0.01]))
    with pytest.raises(DomainError):
        pred.predict(np.array([lo, lo - 0.5]))


# ----------------------------------------------------------------- records

def test_make_records_fields_match_formulas() -> None:
    kind = DatasetKind.HOMOSCEDASTIC
    data = generate(kind, Split.TEST, 128, 0)
    rec = make_records(TrueDistributionPredictor(kind), data)
    mean = np.cos(1.5 * np.pi * data.xs)
    assert np.array_equal(rec.abs_errors, np.abs(data.ys - mean))
    assert np.allclose(rec.uncertainties, 0.01)
    direct = Gaussian(mean, 0.01)
    assert np.allclose(rec.log_densities, direct.log_density(data.ys))
    assert np.allclose(rec.pits, direct.cdf(data.ys))


RECORD_FIELDS = ("abs_errors", "uncertainties", "log_densities", "pits")
B = FORWARD_CHUNK_ROWS


def single_pass_fields(predictor, data: LabeledSet) -> dict:
    """Reference: make_records before row blocks, one predict call over all rows."""
    dist = predictor.predict(data.xs)
    return {
        "abs_errors": np.abs(data.ys - dist.mean),
        "uncertainties": dist.variance,
        "log_densities": dist.log_density(data.ys),
        "pits": dist.cdf(data.ys),
    }


def assert_records_match_single_pass(predictor, data: LabeledSet) -> None:
    rec = make_records(predictor, data)
    expected = single_pass_fields(predictor, data)
    for name in RECORD_FIELDS:
        assert getattr(rec, name).tobytes() == expected[name].tobytes(), name


@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 4 * B + 1])
@pytest.mark.parametrize("kind", ALL_KINDS)
def test_blocked_records_are_bit_identical_to_single_pass(kind, n) -> None:
    data = generate(kind, Split.TEST, n, 11)
    assert_records_match_single_pass(TrueDistributionPredictor(kind), data)


SCORERS = {  # each scorer's output as bytes, given a predictor and a test set
    "make_records": lambda p, data: make_records(p, data).pits.tobytes(),
    "density_grid_csv": lambda p, data: "".join(density_grid_csv(p, data.xs, data.ys[:2])),
}


@pytest.mark.parametrize("scorer", sorted(SCORERS))
def test_make_records_passes_the_predictor_one_forward_chunk_at_a_time(scorer) -> None:
    kind = DatasetKind.MULTIMODAL
    oracle = TrueDistributionPredictor(kind)
    seen = []

    class Spy:
        def predict(self, x):
            seen.append(len(x))
            return oracle.predict(x)

    data = generate(kind, Split.TEST, 5 * B + 17, 0)
    scored = SCORERS[scorer](Spy(), data)
    assert max(seen) <= 2 * B - 1
    assert seen == [B] * 4 + [B + 17]
    assert scored == SCORERS[scorer](oracle, data)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_make_records_memory_is_records_plus_one_block(kind) -> None:
    # Beyond the four record arrays, make_records may hold the temporaries
    # of one block (at most 2B - 1 rows) and nothing that grows with n.
    n = 16 * B
    data = generate(kind, Split.TEST, n, 0)
    predictor = TrueDistributionPredictor(kind)
    tracemalloc.start()
    try:
        rec = make_records(predictor, data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rec) == n
    record_bytes = len(RECORD_FIELDS) * 8 * n
    block_allowance = 32 * 8 * (2 * B)  # 32 float64 temporaries of the widest block
    assert peak <= record_bytes + block_allowance


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_oracle_pits_are_uniform(kind) -> None:
    n = 2**16
    data = generate(kind, Split.TEST, n, 0)
    rec = make_records(TrueDistributionPredictor(kind), data)
    grid = np.sort(rec.pits)
    ks = np.max(np.abs(grid - (np.arange(1, n + 1) / n)))
    assert ks <= 1.95 / math.sqrt(n)


def test_scaled_predictor_breaks_pit_uniformity() -> None:
    n = 2**16
    kind = DatasetKind.HOMOSCEDASTIC
    data = generate(kind, Split.TEST, n, 0)
    wide = ScaledUncertaintyPredictor(TrueDistributionPredictor(kind), 2.0)
    rec = make_records(wide, data)
    grid = np.sort(rec.pits)
    ks = np.max(np.abs(grid - (np.arange(1, n + 1) / n)))
    assert ks > 1.95 / math.sqrt(n)


def test_scaled_predictor_keeps_mean_scales_variance() -> None:
    kind = DatasetKind.MULTIMODAL
    base = TrueDistributionPredictor(kind)
    wide = ScaledUncertaintyPredictor(base, 2.0)
    x = np.array([0.1, 0.4])
    d0 = base.predict(x)
    d2 = wide.predict(x)
    assert np.allclose(d2.mean, d0.mean)
    assert np.allclose(d2.variance, 4.0 * np.asarray(d0.variance))


def test_true_distribution_minimizes_nll() -> None:
    kind = DatasetKind.HOMOSCEDASTIC
    data = generate(kind, Split.TEST, 2**14, 3)
    base = TrueDistributionPredictor(kind)
    score = nll(make_records(base, data))
    for scale in (0.5, 2.0):
        other = nll(make_records(ScaledUncertaintyPredictor(base, scale), data))
        assert score < other


# ----------------------------------------------------------------- ensemble

SMALL = TrainConfig(ensemble_size=2, epochs=2, batch_size=64, seed=0)


def small_train_set() -> LabeledSet:
    return generate(DatasetKind.HOMOSCEDASTIC, Split.TRAIN, 256, 0)


def test_training_is_bit_reproducible() -> None:
    train = small_train_set()
    a = train_ensemble(train, SMALL)
    b = train_ensemble(train, SMALL)
    for pa, pb in zip(a.members, b.members):
        assert all(np.array_equal(x, y) for x, y in zip(pa.arrays(), pb.arrays()))
    assert a.history == b.history


def test_members_differ_from_each_other_and_across_seeds() -> None:
    train = small_train_set()
    de = train_ensemble(train, SMALL)
    assert not np.array_equal(de.members[0].weights[0], de.members[1].weights[0])
    other = train_ensemble(train, TrainConfig(ensemble_size=2, epochs=2, batch_size=64, seed=1))
    assert not np.array_equal(de.members[0].weights[0], other.members[0].weights[0])


def test_predict_is_moment_matched_member_mixture() -> None:
    de = train_ensemble(small_train_set(), SMALL)
    x = np.linspace(-1, 1, 17)
    dist = de.predict(x)
    comps = forward(de.members, x)
    means = np.stack([c.mean for c in comps])
    variances = np.stack([c.variance for c in comps])
    mean = means.mean(axis=0)
    var = (variances + means**2).mean(axis=0) - mean**2
    assert np.allclose(dist.mean, mean, rtol=1e-12)
    assert np.allclose(dist.variance, var, rtol=1e-12)


def test_six_member_prediction_weights_members_by_normalized_sixths() -> None:
    # np.full(6, 1/6) does not sum to 1 exactly; dividing it by its sum, as
    # every ensemble has, moves the weights' last bits and so the moments'
    rng = np.random.default_rng(0)
    members = tuple(init_params(rng) for _ in range(6))
    de = EnsemblePredictor(members, TrainConfig(ensemble_size=6, epochs=1), ((0.0,),) * 6)
    x = np.linspace(-1, 1, 33)
    comps = forward(members, x)
    w = np.full(6, 1.0 / 6.0)
    w = w / w.sum()
    mean = sum(wi * c.mean for wi, c in zip(w, comps))
    second = sum(wi * (c.variance + c.mean**2) for wi, c in zip(w, comps))
    dist = de.predict(x)
    assert dist.mean.tobytes() == mean.tobytes()
    assert dist.variance.tobytes() == (second - mean**2).tobytes()


PREDICTORS = {
    **{kind.value: (kind, lambda kind=kind: TrueDistributionPredictor(kind)) for kind in ALL_KINDS},
    **{f"scaled-{kind.value}": (kind, lambda kind=kind: ScaledUncertaintyPredictor(
        TrueDistributionPredictor(kind), 2.0)) for kind in ALL_KINDS},
    "ensemble": (DatasetKind.HOMOSCEDASTIC, lambda: train_ensemble(
        small_train_set(), TrainConfig(ensemble_size=2, epochs=1, batch_size=64, seed=0))),
}


@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("name", sorted(PREDICTORS))
def test_predictions_hold_one_value_per_input_row(name, n) -> None:
    # make_records copies these arrays into its record blocks and density_grid_csv
    # broadcasts them against a column of y values: both need one value per row
    kind, build = PREDICTORS[name]
    data = generate(kind, Split.TEST, n, 5)
    dist = build().predict(data.xs)
    for value in (dist.mean, dist.variance, dist.log_density(data.ys), dist.cdf(data.ys)):
        assert isinstance(value, np.ndarray) and value.shape == (n,)


def test_predict_runs_all_members_in_one_forward_call(monkeypatch) -> None:
    # `forward` owns the work buffers, so one call shares one pair across members
    de = train_ensemble(small_train_set(), TrainConfig(ensemble_size=3, epochs=1, batch_size=64))
    calls, run = [], predictors.forward

    def spy(members, x):
        calls.append(tuple(members))
        return run(members, x)

    monkeypatch.setattr(predictors, "forward", spy)
    de.predict(np.linspace(-1, 1, 17))
    assert calls == [de.members]  # MlpParams compare by identity


@pytest.mark.parametrize("n", [2 * B - 1, 2 * B + 1])
def test_blocked_ensemble_records_are_bit_identical_to_single_pass(n) -> None:
    de = train_ensemble(small_train_set(), SMALL)
    data = generate(DatasetKind.HOMOSCEDASTIC, Split.TEST, n, 12)
    assert_records_match_single_pass(de, data)


def test_history_tracks_epoch_losses() -> None:
    de = train_ensemble(small_train_set(), SMALL)
    assert len(de.history) == SMALL.ensemble_size
    assert all(len(h) == SMALL.epochs for h in de.history)
    assert all(math.isfinite(v) for h in de.history for v in h)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_training_loss_decreases(kind) -> None:
    train = generate(kind, Split.TRAIN, 2048, 0)
    de = train_ensemble(train, TrainConfig(ensemble_size=1, epochs=20, seed=0))
    history = de.history[0]
    assert history[-1] < history[0]


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("ncores", [1, 3])
def test_pooled_training_is_bit_identical_to_in_process(monkeypatch, ncores) -> None:
    # ncores=3 forces the worker pool even on a one-core machine
    monkeypatch.setattr(cores, "_available_cores", lambda: ncores)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    monkeypatch.setenv("OMP_NUM_THREADS", "7")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    env = {name: os.environ.get(name) for name in BLAS_THREAD_VARS}
    train = small_train_set()
    config = TrainConfig(ensemble_size=3, epochs=2, batch_size=64)
    de = train_ensemble(train, config)
    assert {name: os.environ.get(name) for name in BLAS_THREAD_VARS} == env
    assert len(de.members) == len(de.history) == 3
    for j, (params, history) in enumerate(zip(de.members, de.history)):
        ref_params, ref_history = _train_member(train, config, j)
        for got, want in zip(params.arrays(), ref_params.arrays()):
            assert got.tobytes() == want.tobytes()
        assert history == tuple(ref_history)


def _train_then_report_scipy(train: LabeledSet, member: int) -> bool:
    _train_member(train, TrainConfig(epochs=2, batch_size=32), member)
    return "scipy" in sys.modules


def test_training_workers_never_import_scipy(monkeypatch) -> None:
    monkeypatch.setattr(cores, "_available_cores", lambda: 2)
    task = partial(_train_then_report_scipy, small_train_set())
    assert list(map_on_cores(task, [0, 1])) == [False, False]


def test_training_diverged_error_survives_pickling() -> None:
    err = pickle.loads(pickle.dumps(TrainingDivergedError(1, 2, 3)))
    assert isinstance(err, TrainingDivergedError)
    assert (err.member, err.epoch, err.batch) == (1, 2, 3)
    assert str(err) == "non-finite loss: member 1, epoch 2, batch 3"


@pytest.mark.parametrize("ensemble_size", [1, 2])
def test_training_diverges_loudly_on_pathological_targets(monkeypatch, ensemble_size) -> None:
    monkeypatch.setattr(cores, "_available_cores", lambda: 2)
    xs = np.linspace(0.0, 1.0, 64)
    ys = np.full(64, 1e200)  # finite but squares to overflow
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError) as err:
            train_ensemble(LabeledSet(xs, ys), TrainConfig(ensemble_size=ensemble_size, epochs=1))
    # every member diverges; the pool reports the lowest-numbered one, as in-process training does
    assert err.value.member == 0
    assert err.value.epoch == 0
    assert multiprocessing.active_children() == []


# A script that trains two members in two spawned workers, long enough to
# be killed mid-training, and prints the workers' pids once they exist.
# With "kill-worker" it kills one worker itself, a second after it starts.
POOLED_TRAINING = """
import multiprocessing, os, signal, sys, threading, time
import numpy as np
from uqeval import cores, predictors
from uqeval.datasets import LabeledSet

def workers():
    while len(multiprocessing.active_children()) < 2:
        time.sleep(0.05)
    pids = [p.pid for p in multiprocessing.active_children()]
    print(*pids, flush=True)
    return pids

def kill_one_worker():
    pid = workers()[0]
    time.sleep(1.0)
    os.kill(pid, signal.SIGKILL)

cores._available_cores = lambda: 2
watch = kill_one_worker if sys.argv[1] == "kill-worker" else workers
threading.Thread(target=watch, daemon=True).start()
xs = np.linspace(-1.0, 1.0, 4096)
config = predictors.TrainConfig(ensemble_size=2, epochs=1000)  # minutes per member
try:
    predictors.train_ensemble(LabeledSet(xs, np.cos(xs)), config)
except Exception as exc:
    print(type(exc).__name__, flush=True)
"""


def _pooled_training(mode: str) -> subprocess.Popen:
    paths = [str(Path(predictors.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.Popen([sys.executable, "-c", POOLED_TRAINING, mode],
                            stdout=subprocess.PIPE, text=True, env=env)


def _running(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"  # an unreaped zombie has ended


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_pool_workers_exit_when_the_parent_is_killed() -> None:
    proc = _pooled_training("kill-parent")
    pids = [int(pid) for pid in proc.stdout.readline().split()]
    try:
        assert len(pids) == 2
        time.sleep(2.0)  # both workers are training by now
        assert all(_running(pid) for pid in pids)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10.0
        while any(_running(pid) for pid in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_running(pid) for pid in pids)
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        for pid in filter(_running, pids):
            os.kill(pid, signal.SIGKILL)


def test_a_killed_pool_worker_raises_instead_of_hanging() -> None:
    # as an out-of-memory kill would: the caller gets an error, not a wait for ever
    proc = _pooled_training("kill-worker")
    try:
        out, _ = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert out.split()[-1] == "BrokenProcessPool"


def test_train_config_validation() -> None:
    for field in ("ensemble_size", "epochs", "batch_size"):
        with pytest.raises(ValueError, match="must be positive"):
            TrainConfig(**{field: 0})
    with pytest.raises(ValueError):
        train_ensemble(LabeledSet(np.array([]), np.array([])), SMALL)


@pytest.mark.parametrize("value", [True, 2.0, np.int64(2), 2],
                         ids=["bool", "float", "int64", "int"])
@pytest.mark.parametrize("field", [f.name for f in fields(TrainConfig)])
def test_a_config_is_refused_or_trains_saves_and_loads_back(tmp_path, field, value) -> None:
    # one rule for training and loading: every field an exact int, so no
    # config trains into a file the loader refuses
    small = TrainConfig(ensemble_size=1, epochs=1, batch_size=64)
    if type(value) is not int:
        with pytest.raises(ValueError, match=f"^'{field}' must be an integer, got "):
            replace(small, **{field: value})
        return
    config = replace(small, **{field: value})
    de = train_ensemble(small_train_set(), config)
    save_ensemble(de, tmp_path / "model.npz")
    back = load_ensemble(tmp_path / "model.npz")
    assert back.config == config and back.history == de.history
    for a, b in zip(de.members, back.members):
        assert [x.tobytes() for x in a.arrays()] == [y.tobytes() for y in b.arrays()]


# ----------------------------------------------------------------- persistence

def test_save_load_round_trip(tmp_path) -> None:
    de = train_ensemble(small_train_set(), SMALL)
    path = tmp_path / "model.npz"
    save_ensemble(de, path)
    back = load_ensemble(path)
    assert isinstance(back, EnsemblePredictor)
    assert back.config == de.config
    with np.load(path) as archive:
        meta = json.loads(str(archive["config_json"]))
    assert meta == {"ensemble_size": 2, "epochs": 2, "batch_size": 64, "learning_rate": 1e-3,
                    "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "seed": 0}
    assert back.history == de.history
    x = np.linspace(-1, 1, 33)
    a = de.predict(x)
    b = back.predict(x)
    assert np.array_equal(np.asarray(a.mean), np.asarray(b.mean))
    assert np.array_equal(np.asarray(a.variance), np.asarray(b.variance))


def test_model_archive_layout(tmp_path) -> None:
    # the entry order decides the zip bytes on every CPU class
    path = tmp_path / "model.npz"
    save_ensemble(train_ensemble(small_train_set(), SMALL), path)
    with np.load(path) as archive:
        names = archive.files
        meta = json.loads(str(archive["config_json"]))
    assert names == ["format", "config_json", "history"] + [
        f"member{j}_{p}{i}" for j in range(2) for i in range(len(LAYER_SIZES) - 1) for p in "wb"]
    adam = ["learning_rate", "beta1", "beta2", "eps"]
    assert sorted(meta) == sorted([f.name for f in fields(TrainConfig)] + adam)


def test_load_rejects_unknown_format(tmp_path) -> None:
    path = tmp_path / "bad.npz"
    with open(path, "wb") as fh:
        np.savez(fh, format=np.array("something-else"), config_json=np.array("{}"))
    with pytest.raises(ValueError):
        load_ensemble(path)
    assert ENSEMBLE_FORMAT == "uqeval-ensemble-v1"


def test_load_missing_file_raises(tmp_path) -> None:
    with pytest.raises(OSError):
        load_ensemble(tmp_path / "nope.npz")


def mutated_archives(data: bytes, count: int, seed: int = 0):
    """Seeded corruptions of a model file's bytes, one at a time.

    Each sets 1-4 random bytes anywhere, truncates the file at a random
    offset, or sets 1-3 of its last 400 bytes (the zip central directory).
    """
    rng = random.Random(seed)
    for _ in range(count):
        mutated = bytearray(data)
        kind = rng.random()
        if kind < 0.4:
            for _ in range(rng.randint(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        elif kind < 0.6:
            del mutated[rng.randrange(len(mutated)):]
        else:
            for _ in range(rng.randint(1, 3)):
                mutated[-1 - rng.randrange(400)] = rng.randrange(256)
        yield mutated


def test_a_mutated_model_file_loads_unchanged_or_raises_value_error_naming_it(tmp_path) -> None:
    de = train_ensemble(small_train_set(), TrainConfig(ensemble_size=1, epochs=1, batch_size=64))
    path = tmp_path / "model.npz"
    save_ensemble(de, path)
    data = path.read_bytes()
    loaded = 0
    for mutated in mutated_archives(data, 300):
        path.write_bytes(mutated)
        try:
            back = load_ensemble(path)
        except ValueError as exc:
            assert f"model file {path}: " in str(exc)
            continue
        loaded += 1
        assert back.config == de.config and back.history == de.history
        for got, want in zip(back.members[0].arrays(), de.members[0].arrays()):
            assert got.tobytes() == want.tobytes()
    assert 0 < loaded < 100  # mostly in bytes zipfile does not read, such as timestamps


# ----------------------------------------------------------------- density grid

def grid_z(predictor, xs, ys) -> np.ndarray:
    """density_grid_csv's z column, parsed back and shaped (len(xs), len(ys))."""
    text = "".join(density_grid_csv(predictor, xs, ys))
    z = [float(line.split(",")[2]) for line in text.splitlines()[1:]]
    return np.array(z).reshape(len(xs), len(ys))


def test_density_grid_z_matches_pointwise_evaluation() -> None:
    pred = TrueDistributionPredictor(DatasetKind.HOMOSCEDASTIC)
    xs = np.array([-0.5, 0.0, 0.5])
    ys = np.array([0.0, 0.5, 1.0, 1.5])
    z = grid_z(pred, xs, ys)
    assert z.shape == (3, 4)
    for i, x in enumerate(xs):
        g = Gaussian(math.cos(1.5 * math.pi * x), 0.01)
        for j, y in enumerate(ys):
            assert z[i, j] == pytest.approx(g.log_density(y), rel=1e-12)


def test_density_grid_z_for_mixture_predictor() -> None:
    pred = TrueDistributionPredictor(DatasetKind.MULTIMODAL)
    xs = np.array([0.0, 0.25])
    ys = np.array([0.5, 1.5])
    z = grid_z(pred, xs, ys)
    direct = pred.predict(np.array([0.0]))
    assert z[0, 1] == pytest.approx(np.asarray(direct.log_density(1.5))[0], rel=1e-12)
