"""Predictors: the analytic reference and a trained deep ensemble.

A predictor maps inputs to predictive distributions.  Its point estimate
is the distribution mean and its scalar uncertainty is the distribution
variance.  `make_records` turns a predictor plus labeled data into the
per-sample records the metrics consume.
"""
from __future__ import annotations

import json
import zipfile
from dataclasses import dataclass, field

import numpy as np

from .datasets import DatasetKind, LabeledSet, _check_domain, residual_std
from .distributions import Gaussian, GaussianMixture, moment_match
from .metrics import EvaluationRecords
from .network import (
    LAYER_SIZES,
    AdamConfig,
    AdamState,
    MlpParams,
    adam_step,
    forward,
    init_params,
    loss_and_grads,
)
from .seeds import TAG_MEMBER, derive_seed, make_rng

ENSEMBLE_FORMAT = "uqeval-ensemble-v1"


class TrainingDivergedError(RuntimeError):
    """Raised when a training loss stops being finite."""

    def __init__(self, member: int, epoch: int, batch: int):
        super().__init__(
            f"non-finite loss: member {member}, epoch {epoch}, batch {batch}"
        )
        self.member = member
        self.epoch = epoch
        self.batch = batch


@dataclass(frozen=True)
class TrueDistributionPredictor:
    """Oracle that reports the generating conditional distribution."""

    kind: DatasetKind
    label: str = "oracle"

    def predict(self, x):
        x = _check_domain(self.kind, x)
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
        return Gaussian(mean, residual_std(self.kind, x) ** 2)


@dataclass(frozen=True)
class ScaledUncertaintyPredictor:
    """Stretches a base predictor's distribution about its mean.

    Used as a deliberately miscalibrated reference: scale 2 doubles every
    predictive standard deviation while keeping the mean prediction.
    """

    base: object
    scale: float

    @property
    def label(self) -> str:
        return f"{self.base.label}-x{self.scale:g}"

    def predict(self, x):
        dist = self.base.predict(x)
        s2 = self.scale**2
        if isinstance(dist, Gaussian):
            return Gaussian(dist.mean, np.asarray(dist.variance) * s2)
        center = dist.mean
        comps = tuple(
            Gaussian(
                center + self.scale * (np.asarray(c.mean) - center),
                np.asarray(c.variance) * s2,
            )
            for c in dist.components
        )
        return GaussianMixture(dist.weights, comps)


# ----------------------------------------------------------------- deep ensemble

@dataclass(frozen=True)
class TrainConfig:
    ensemble_size: int = 5
    epochs: int = 20
    batch_size: int = 128
    adam: AdamConfig = field(default_factory=AdamConfig)
    seed: int = 0


@dataclass(eq=False)
class EnsemblePredictor:
    """Uniformly weighted ensemble; predictions are moment-matched Gaussians."""

    members: tuple[MlpParams, ...]
    config: TrainConfig
    history: tuple[tuple[float, ...], ...]  # mean training loss per member, per epoch
    label: str = "ensemble"

    def mixture(self, x) -> GaussianMixture:
        comps = tuple(forward(params, x) for params in self.members)
        weights = np.full(len(comps), 1.0 / len(comps))
        return GaussianMixture(weights, comps)

    def predict(self, x) -> Gaussian:
        return moment_match(self.mixture(x))


def _train_member(train: LabeledSet, config: TrainConfig, member: int) -> tuple[MlpParams, list[float]]:
    # one stream per member: init draws first, then one shuffle per epoch
    rng = make_rng(derive_seed(config.seed, TAG_MEMBER, member))
    params = init_params(rng)
    state = AdamState.zeros_like(params.arrays())
    n = len(train)
    epoch_losses: list[float] = []
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        total = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            loss, grads = loss_and_grads(params, train.xs[batch], train.ys[batch])
            if not np.isfinite(loss):
                raise TrainingDivergedError(member, epoch, start // config.batch_size)
            arrays, state = adam_step(params.arrays(), grads.arrays(), state, config.adam)
            params = MlpParams.from_arrays(arrays)
            total += loss * len(batch)
        epoch_losses.append(total / n)
    return params, epoch_losses


def train_ensemble(train: LabeledSet, config: TrainConfig | None = None) -> EnsemblePredictor:
    """Trains every member independently from seeds derived off config.seed."""
    config = config or TrainConfig()
    if len(train) == 0:
        raise ValueError("empty training set")
    if config.ensemble_size < 1 or config.epochs < 1 or config.batch_size < 1:
        raise ValueError("ensemble_size, epochs and batch_size must be positive")
    members: list[MlpParams] = []
    history: list[tuple[float, ...]] = []
    for j in range(config.ensemble_size):
        params, losses = _train_member(train, config, j)
        members.append(params)
        history.append(tuple(losses))
    return EnsemblePredictor(tuple(members), config, tuple(history))


# ----------------------------------------------------------------- persistence

def save_ensemble(predictor: EnsemblePredictor, path) -> None:
    """Single .npz archive: version tag, config JSON, parameter arrays."""
    cfg = predictor.config
    meta = {
        "ensemble_size": cfg.ensemble_size,
        "epochs": cfg.epochs,
        "batch_size": cfg.batch_size,
        "learning_rate": cfg.adam.learning_rate,
        "beta1": cfg.adam.beta1,
        "beta2": cfg.adam.beta2,
        "eps": cfg.adam.eps,
        "seed": cfg.seed,
    }
    arrays = {
        "format": np.array(ENSEMBLE_FORMAT),
        "config_json": np.array(json.dumps(meta, sort_keys=True)),
        "history": np.array(predictor.history, dtype=np.float64),
    }
    for j, params in enumerate(predictor.members):
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            arrays[f"member{j}_w{i}"] = w
            arrays[f"member{j}_b{i}"] = b
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _entry(archive, key: str, path) -> np.ndarray:
    if key not in archive.files:
        raise ValueError(f"model file {path}: missing array {key!r}")
    return archive[key]


def _param_entry(archive, key: str, shape: tuple[int, ...], path) -> np.ndarray:
    arr = _entry(archive, key, path)
    if arr.shape != shape or arr.dtype != np.float64:
        raise ValueError(
            f"model file {path}: array {key!r} is {arr.dtype} {arr.shape}, expected float64 {shape}"
        )
    if not np.isfinite(arr).all():
        raise ValueError(f"model file {path}: array {key!r} has non-finite values")
    return arr


def load_ensemble(path) -> EnsemblePredictor:
    """Reads a `save_ensemble` archive.

    A truncated archive, a malformed config, a missing or mis-shaped
    parameter array, or a non-finite parameter raises ValueError naming
    the file and the entry, before any inference runs.
    """
    try:
        with np.load(path) as archive:
            return _ensemble_from_archive(archive, path)
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(f"model file {path}: not a readable .npz archive ({exc})") from exc


def _ensemble_from_archive(archive, path) -> EnsemblePredictor:
    fmt = str(_entry(archive, "format", path))
    if fmt != ENSEMBLE_FORMAT:
        raise ValueError(f"model file {path}: unsupported model format {fmt!r}")
    text = str(_entry(archive, "config_json", path))
    try:
        meta = json.loads(text)
        config = TrainConfig(
            ensemble_size=int(meta["ensemble_size"]),
            epochs=int(meta["epochs"]),
            batch_size=int(meta["batch_size"]),
            adam=AdamConfig(
                learning_rate=float(meta["learning_rate"]),
                beta1=float(meta["beta1"]),
                beta2=float(meta["beta2"]),
                eps=float(meta["eps"]),
            ),
            seed=int(meta["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"model file {path}: malformed config_json ({exc!r})") from exc
    if config.ensemble_size < 1:
        raise ValueError(f"model file {path}: ensemble_size {config.ensemble_size} is not positive")
    members = []
    layers = list(enumerate(zip(LAYER_SIZES[:-1], LAYER_SIZES[1:])))
    for j in range(config.ensemble_size):
        weights = [_param_entry(archive, f"member{j}_w{i}", shape, path) for i, shape in layers]
        biases = [_param_entry(archive, f"member{j}_b{i}", shape[1:], path) for i, shape in layers]
        members.append(MlpParams(weights, biases))
    history = tuple(tuple(row) for row in _entry(archive, "history", path))
    return EnsemblePredictor(tuple(members), config, history)


# ----------------------------------------------------------------- records & grids

def make_records(predictor, data: LabeledSet) -> EvaluationRecords:
    """Evaluate the predictor once per sample and bundle the results."""
    dist = predictor.predict(data.xs)
    n = len(data)
    predictions = np.broadcast_to(np.asarray(dist.mean, dtype=np.float64), (n,))
    uncertainties = np.broadcast_to(np.asarray(dist.variance, dtype=np.float64), (n,))
    return EvaluationRecords(
        predictions=predictions,
        abs_errors=np.abs(data.ys - predictions),
        uncertainties=uncertainties,
        log_densities=np.broadcast_to(np.asarray(dist.log_density(data.ys)), (n,)),
        pits=np.broadcast_to(np.asarray(dist.cdf(data.ys)), (n,)),
    )


def log_density_grid(predictor, x_values: np.ndarray, y_values: np.ndarray) -> np.ndarray:
    """z[i, j] = log predictive density at (x_values[i], y_values[j])."""
    x_values = np.asarray(x_values, dtype=np.float64)
    y_values = np.asarray(y_values, dtype=np.float64)
    dist = predictor.predict(x_values)
    z = np.asarray(dist.log_density(y_values[:, None]))  # (ny, nx)
    return np.broadcast_to(z, (len(y_values), len(x_values))).T
