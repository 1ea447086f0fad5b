"""Predictors: the analytic reference and a trained deep ensemble.

A predictor maps inputs to predictive distributions.  Its point estimate
is the distribution mean and its scalar uncertainty is the distribution
variance.  `make_records` turns a predictor plus labeled data into the
per-sample records the metrics consume.
"""
from __future__ import annotations

import json
import lzma
import math
import zipfile
import zlib
from dataclasses import asdict, dataclass, fields
from functools import partial

import numpy as np

from .cores import map_on_cores
from .datasets import DatasetKind, LabeledSet, conditional_components
from .distributions import Gaussian, GaussianMixture, moment_match
from .metrics import EvaluationRecords
from .network import (
    BETA1,
    BETA2,
    EPS,
    FORWARD_CHUNK_ROWS,
    LEARNING_RATE,
    PARAM_SHAPES,
    AdamState,
    MlpParams,
    adam_step,
    forward,
    init_params,
    loss_and_grads,
    row_blocks,
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

    def __reduce__(self):  # so a training worker can send it back to the parent
        return type(self), (self.member, self.epoch, self.batch)


@dataclass(frozen=True)
class TrueDistributionPredictor:
    """Oracle that reports the generating conditional distribution."""

    kind: DatasetKind

    def predict(self, x):
        means, std = conditional_components(self.kind, x)
        var = std**2
        del std  # Gaussian's variance floor then runs beside the means and var alone
        if len(means) == 1:
            return Gaussian(means[0], var)
        return GaussianMixture(np.array([0.5, 0.5]), tuple(Gaussian(m, var) for m in means))


@dataclass(frozen=True)
class ScaledUncertaintyPredictor:
    """Stretches a base predictor's distribution about its mean.

    Used as a deliberately miscalibrated reference: scale 2 doubles every
    predictive standard deviation while keeping the mean prediction.
    """

    base: object
    scale: float

    def predict(self, x):
        dist = self.base.predict(x)
        s2 = self.scale**2
        if isinstance(dist, Gaussian):
            return Gaussian(dist.mean, dist.variance * s2)
        center = dist.mean
        comps = tuple(
            Gaussian(center + self.scale * (c.mean - center), c.variance * s2)
            for c in dist.components
        )
        return GaussianMixture(dist.weights, comps)


# ----------------------------------------------------------------- deep ensemble

@dataclass(frozen=True)
class TrainConfig:
    """The ensemble recipe (one rule for training and loading); Adam's settings are in `network`."""

    ensemble_size: int = 5
    epochs: int = 20
    batch_size: int = 128
    seed: int = 0

    def __post_init__(self):
        for key, value in asdict(self).items():
            if type(value) is not int:  # exact: no bool, float or numpy integer
                raise ValueError(f"{key!r} must be an integer, got {value!r}")
        if min(self.ensemble_size, self.epochs, self.batch_size) < 1:
            raise ValueError(f"ensemble_size, epochs and batch_size must be positive, got "
                             f"{self.ensemble_size}, {self.epochs} and {self.batch_size}")


@dataclass(eq=False)
class EnsemblePredictor:
    """Uniformly weighted ensemble; predictions are moment-matched Gaussians.

    `predict` runs all members in one `forward` call, which owns the work
    buffers they share.
    """

    members: tuple[MlpParams, ...]
    config: TrainConfig
    history: tuple[tuple[float, ...], ...]  # mean training loss per member, per epoch

    def predict(self, x) -> Gaussian:
        comps = forward(self.members, x)
        weights = np.full(len(comps), 1.0 / len(comps))
        return moment_match(GaussianMixture(weights / weights.sum(), comps))


def _train_member(train: LabeledSet, config: TrainConfig, member: int) -> tuple[MlpParams, list[float]]:
    # one stream per member: init draws first, then one shuffle per epoch
    rng = make_rng(derive_seed(config.seed, TAG_MEMBER, member))
    params = init_params(rng)
    arrays = params.arrays()  # the same objects as params.weights/biases, updated in place
    state = AdamState.zeros_like(arrays)
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
            adam_step(arrays, grads, state)
            total += loss * len(batch)
        epoch_losses.append(total / n)
    return params, epoch_losses


def train_ensemble(train: LabeledSet, config: TrainConfig | None = None) -> EnsemblePredictor:
    """Trains every member independently from seeds derived off config.seed.

    Members train side by side through `map_on_cores`.  Each member's
    result depends only on its seed, so the parameters are bit-identical
    to training them one after another.  A member that diverges raises
    its TrainingDivergedError here; when several do, the lowest-numbered
    one.
    """
    config = config or TrainConfig()
    if len(train) == 0:
        raise ValueError("empty training set")
    params, history = zip(*map_on_cores(partial(_train_member, train, config),
                                        range(config.ensemble_size)))
    return EnsemblePredictor(params, config, tuple(tuple(losses) for losses in history))


# ----------------------------------------------------------------- persistence

_CONFIG_INTEGERS = tuple(field.name for field in fields(TrainConfig))
_CONFIG_ADAM = ("learning_rate", "beta1", "beta2", "eps")  # recorded, not read back


def _member_keys(j: int) -> list[str]:
    """Member j's archive keys, in `MlpParams.arrays()` (and PARAM_SHAPES) order."""
    return [f"member{j}_{'wb'[i % 2]}{i // 2}" for i in range(len(PARAM_SHAPES))]


def save_ensemble(predictor: EnsemblePredictor, path) -> None:
    """Single .npz archive: version tag, config JSON, parameter arrays."""
    meta = asdict(predictor.config)
    meta.update(zip(_CONFIG_ADAM, (LEARNING_RATE, BETA1, BETA2, EPS)))
    arrays = {
        "format": np.array(ENSEMBLE_FORMAT),
        "config_json": np.array(json.dumps(meta, sort_keys=True)),
        "history": np.array(predictor.history, dtype=np.float64),
    }
    for j, params in enumerate(predictor.members):
        arrays.update(zip(_member_keys(j), params.arrays()))
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _entry(archive, key: str, path) -> np.ndarray:
    if key not in archive.files:
        raise ValueError(f"model file {path}: missing array {key!r}")
    try:
        return archive[key]
    except ValueError as exc:  # an object array: np.load refuses to unpickle it
        raise ValueError(f"model file {path}: array {key!r} cannot be read ({exc})") from exc


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

    A truncated archive, a malformed config (a value that is not the JSON
    integer or number `save_ensemble` writes, say), a missing or
    mis-shaped parameter array, a non-finite parameter, any array
    `save_ensemble` does not write for the configured ensemble size, or a
    loss history that is not finite float64 of shape (ensemble_size,
    epochs) raises ValueError naming the file and the entry, before any
    inference runs.  So does a file that zipfile cannot read: not a zip
    archive, a zip version, compression method or flag it does not
    support, an encrypted entry, an entry that does not decompress, an
    undecodable entry name, or an entry offset it cannot seek to.  A file
    that cannot be opened raises OSError.
    """
    with open(path, "rb") as fh:
        try:
            with np.lib.npyio.NpzFile(fh) as archive:
                return _ensemble_from_archive(archive, path)
        except (zipfile.BadZipFile, zlib.error, lzma.LZMAError, EOFError, OSError,
                NotImplementedError, RuntimeError, UnicodeDecodeError) as exc:
            raise ValueError(f"model file {path}: not a readable .npz archive ({exc})") from exc


def _config_from_json(text: str, path) -> TrainConfig:
    """The TrainConfig of a `config_json` entry; the Adam values must be finite JSON numbers."""
    try:
        meta = json.loads(text)
        values = {key: meta[key] for key in _CONFIG_INTEGERS + _CONFIG_ADAM}
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"model file {path}: malformed config_json ({exc!r})") from exc
    try:
        config = TrainConfig(**{key: values[key] for key in _CONFIG_INTEGERS})
    except ValueError as exc:
        raise ValueError(f"model file {path}: config_json {exc}") from exc
    for key in _CONFIG_ADAM:  # exact types: json reads true as a bool, an int subclass
        value = values[key]
        if not (type(value) is int or (type(value) is float and math.isfinite(value))):
            raise ValueError(f"model file {path}: config_json {key!r} must be a finite number, "
                             f"got {value!r}")
    return config


def _ensemble_from_archive(archive, path) -> EnsemblePredictor:
    fmt = str(_entry(archive, "format", path))
    if fmt != ENSEMBLE_FORMAT:
        raise ValueError(f"model file {path}: unsupported model format {fmt!r}")
    config = _config_from_json(str(_entry(archive, "config_json", path)), path)
    member_keys = [_member_keys(j) for j in range(config.ensemble_size)]
    written = {"format", "config_json", "history"}.union(*member_keys)
    unexpected = sorted(set(archive.files) - written)
    if unexpected:
        raise ValueError(f"model file {path}: array {unexpected[0]!r} is not one save_ensemble "
                         f"writes for the {config.ensemble_size} members config_json declares")
    members = []
    for keys in member_keys:
        flat = [_param_entry(archive, key, shape, path) for key, shape in zip(keys, PARAM_SHAPES)]
        members.append(MlpParams(flat[::2], flat[1::2]))
    history = _param_entry(archive, "history", (config.ensemble_size, config.epochs), path)
    return EnsemblePredictor(tuple(members), config, tuple(tuple(row) for row in history))


# ----------------------------------------------------------------- records

def predict_chunks(predictor, xs: np.ndarray):
    """Yields (rows, predictor.predict(xs[rows])) for each scoring chunk of xs.

    The chunks are `row_blocks` of FORWARD_CHUNK_ROWS, two forward blocks
    each: an ensemble's one `forward` call per chunk runs it as blocks of
    FORWARD_BLOCK_ROWS to 2 * FORWARD_BLOCK_ROWS - 1 rows (or whole, when
    it is all of xs), so every member keeps the bits of one pass while
    temporaries, the shared work buffers included, stay constant in len(xs).
    """
    bounds = row_blocks(len(xs), FORWARD_CHUNK_ROWS)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        yield slice(lo, hi), predictor.predict(xs[lo:hi])


def make_records(predictor, data: LabeledSet) -> EvaluationRecords:
    """Evaluate the predictor once per sample and bundle the results.

    Rows are scored into the record arrays one `predict_chunks` chunk at
    a time, so predictive temporaries, per-member network outputs
    included, stay constant in N and small enough for the cache, and every
    field is bit-identical to one pass.  Absolute errors are computed in
    their record slice; the other fields are copied in.
    """
    abs_errors, *fields = [np.empty(len(data)) for _ in range(4)]
    for rows, dist in predict_chunks(predictor, data.xs):
        ys = data.ys[rows]
        np.abs(np.subtract(ys, dist.mean, out=abs_errors[rows]), out=abs_errors[rows])
        for column, block in zip(fields, (dist.variance, dist.log_density(ys), dist.cdf(ys))):
            column[rows] = block
    return EvaluationRecords(abs_errors, *fields)
