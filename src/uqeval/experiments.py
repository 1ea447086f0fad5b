"""Experiment harness: metric stability studies and artifact CSVs.

Two stability protocols over a fixed predictor (heteroscedastic data by
default):

    convergence  one size-2^16 test set; metrics on nested subsets of
                 sizes 2^3 .. 2^16 (each subset is a prefix of one seeded
                 permutation, so smaller subsets are contained in larger)
    bias         100 independently generated test sets per size; the per
                 size means expose small-sample bias of each metric

Metrics that are undefined for a given input (Spearman under constant
uncertainty) are recorded as nan with a warning, never as silent zeros.
All CSV emission is deterministic: full-precision repr values, LF line
endings, no timestamps.
"""
from __future__ import annotations

import hashlib
import json
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields
from functools import partial

import numpy as np

from .cores import map_on_cores
from .datasets import DatasetKind, Split, csv_chunks, generate
from .metrics import EvalConfig, MetricReport, evaluate, sparsification_curve
from .network import FORWARD_CHUNK_ROWS
from .predictors import make_records, predict_chunks
from .seeds import TAG_REPLICATE, TAG_SUBSET, derive_seed, make_rng

SIZES = tuple(2**k for k in range(3, 17))
DEFAULT_REPLICATES = 100


# ----------------------------------------------------------------- stability

@dataclass(frozen=True)
class StabilityResult:
    """One study: `reports[i]` is the metric report at test set size `sizes[i]`."""

    sizes: tuple[int, ...]
    reports: tuple[MetricReport, ...]

    def to_csv(self, mean_prefix: bool = False) -> str:
        names = ("ause", "spearman", "nll", "ece")
        header = ",".join(["test_size"] + [("mean_" if mean_prefix else "") + c for c in names])
        columns = ([getattr(r, field) for r in self.reports]
                   for field in ("ause", "spearman", "nll", "ce"))
        return "".join(csv_chunks(header, self.sizes, *columns))


def convergence_experiment(
    predictor,
    kind: DatasetKind = DatasetKind.HETEROSCEDASTIC,
    base_seed: int = 0,
    eval_config: EvalConfig | None = None,
    sizes: tuple[int, ...] = SIZES,
) -> StabilityResult:
    """The test set is dropped once scored; each subset is dropped once evaluated."""
    records = make_records(predictor, generate(kind, Split.TEST, max(sizes), base_seed))
    perm = make_rng(derive_seed(base_seed, TAG_SUBSET)).permutation(len(records))
    reports = [evaluate(records.take(perm[:size]), eval_config) for size in sizes]
    return StabilityResult(tuple(sizes), tuple(reports))


def _bias_replicate(predictor, kind, base_seed, eval_config, sizes, rep) -> list[MetricReport]:
    """Replicate `rep`'s report at every size, each on its own seeded test set.

    A size's test set is freed once scored and its records once evaluated,
    so none of them is held while the next size is made.
    """
    seeds = [derive_seed(base_seed, TAG_REPLICATE, size_ix, rep) for size_ix in range(len(sizes))]
    return [evaluate(make_records(predictor, generate(kind, Split.TEST, size, seed)), eval_config)
            for size, seed in zip(sizes, seeds)]


def bias_experiment(
    predictor,
    kind: DatasetKind = DatasetKind.HETEROSCEDASTIC,
    base_seed: int = 0,
    replicates: int = DEFAULT_REPLICATES,
    eval_config: EvalConfig | None = None,
    sizes: tuple[int, ...] = SIZES,
) -> StabilityResult:
    """Per-size means over `replicates` independent test sets.

    Replicates are scored side by side through `map_on_cores`, one task
    each; every test set has its own seed, so the means are bit-identical
    to scoring them one after another.  Each mean is np.mean of one
    field's values in replicate order.
    """
    if replicates < 1:
        raise ValueError("replicates must be positive")
    score = partial(_bias_replicate, predictor, kind, base_seed, eval_config, sizes)
    means = (  # zip gives one size's reports at a time, in replicate order
        MetricReport(**{f.name: float(np.mean([getattr(r, f.name) for r in at_size]))
                        for f in fields(MetricReport)})
        for at_size in zip(*map_on_cores(score, range(replicates))))
    return StabilityResult(tuple(sizes), tuple(means))


# ----------------------------------------------------------------- artifact CSVs

def sparsification_csv(predictor, kind: DatasetKind, base_seed: int, n: int) -> Iterator[str]:
    """Scores the test set now; the returned chunks format the curve lazily.

    The test set is dropped once scored, so the curve is computed beside
    the records alone.
    """
    records = make_records(predictor, generate(kind, Split.TEST, n, base_seed))
    curve = sparsification_curve(records)
    return csv_chunks("fraction,oracle,sparsification",
                      curve.fractions, curve.by_oracle, curve.by_uncertainty)


def density_grid_csv(
    predictor,
    x_values: np.ndarray,
    y_values: np.ndarray,
) -> Iterator[str]:
    """Rows iterate x in the outer loop and y in the inner loop.

    The text is `csv_chunks` of x and y as broadcast (nx, ny) views and of
    z.  z is filled one `predict_chunks` chunk of x values at a time, in
    blocks of FORWARD_CHUNK_ROWS // rows y values (at least one), so no
    call sees more than about one forward chunk of cells and every cell is
    the same elementwise log density.  A log density that is not finite
    somewhere (a non-finite grid value, or one so far out that the density
    underflows to 0) raises ValueError naming the first such point in row
    order, before any text is made.
    """
    x_values = np.asarray(x_values, dtype=np.float64)
    y_values = np.asarray(y_values, dtype=np.float64)
    z = np.empty((len(x_values), len(y_values)))  # z[i, j] at (x[i], y[j])
    for rows, dist in predict_chunks(predictor, x_values):
        block = z[rows]
        step = max(1, FORWARD_CHUNK_ROWS // max(1, len(block)))
        for lo in range(0, len(y_values), step):
            block[:, lo : lo + step] = dist.log_density(y_values[lo : lo + step, None]).T
        if block.size and not (np.isfinite(block.min()) and np.isfinite(block.max())):
            i, j = np.argwhere(~np.isfinite(block))[0]
            raise ValueError(f"log density {block[i, j]} at x {x_values[rows][i]}, y {y_values[j]}")
    return csv_chunks("x,y,z", np.broadcast_to(x_values[:, None], z.shape),
                      np.broadcast_to(y_values, z.shape), z)


# ----------------------------------------------------------------- run manifests

MANIFEST_VERSION = 1


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to regenerate a run's artifacts byte-identically."""

    command: str
    argv: tuple[str, ...]
    parameters: dict
    outputs: tuple[dict, ...]
    manifest_version: int = MANIFEST_VERSION

    @property
    def config_hash(self) -> str:
        canon = json.dumps(self.parameters, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()

    def to_json(self) -> str:
        payload = asdict(self)
        payload["argv"] = list(self.argv)
        payload["outputs"] = [dict(o) for o in self.outputs]
        payload["config_hash"] = self.config_hash
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def make_manifest(command: str, argv: list[str], parameters: dict, output_paths: list) -> RunManifest:
    outputs = tuple(
        {"path": str(p), "sha256": sha256_file(p)} for p in output_paths
    )
    return RunManifest(
        command=command,
        argv=tuple(str(a) for a in argv),
        parameters=dict(parameters),
        outputs=outputs,
    )


def read_manifest(path) -> RunManifest:
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    return RunManifest(
        command=payload["command"],
        argv=tuple(payload["argv"]),
        parameters=payload["parameters"],
        outputs=tuple(payload["outputs"]),
        manifest_version=payload["manifest_version"],
    )
