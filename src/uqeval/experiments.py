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
import itertools
import json
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .datasets import CSV_BLOCK_ROWS, DatasetKind, Split, csv_chunks, csv_rows, generate
from .distributions import Gaussian, GaussianMixture
from .metrics import EvalConfig, MetricReport, evaluate, sparsification_curve
from .predictors import make_records, map_on_cores
from .seeds import TAG_REPLICATE, TAG_SUBSET, derive_seed, make_rng

SIZES = tuple(2**k for k in range(3, 17))
DEFAULT_REPLICATES = 100


# ----------------------------------------------------------------- stability

@dataclass(frozen=True)
class StabilityRow:
    test_size: int
    report: MetricReport


@dataclass(frozen=True)
class StabilityResult:
    rows: tuple[StabilityRow, ...]

    def to_csv(self, mean_prefix: bool = False) -> str:
        names = ("ause", "spearman", "nll", "ece")
        header = ",".join(["test_size"] + [("mean_" if mean_prefix else "") + c for c in names])
        reports = [row.report for row in self.rows]
        return "".join(csv_chunks(
            header, [row.test_size for row in self.rows], [r.ause for r in reports],
            [r.spearman for r in reports], [r.nll for r in reports], [r.ce for r in reports]))


def convergence_experiment(
    predictor,
    kind: DatasetKind = DatasetKind.HETEROSCEDASTIC,
    base_seed: int = 0,
    eval_config: EvalConfig | None = None,
    sizes: tuple[int, ...] = SIZES,
) -> StabilityResult:
    data = generate(kind, Split.TEST, max(sizes), base_seed)
    records = make_records(predictor, data)
    perm = make_rng(derive_seed(base_seed, TAG_SUBSET)).permutation(len(records))
    rows = []
    for size in sizes:
        subset = records.take(perm[:size])
        rows.append(StabilityRow(size, evaluate(subset, eval_config)))
    return StabilityResult(tuple(rows))


def _bias_replicate(predictor, kind, base_seed, eval_config, sizes, rep) -> list[MetricReport]:
    """Replicate `rep`'s report at every size, each on its own seeded test set."""
    reports = []
    for size_ix, size in enumerate(sizes):
        seed = derive_seed(base_seed, TAG_REPLICATE, size_ix, rep)
        data = generate(kind, Split.TEST, size, seed)
        reports.append(evaluate(make_records(predictor, data), eval_config))
    return reports


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
    to scoring them one after another.
    """
    if replicates < 1:
        raise ValueError("replicates must be positive")
    score = partial(_bias_replicate, predictor, kind, base_seed, eval_config, sizes)
    per_rep = map_on_cores(score, range(replicates))
    rows = []
    for size_ix, size in enumerate(sizes):
        reports = [rep_reports[size_ix] for rep_reports in per_rep]  # in replicate order
        mean = MetricReport(
            ause=float(np.mean([r.ause for r in reports])),
            ce=float(np.mean([r.ce for r in reports])),
            spearman=float(np.mean([r.spearman for r in reports])),
            nll=float(np.mean([r.nll for r in reports])),
        )
        rows.append(StabilityRow(size, mean))
    return StabilityResult(tuple(rows))


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


def _rows(dist, lo: int, hi: int):
    """The distributions of rows lo..hi-1 of `dist`, from its sliced parameters."""
    if isinstance(dist, GaussianMixture):
        return GaussianMixture(dist.weights, tuple(_rows(c, lo, hi) for c in dist.components))
    return Gaussian(dist.mean[lo:hi], dist.variance[lo:hi])


def density_grid_csv(
    predictor,
    x_values: np.ndarray,
    y_values: np.ndarray,
) -> Iterator[str]:
    """Rows iterate x in the outer loop and y in the inner loop.

    Each chunk of text holds the rows of about CSV_BLOCK_ROWS // ny x values.
    The predictor runs once over all x; the log densities are then filled
    into one (nx, ny) array a block of those x values at a time, so the
    temporaries stay the size of one chunk.  A log density that is not
    finite somewhere on the grid (a non-finite grid value, or one so far
    out that the density underflows to 0) raises ValueError naming the
    first such point, before any text is made.
    """
    x_values = np.asarray(x_values, dtype=np.float64)
    y_values = np.asarray(y_values, dtype=np.float64)
    nx, ny = len(x_values), len(y_values)
    step = max(1, CSV_BLOCK_ROWS // max(1, ny))
    dist = predictor.predict(x_values)
    z = np.empty((nx, ny))  # z[i, j] at (x[i], y[j])
    for i in range(0, nx, step):
        z[i : i + step] = _rows(dist, i, i + step).log_density(y_values[:, None]).T
    if not np.isfinite(z).all():
        i, j = np.argwhere(~np.isfinite(z))[0]
        raise ValueError(f"log density {z[i, j]} at x {x_values[i]}, y {y_values[j]}")
    blocks = (
        csv_rows(np.repeat(x_values[i : i + step], ny),
                 np.tile(y_values, len(x_values[i : i + step])),
                 z[i : i + step].ravel())
        for i in range(0, nx, step)
    )
    return itertools.chain(["x,y,z\n"], blocks)


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
