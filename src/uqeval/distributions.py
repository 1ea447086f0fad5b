"""Gaussian and Gaussian-mixture predictive distributions.

Parameters may be scalars or numpy arrays; array-valued parameters
represent one independent distribution per element, and all density,
CDF and moment operations broadcast.  Variances are floored at
VARIANCE_FLOOR on construction so log densities stay finite.

The normal CDF uses scipy's ndtr (the platform erf), whose absolute
error is far below the 1e-7 the interface promises.  `ndtr` and
`logsumexp` are imported when first used, in `Gaussian.cdf` and
`GaussianMixture.log_density`, so a process that never computes a CDF
or a mixture density (`train` and its workers, say) never loads scipy.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

VARIANCE_FLOOR = 1e-12
_LOG_2PI = np.log(2.0 * np.pi)


def _as_param(value) -> np.ndarray | float:
    arr = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("distribution parameters must be finite")
    return arr if arr.ndim else float(arr)


@dataclass(frozen=True, eq=False)
class Gaussian:
    """Normal distribution(s) with given mean and variance."""

    mean: np.ndarray | float
    variance: np.ndarray | float

    def __post_init__(self):
        object.__setattr__(self, "mean", _as_param(self.mean))
        var = np.maximum(_as_param(self.variance), VARIANCE_FLOOR)
        object.__setattr__(self, "variance", var if np.ndim(var) else float(var))

    def log_density(self, y) -> np.ndarray | float:
        y = np.asarray(y, dtype=np.float64)
        out = -0.5 * (_LOG_2PI + np.log(self.variance)) - (y - self.mean) ** 2 / (
            2.0 * self.variance
        )
        return out if out.ndim else float(out)

    def cdf(self, y) -> np.ndarray | float:
        from scipy.special import ndtr

        y = np.asarray(y, dtype=np.float64)
        out = ndtr((y - self.mean) / np.sqrt(self.variance))
        return out if np.ndim(out) else float(out)


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Finite mixture of Gaussians with fixed nonnegative weights."""

    weights: np.ndarray
    components: tuple[Gaussian, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or len(w) != len(self.components) or len(w) == 0:
            raise ValueError("need one weight per component")
        if np.any(w < 0) or not np.isclose(w.sum(), 1.0):
            raise ValueError("weights must be nonnegative and sum to 1")
        w = w / w.sum()
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "components", tuple(self.components))

    @property
    def mean(self) -> np.ndarray | float:
        out = sum(w * np.asarray(c.mean) for w, c in zip(self.weights, self.components))
        return out if np.ndim(out) else float(out)

    @property
    def variance(self) -> np.ndarray | float:
        m = self.mean
        second = sum(
            w * (np.asarray(c.variance) + np.asarray(c.mean) ** 2)
            for w, c in zip(self.weights, self.components)
        )
        out = second - np.asarray(m) ** 2
        return out if np.ndim(out) else float(out)

    def log_density(self, y) -> np.ndarray | float:
        from scipy.special import logsumexp

        # log-sum-exp over components; stable when some components underflow
        parts = [np.asarray(c.log_density(y)) for c in self.components]
        stacked = np.stack(np.broadcast_arrays(*parts))
        shape = (len(self.components),) + (1,) * (stacked.ndim - 1)
        out = logsumexp(stacked, axis=0, b=self.weights.reshape(shape))
        return out if np.ndim(out) else float(out)

    def cdf(self, y) -> np.ndarray | float:
        out = sum(w * np.asarray(c.cdf(y)) for w, c in zip(self.weights, self.components))
        return out if np.ndim(out) else float(out)


def moment_match(mixture: GaussianMixture) -> Gaussian:
    """Single Gaussian with the mixture's mean and variance."""
    return Gaussian(mixture.mean, mixture.variance)
