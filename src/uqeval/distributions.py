"""Gaussian and Gaussian-mixture predictive distributions.

Parameters may be scalars or numpy arrays; array-valued parameters
represent one independent distribution per element, and all density,
CDF and moment operations broadcast.  Parameters, moments, densities
and CDFs are numpy values: arrays, or 0-d arrays and numpy scalars for
scalar inputs.  Variances are floored at VARIANCE_FLOOR on construction
so log densities stay finite.

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


def _as_param(value) -> np.ndarray:
    arr = np.asarray(value, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("distribution parameters must be finite")
    return arr


@dataclass(frozen=True, eq=False)
class Gaussian:
    """Normal distribution(s) with given mean and variance."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "mean", _as_param(self.mean))
        object.__setattr__(self, "variance", np.maximum(_as_param(self.variance), VARIANCE_FLOOR))

    def log_density(self, y) -> np.ndarray:
        y = np.asarray(y, dtype=np.float64)
        return -0.5 * (_LOG_2PI + np.log(self.variance)) - (y - self.mean) ** 2 / (
            2.0 * self.variance
        )

    def cdf(self, y) -> np.ndarray:
        from scipy.special import ndtr

        y = np.asarray(y, dtype=np.float64)
        return ndtr((y - self.mean) / np.sqrt(self.variance))


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
    def mean(self) -> np.ndarray:
        return sum(w * c.mean for w, c in zip(self.weights, self.components))

    @property
    def variance(self) -> np.ndarray:
        m = self.mean
        second = sum(
            w * (c.variance + c.mean**2) for w, c in zip(self.weights, self.components)
        )
        return second - m**2

    def log_density(self, y) -> np.ndarray:
        from scipy.special import logsumexp

        # log-sum-exp over components; stable when some components underflow
        parts = [c.log_density(y) for c in self.components]
        stacked = np.stack(np.broadcast_arrays(*parts))
        shape = (len(self.components),) + (1,) * (stacked.ndim - 1)
        return logsumexp(stacked, axis=0, b=self.weights.reshape(shape))

    def cdf(self, y) -> np.ndarray:
        return sum(w * c.cdf(y) for w, c in zip(self.weights, self.components))


def moment_match(mixture: GaussianMixture) -> Gaussian:
    """Single Gaussian with the mixture's mean and variance."""
    return Gaussian(mixture.mean, mixture.variance)
