"""Gaussian and Gaussian-mixture predictive distributions.

Parameters may be scalars or numpy arrays; array-valued parameters
represent one independent distribution per element, and all density,
CDF and moment operations broadcast.  Parameters, moments, densities
and CDFs are numpy values: arrays, or 0-d arrays and numpy scalars for
scalar inputs.  Variances are floored at VARIANCE_FLOOR on construction
so log densities stay finite.

numpy is the only dependency.  The normal CDF `ndtr` is a port of
Cephes' `ndtr`/`erf`/`erfc`, the routines behind `scipy.special.ndtr`:
with x = a/sqrt(2), the odd rational erf(x) for |x| < 1, and for
|x| >= 1 the rational erfc(|x|) = exp(-x^2) P(|x|)/Q(|x|), one pair of
polynomials below 8 and another from 8 up, which is 0 once x^2 exceeds
MAXLOG.  The same coefficients evaluated by the same Horner steps give
the same bits as scipy.  exp(-x^2) is libm's `math.exp`, element by
element, as Cephes calls it: numpy's vectorised exp rounds differently
on some arguments, which would move PITs and so calibration errors.
`ndtr` is one pass of whole-array expressions: `make_records` hands it one
forward chunk of rows at a time, small enough to stay in cache.

`logsumexp` reduces the components of a mixture with the steps of scipy
1.17.1's `logsumexp` for nonnegative weights: the maximal terms are split
off, the result is log1p(s/m) + log(m) + max, and where that is not
finite, log(sum b exp(a)).  So mixture densities keep scipy's bits, and
no longer depend on which scipy is installed.
"""
from __future__ import annotations

import math
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
        y = np.asarray(y, dtype=np.float64)
        return ndtr((y - self.mean) / np.sqrt(self.variance))


@dataclass(frozen=True, eq=False)
class GaussianMixture:
    """Finite mixture of Gaussians with fixed nonnegative weights."""

    weights: np.ndarray
    components: tuple[Gaussian, ...]

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64)  # a copy, kept as given
        if w.ndim != 1 or len(w) != len(self.components) or len(w) == 0:
            raise ValueError("need one weight per component")
        if np.any(w < 0) or not np.isclose(w.sum(), 1.0):
            raise ValueError("weights must be nonnegative and sum to 1")
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
        # log-sum-exp over components; stable when some components underflow
        parts = [c.log_density(y) for c in self.components]
        stacked = np.stack(np.broadcast_arrays(*parts))
        shape = (len(self.components),) + (1,) * (stacked.ndim - 1)
        return logsumexp(stacked, self.weights.reshape(shape))

    def cdf(self, y) -> np.ndarray:
        return sum(w * c.cdf(y) for w, c in zip(self.weights, self.components))


def moment_match(mixture: GaussianMixture) -> Gaussian:
    """Single Gaussian with the mixture's mean and variance."""
    return Gaussian(mixture.mean, mixture.variance)


# Cephes ndtr.c: M_SQRT1_2, MAXLOG = log(2^1024), and the coefficients of
# erfc for 1 <= x < 8 (P/Q) and x >= 8 (R/S), and of erf (T/U), highest
# power first; Q, S and U have an implicit leading 1.
_SQRT1_2 = 0.70710678118654752440
_MAXLOG = 7.09782712893383996843e2
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)


def _horner(x, coefs, monic=False) -> np.ndarray:
    """Cephes polevl (monic=False) or p1evl (True, implicit leading 1)."""
    out = x + coefs[0] if monic else x * coefs[0] + coefs[1]
    for c in coefs[1 if monic else 2:]:
        out *= x
        out += c
    return out


def _erfc_tail(z: np.ndarray) -> np.ndarray:
    """Cephes erfc(z) for z >= 1: exp(-z^2) P(z)/Q(z), 0 once z^2 > MAXLOG."""
    z = np.minimum(z, 38.0)  # 38^2 > MAXLOG: the same cut, and no overflow
    exponent = np.negative(z * z)
    out = np.fromiter(map(math.exp, exponent.tolist()), np.float64, count=len(z))
    num, den = _horner(z, _P), _horner(z, _Q, monic=True)
    far = z >= 8.0
    if far.any():
        num[far], den[far] = _horner(z[far], _R), _horner(z[far], _S, monic=True)
    out *= num
    out /= den
    out[exponent < -_MAXLOG] = 0.0
    return out


def ndtr(a) -> np.ndarray:
    """Standard normal CDF of each element, bit for bit Cephes' (scipy's) ndtr.

    A 0-d input gives a numpy scalar, as a numpy ufunc does.
    """
    a = np.asarray(a, dtype=np.float64)
    x = a.reshape(-1) * _SQRT1_2
    z = np.abs(x)
    # erf(|x|) = |x| T(x^2) / U(x^2) below 1, taken at min(|x|, 1) so that
    # a larger |x|, whose value is not used, cannot overflow
    w = np.minimum(z, 1.0)
    square = w * w
    erf = _horner(square, _T) * w / _horner(square, _U, monic=True)
    # |x| >= 1/sqrt(2): 0.5 erfc(|x|), reflected to 1 - 0.5 erfc(|x|) for
    # x > 0; erfc(|x|) is 1 - erf(|x|) below 1
    y = 1.0 - erf
    tail = np.flatnonzero(z >= 1.0)  # one index array for the gather and the scatter
    if len(tail):
        y[tail] = _erfc_tail(z[tail])
    y *= 0.5
    np.putmask(y, x > 0.0, 1.0 - y)
    # |x| < 1/sqrt(2): 0.5 + 0.5 erf(x), with erf odd
    np.putmask(y, z < _SQRT1_2, np.copysign(erf, x) * 0.5 + 0.5)
    y = y.reshape(a.shape)
    return y[()] if y.ndim == 0 else y


def logsumexp(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(sum(b * exp(a), axis=0)) for weights b >= 0 of shape (K, 1, ...).

    The steps of scipy 1.17.1's logsumexp, so the bits are its bits: a
    zero weight makes its term -inf; the maximal terms are split off, with
    m the sum of their weights; the result is log1p(s/m) + log(m) + max
    for s the weighted sum of the other terms' exp(a - max); and wherever
    that is not finite (every term -inf, say), it is log(sum(b exp(a))).
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shifted = np.where(b == 0, -np.inf, a)
        top = np.max(shifted, axis=0, keepdims=True)
        is_top = shifted == top
        m = np.sum(np.where(is_top, b, 0.0), axis=0, keepdims=True)
        shifted[is_top] = -np.inf
        shifted -= top
        np.exp(shifted, out=shifted)
        shifted *= b
        s = np.sum(shifted, axis=0, keepdims=True)
        np.divide(s, m, out=s, where=s != 0)
        out = np.log1p(s)
        out += np.log(m)
        out += top
        bad = ~np.isfinite(out.reshape(-1))
        if bad.any():
            k = len(a)
            terms = b.reshape(k, 1) * np.exp(a.reshape(k, -1)[:, bad])
            out.reshape(-1)[bad] = np.log(np.sum(terms, axis=0))
    return out[0]
