"""Minimal fully connected network trained on the Gaussian NLL, in numpy.

Fixed architecture: 1 -> 256 -> 256 -> 256 -> 256 -> 2 with ReLU between
layers.  The two outputs are the predictive mean and a raw scale whose
positive image softplus(raw) + 1e-6 is the predictive variance.  Loss per
sample is the exact negative log density

    log(var) / 2 + (y - mean)^2 / (2 var) + log(2 pi) / 2

and gradients are computed analytically (backprop through the softplus).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .distributions import Gaussian

LAYER_SIZES = (1, 256, 256, 256, 256, 2)
VARIANCE_SHIFT = 1e-6
FORWARD_CHUNK_ROWS = 4096  # rows per inference chunk; see _chunk_bounds
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass(eq=False)
class MlpParams:
    """Weight matrices and bias vectors for the fixed layer chain."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        expected = list(zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]))
        got = [w.shape for w in self.weights]
        if got != expected or [b.shape for b in self.biases] != [(o,) for _, o in expected]:
            raise ValueError(f"parameter shapes {got} do not match {expected}")

    def arrays(self) -> list[np.ndarray]:
        out: list[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.extend([w, b])
        return out

    @classmethod
    def from_arrays(cls, arrays: list[np.ndarray]) -> "MlpParams":
        return cls(weights=list(arrays[0::2]), biases=list(arrays[1::2]))

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights], [b.copy() for b in self.biases])


def init_params(rng: np.random.Generator) -> MlpParams:
    """Uniform [-a, a] init with a = 1 / sqrt(fan_in), weights then bias per layer."""
    weights, biases = [], []
    for fan_in, fan_out in zip(LAYER_SIZES[:-1], LAYER_SIZES[1:]):
        a = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-a, a, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-a, a, size=fan_out))
    return MlpParams(weights, biases)


def softplus(x: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, x)


def variance_from_raw(raw: np.ndarray) -> np.ndarray:
    return softplus(raw) + VARIANCE_SHIFT


def _hidden_layers(params: MlpParams, h: np.ndarray, bufs: list[np.ndarray] | None = None):
    """Yields each hidden post-activation of input rows `h` (B, 1).

    Without `bufs` every activation is a fresh array; with two work buffers
    of at least B rows the layers write into them alternately, so each
    yielded array is overwritten two layers later.
    """
    for i, (w, b) in enumerate(zip(params.weights[:-1], params.biases[:-1])):
        h = np.matmul(h, w, out=None if bufs is None else bufs[i % 2][: len(h)])
        h += b
        yield np.maximum(h, 0.0, out=h)


def _output_layer(params: MlpParams, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    out = np.matmul(h, params.weights[-1], out=out)
    out += params.biases[-1]
    return out


def _forward_hidden(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Returns the final linear output (B, 2) and post-activation caches."""
    hiddens = [x.reshape(-1, 1)]
    hiddens.extend(_hidden_layers(params, hiddens[0]))
    return _output_layer(params, hiddens[-1]), hiddens


def _chunk_bounds(n: int) -> list[int]:
    """Row offsets 0, C, 2C, ... with the remainder merged into the last chunk.

    Every chunk therefore has the whole input (n < 2C) or C..2C-1 rows.
    OpenBLAS rounds small products (the 256->2 layer at up to 1953 rows, a
    1-row hidden layer) differently from large ones, so a short tail chunk
    would change output bits relative to one single-batch pass.
    """
    return [i * FORWARD_CHUNK_ROWS for i in range(max(1, n // FORWARD_CHUNK_ROWS))] + [n]


def forward(params: MlpParams, x: np.ndarray) -> Gaussian:
    """Predictive distribution at the given inputs.

    Inference-only: rows run through the layer chain in fixed chunks of
    FORWARD_CHUNK_ROWS using two reused work buffers, so memory beyond the
    (N, 2) output stays constant in N; the result is bit-identical to one
    `_forward_hidden` pass over all rows.
    """
    x_rows = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    bounds = _chunk_bounds(len(x_rows))
    width = bounds[-1] - bounds[-2]  # the last chunk is the widest
    bufs = [np.empty((width, LAYER_SIZES[1])) for _ in range(2)]
    out = np.empty((len(x_rows), LAYER_SIZES[-1]))
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        *_, h = _hidden_layers(params, x_rows[lo:hi], bufs)
        _output_layer(params, h, out=out[lo:hi])
    mean = out[:, 0]
    var = variance_from_raw(out[:, 1])
    if np.ndim(x) == 0:
        return Gaussian(float(mean[0]), float(var[0]))
    return Gaussian(mean, var)


def gaussian_nll_terms(
    mean: np.ndarray, raw: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample loss plus gradients wrt mean and raw scale."""
    var = variance_from_raw(raw)
    resid = y - mean
    loss = 0.5 * np.log(var) + resid**2 / (2.0 * var) + _HALF_LOG_2PI
    dmean = -resid / var
    dvar = 0.5 / var - resid**2 / (2.0 * var**2)
    draw = dvar * expit(raw)
    return loss, dmean, draw


def loss_and_grads(
    params: MlpParams, x: np.ndarray, y: np.ndarray
) -> tuple[float, MlpParams]:
    """Mean batch loss and its exact gradient wrt every parameter."""
    out, hiddens = _forward_hidden(params, x)
    n = len(x)
    loss_i, dmean, draw = gaussian_nll_terms(out[:, 0], out[:, 1], y)
    dout = np.stack([dmean, draw], axis=1) / n

    grad_w = [np.empty_like(w) for w in params.weights]
    grad_b = [np.empty_like(b) for b in params.biases]
    delta = dout
    for i in range(len(params.weights) - 1, -1, -1):
        grad_w[i] = hiddens[i].T @ delta
        grad_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ params.weights[i].T
            delta[hiddens[i] <= 0] = 0.0
    return float(np.mean(loss_i)), MlpParams(grad_w, grad_b)


# ----------------------------------------------------------------- Adam

@dataclass(frozen=True)
class AdamConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


@dataclass(eq=False)
class AdamState:
    step: int
    m: list[np.ndarray]
    v: list[np.ndarray]

    @classmethod
    def zeros_like(cls, arrays: list[np.ndarray]) -> "AdamState":
        return cls(
            step=0,
            m=[np.zeros_like(a) for a in arrays],
            v=[np.zeros_like(a) for a in arrays],
        )


def adam_step(
    arrays: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    config: AdamConfig,
) -> tuple[list[np.ndarray], AdamState]:
    """One update with bias correction; returns fresh arrays and state."""
    t = state.step + 1
    new_arrays, new_m, new_v = [], [], []
    for a, g, m, v in zip(arrays, grads, state.m, state.v):
        m = config.beta1 * m + (1.0 - config.beta1) * g
        v = config.beta2 * v + (1.0 - config.beta2) * g * g
        m_hat = m / (1.0 - config.beta1**t)
        v_hat = v / (1.0 - config.beta2**t)
        new_arrays.append(a - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.eps))
        new_m.append(m)
        new_v.append(v)
    return new_arrays, AdamState(step=t, m=new_m, v=new_v)
