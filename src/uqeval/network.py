"""Minimal fully connected network trained on the Gaussian NLL, in numpy.

Fixed architecture: 1 -> 256 -> 256 -> 256 -> 256 -> 2 with ReLU between
layers.  The two outputs are the predictive mean and a raw scale whose
positive image softplus(raw) + 1e-6 is the predictive variance.  Loss per
sample is the exact negative log density

    log(var) / 2 + (y - mean)^2 / (2 var) + log(2 pi) / 2

and gradients are computed analytically (backprop through the softplus).

The softplus derivative, the logistic sigmoid, is computed per element
with libm's `math.exp` as 1 / (1 + exp(-x)): the formula and the exp that
scipy's `expit` uses, so trained parameters keep their bits, without
loading scipy in a training process.  numpy's vectorised exp rounds
differently from libm's on some inputs, which would change model bytes.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .distributions import Gaussian

LAYER_SIZES = (1, 256, 256, 256, 256, 2)
# every parameter's shape in `MlpParams.arrays()` order: a layer's weights, then its bias
PARAM_SHAPES = tuple(s for i, o in zip(LAYER_SIZES, LAYER_SIZES[1:]) for s in ((i, o), (o,)))
VARIANCE_SHIFT = 1e-6
FORWARD_CHUNK_ROWS = 4096  # rows per scoring chunk (predictors.predict_chunks)
FORWARD_BLOCK_ROWS = 2048  # rows per forward block; see row_blocks
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)


@dataclass(eq=False)
class MlpParams:
    """Weight matrices and bias vectors for the fixed layer chain."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self):
        got = tuple(a.shape for a in self.arrays())
        if len(self.weights) != len(self.biases) or got != PARAM_SHAPES:
            raise ValueError(f"parameter shapes {got} do not match {PARAM_SHAPES}")

    def arrays(self) -> list[np.ndarray]:
        return [a for layer in zip(self.weights, self.biases) for a in layer]


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

    Without `bufs` (training) every activation is a fresh array; `forward`
    passes its two work buffers of at least B rows, which the layers write
    into alternately, so each yielded array is overwritten two layers later.
    """
    for i, (w, b) in enumerate(zip(params.weights[:-1], params.biases[:-1])):
        out = None if bufs is None else bufs[i % 2][: len(h)]
        # the 1-wide input layer is an outer product: one multiply per
        # element gives the bits of a K=1 matmul, in less time
        h = np.multiply(h, w, out=out) if i == 0 else np.matmul(h, w, out=out)
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


def row_blocks(n: int, rows: int) -> list[int]:
    """Block offsets 0, rows, 2*rows, ... with the remainder merged into the last block.

    Every block therefore has the whole input (n < 2*rows) or rows..2*rows-1
    rows, and the last is the widest.  `forward` splits its input this way
    into FORWARD_BLOCK_ROWS blocks.  OpenBLAS rounds small products (the
    256->2 layer at up to 1953 rows, a 1-row hidden layer) differently from
    large ones, so a short tail block would change output bits; any block
    of at least FORWARD_BLOCK_ROWS rows, or the whole input, gives each row
    the bits of one pass.  `predictors.predict_chunks` cuts scoring chunks
    of FORWARD_CHUNK_ROWS the same way; each is the whole input or at least
    FORWARD_BLOCK_ROWS rows, so its forward blocks keep those bits too.
    """
    return [i * rows for i in range(max(1, n // rows))] + [n]


def forward(members: Sequence[MlpParams], x: np.ndarray) -> tuple[Gaussian, ...]:
    """Each member's predictive distribution at the given inputs, one row per element of x.

    `members` holds one or more parameter sets, run in order.

    Inference-only: rows run through the layer chain in `row_blocks` of
    FORWARD_BLOCK_ROWS, so memory beyond the (N, 2) outputs stays constant
    in N, and each result is bit-identical to one `_forward_hidden` pass
    over all rows.  One pair of work buffers, as wide as the last block
    (at most 2 * FORWARD_BLOCK_ROWS - 1 rows of LAYER_SIZES[1] float64),
    serves every member and every block, and is freed before the
    Gaussians are built: a pair per member measured about 5x the minor
    page faults and 4-8% more scoring time.
    """
    x_rows = np.asarray(x, dtype=np.float64).reshape(-1, 1)
    bounds = row_blocks(len(x_rows), FORWARD_BLOCK_ROWS)
    bufs = [np.empty((bounds[-1] - bounds[-2], LAYER_SIZES[1])) for _ in range(2)]
    outs = [np.empty((len(x_rows), LAYER_SIZES[-1])) for _ in members]
    for params, out in zip(members, outs):
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            *_, h = _hidden_layers(params, x_rows[lo:hi], bufs)
            _output_layer(params, h, out=out[lo:hi])
    del bufs, _, h  # the last activations are views of the buffers
    return tuple(Gaussian(out[:, 0], variance_from_raw(out[:, 1])) for out in outs)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) of each element of a 1-D array (see the module docstring)."""
    out = []
    for value in x.tolist():
        try:
            out.append(1.0 / (1.0 + math.exp(-value)))
        except OverflowError:  # exp(-value) is above the largest float: 1 / (1 + inf)
            out.append(0.0)
    return np.array(out)


def gaussian_nll_terms(
    mean: np.ndarray, raw: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-sample loss plus gradients wrt mean and raw scale."""
    var = variance_from_raw(raw)
    resid = y - mean
    loss = 0.5 * np.log(var) + resid**2 / (2.0 * var) + _HALF_LOG_2PI
    dmean = -resid / var
    dvar = 0.5 / var - resid**2 / (2.0 * var**2)
    draw = dvar * _sigmoid(raw)
    return loss, dmean, draw


def loss_and_grads(
    params: MlpParams, x: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray]]:
    """Mean batch loss and its exact gradient wrt every parameter, in `arrays()` order."""
    out, hiddens = _forward_hidden(params, x)
    n = len(x)
    loss_i, dmean, draw = gaussian_nll_terms(out[:, 0], out[:, 1], y)
    dout = np.stack([dmean, draw], axis=1) / n

    grads: list[np.ndarray] = []
    delta = dout
    for i in range(len(params.weights) - 1, -1, -1):
        grads[:0] = [hiddens[i].T @ delta, delta.sum(axis=0)]
        if i > 0:
            delta = delta @ params.weights[i].T
            delta[hiddens[i] <= 0] = 0.0
    return float(np.mean(loss_i)), grads


# ----------------------------------------------------------------- Adam

# Kingma & Ba (2015) at the paper's settings; every model file records them
LEARNING_RATE = 1e-3
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


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


def adam_step(arrays: list[np.ndarray], grads: list[np.ndarray], state: AdamState) -> None:
    """One update with bias correction, in place on `arrays`, `state.m` and `state.v`.

    Kingma & Ba (2015), Alg. 1, with the module's constants, in this operand order:
    m = b1 m + (1 - b1) g;  v = b2 v + ((1 - b2) g) g;
    a -= ((m / c1) lr) / (sqrt(v / c2) + eps)  with c_i = 1 - b_i^t.
    Every product and quotient is the one an allocating evaluation of
    these expressions computes, so the bits do not depend on the buffers.
    """
    state.step += 1
    c1 = 1.0 - BETA1**state.step
    c2 = 1.0 - BETA2**state.step
    for a, g, m, v in zip(arrays, grads, state.m, state.v):
        step, den = np.empty_like(a), np.empty_like(a)
        m *= BETA1
        m += np.multiply(g, 1.0 - BETA1, out=step)
        v *= BETA2
        np.multiply(g, 1.0 - BETA2, out=step)
        v += np.multiply(step, g, out=step)
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += EPS
        np.divide(m, c1, out=step)
        step *= LEARNING_RATE
        step /= den
        a -= step
