"""Minimal dense-network kernel: forward, hand-derived backward, Adam.

Rows are samples: activations are ``(batch, dim)`` matrices in the dtype of
the network's weights, which this module reads and never fixes (the GAN's
are float32; ``glorot_init`` draws float64, as the gradient checks use).
Each layer is one ``a @ W.T + b`` product, and backward returns batch-summed
parameter gradients (``dW = dZ.T @ X``, one GEMM per layer).  Gradients are
exact reverse-mode derivatives of the forward map and are checked against
finite differences in the test suite.  Results are bitwise reproducible for
a fixed BLAS build and thread count.

Training works on flat vectors.  A layer's ``weights`` and ``bias`` may be
reshaped views of one contiguous vector that holds a family of networks,
and ``backward`` fills gradient views of the same shapes in place
through ``out``; the model that owns the vectors cuts both sets of views.  A
step asks backward only for what it consumes (``param_grads`` and
``input_grad``), and ``adam_step`` updates a whole vector with a handful of
in-place ufunc calls, using the consumed gradient vector and one scratch
vector, which several optimizers may share, as its only work space.  It
makes those calls one block of ``ADAM_BLOCK`` elements at a time, so a
block's slices of the five vectors stay in a core's L2 cache between calls.
Assigning a new array to a layer's ``weights`` or ``bias`` detaches it from
the vector; write through the view (``layer.weights[:] = ...``) instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError

ACTIVATIONS = ("linear", "relu", "tanh", "sigmoid")

# Adam's moment decay rates and denominator offset
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements per block of adam_step: five 256 KB float32 slices fit in a 2 MB L2
ADAM_BLOCK = 1 << 16


@dataclass
class DenseLayer:
    """Affine map plus elementwise activation; weights are (out, in)."""

    weights: np.ndarray
    bias: np.ndarray
    activation: str = "linear"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise ValueError("weights must be 2-D and bias 1-D")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise ValueError("bias length must match weight rows")

    @property
    def in_dim(self) -> int:
        return self.weights.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[0]


@dataclass
class Mlp:
    layers: list[DenseLayer]

    def __post_init__(self):
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_dim != nxt.in_dim:
                raise ValueError(
                    f"layer dims do not chain: {prev.out_dim} -> {nxt.in_dim}"
                )

    @property
    def in_dim(self) -> int:
        return self.layers[0].in_dim

    @property
    def out_dim(self) -> int:
        return self.layers[-1].out_dim


def glorot_init(dims: list[int], activations: list[str], rng: np.random.Generator) -> Mlp:
    """Build an Mlp with uniform(+-sqrt(6/(fan_in+fan_out))) weights, zero bias."""
    if len(activations) != len(dims) - 1:
        raise ValueError("need one activation per layer")
    layers = []
    for fan_in, fan_out, act in zip(dims, dims[1:], activations):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(DenseLayer(weights, np.zeros(fan_out), act))
    return Mlp(layers)


def _float(x) -> np.ndarray:
    """``x`` as an array of its own float dtype; integers, bools and Python
    numbers become float64."""
    x = np.asarray(x)
    return x.astype(np.result_type(x, 0.0), copy=False)


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable on both tails, in the float
    dtype of ``z``."""
    z = _float(z)
    # e is exp(-|z|), the exp of each masked textbook branch, so neither
    # overflows: min(z, -z) is -z where z >= 0 and z elsewhere (either zero
    # gives exp 1), and a NaN z comes back unchanged, sign and all, since
    # minimum returns its first argument when both are NaN (-|z| would make
    # every NaN negative).  float32 exp drops a NaN's sign, so e is the
    # larger of m and exp(m), which is exp(m) wherever m is a number and m
    # itself where it is NaN.  The numerator max(e, pos) is 1 where z >= 0,
    # since e <= 1 there, and e elsewhere, NaN again included
    pos = z >= 0
    m = np.minimum(z, -z)
    e = np.maximum(m, np.exp(m))
    return np.maximum(e, pos) / (1.0 + e)


def _apply(activation: str, z: np.ndarray) -> np.ndarray:
    if activation == "linear":
        return z
    if activation == "relu":
        return np.maximum(z, 0.0)
    if activation == "tanh":
        return np.tanh(z)
    return sigmoid(z)


def _apply_grad(activation: str, z: np.ndarray, a: np.ndarray, da: np.ndarray) -> np.ndarray:
    if activation == "linear":
        return da
    if activation == "relu":
        return da * (z > 0.0)
    if activation == "tanh":
        return da * (1.0 - a * a)
    return da * a * (1.0 - a)  # sigmoid


def forward(mlp: Mlp, x: np.ndarray) -> tuple[np.ndarray, list[tuple]]:
    """Run the network on a ``(batch, in_dim)`` matrix; returns the
    ``(batch, out_dim)`` output and a cache consumed by backward.  The input
    is cast to the dtype of the weights, in which the whole pass runs."""
    x = np.asarray(x, dtype=mlp.layers[0].weights.dtype)
    if x.ndim != 2 or x.shape[1] != mlp.in_dim:
        raise ValueError(f"expected input of shape (batch, {mlp.in_dim}), got {x.shape}")
    cache = []
    a = x
    for layer in mlp.layers:
        z = a @ layer.weights.T
        z += layer.bias
        out = _apply(layer.activation, z)
        cache.append((a, z, out))
        a = out
    return a, cache


def backward(
    mlp: Mlp,
    cache: list[tuple],
    dy: np.ndarray,
    *,
    out: list[np.ndarray] | None = None,
    param_grads: bool = True,
    input_grad: bool = True,
) -> tuple[list[np.ndarray] | None, np.ndarray | None]:
    """Reverse-mode gradients for a matching forward call.

    Returns ([dW0, db0, dW1, ...], dx): parameter gradients summed over the
    batch, in :func:`mlp_params` order, and the per-row input gradient.
    ``out``, arrays of those shapes in that order (such as views of a flat
    gradient vector), receives the parameter
    gradients in place and is returned; by default new arrays are made.
    ``param_grads=False`` skips the parameter gradients and
    ``input_grad=False`` the input gradient, returning None in their place;
    what is computed is bitwise the same either way.  The cache must come
    from forward on the same network; a structural mismatch raises
    ValueError.
    """
    if len(cache) != len(mlp.layers):
        raise ValueError("cache does not match network depth")
    dy = np.asarray(dy, dtype=mlp.layers[0].weights.dtype)
    batch = len(cache[0][0])
    if dy.shape != (batch, mlp.out_dim):
        raise ValueError(f"expected dy of shape ({batch}, {mlp.out_dim}), got {dy.shape}")
    if param_grads and out is None:
        out = [np.empty_like(p) for p in mlp_params(mlp)]
    da = dy
    for i in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[i]
        x, z, a = cache[i]
        if x.shape != (batch, layer.in_dim) or z.shape != (batch, layer.out_dim):
            raise ValueError("stale cache: layer shapes do not match")
        dz = _apply_grad(layer.activation, z, a, da)
        if param_grads:
            np.matmul(dz.T, x, out=out[2 * i])
            dz.sum(axis=0, out=out[2 * i + 1])
        if i > 0 or input_grad:
            da = dz @ layer.weights
    return (out if param_grads else None), (da if input_grad else None)


def bce_logits_loss(logit: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise binary cross-entropy on raw logits.

    Uses the log(1 + exp(.)) form that never overflows; the gradient is
    sigmoid(logit) - target.  Both are in the float dtype of ``logit``.
    """
    z = _float(logit)
    t = np.asarray(target, dtype=z.dtype)
    loss = np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z)))
    return loss, sigmoid(z) - t


def mlp_params(mlp: Mlp) -> list[np.ndarray]:
    """Parameter tensors in canonical order: (W, b) per layer."""
    out = []
    for layer in mlp.layers:
        out.append(layer.weights)
        out.append(layer.bias)
    return out


@dataclass
class AdamState:
    """First and second moment vectors of one flat parameter vector, and the
    step counter."""

    m: np.ndarray
    v: np.ndarray
    step: int = 0
    lr: float = 1e-3

    @classmethod
    def for_params(cls, params: np.ndarray, lr: float = 1e-3) -> "AdamState":
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), lr=lr)


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, scratch: np.ndarray) -> None:
    """Standard Adam update with bias correction over a whole flat parameter
    vector, in place.

    ``grads`` is consumed: it is overwritten with the step taken.
    ``scratch``, a vector of the params' dtype at least as long as them, is
    the only other work space, so optimizers that never run at once can
    share one.  The vector is updated in blocks of ``ADAM_BLOCK`` elements, each
    by the whole sequence of in-place calls while its slices of the five
    vectors are still in cache.  The arithmetic per element, and its order,
    is that of the textbook per-tensor form, so the results are bitwise
    equal to it.  A non-finite gradient anywhere in the vector raises
    DivergenceError before any block changes.
    """
    if grads.shape != params.shape or state.m.shape != params.shape:
        raise ValueError("params/grads/state shape mismatch")
    if not np.isfinite(grads).all():
        raise DivergenceError("divergence: non-finite gradient")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for lo in range(0, len(params), ADAM_BLOCK):
        hi = lo + ADAM_BLOCK
        p, g, m, v = params[lo:hi], grads[lo:hi], state.m[lo:hi], state.v[lo:hi]
        work = scratch[: len(p)]
        m *= b1
        np.multiply(g, 1.0 - b1, out=work)
        m += work
        v *= b2
        np.multiply(g, 1.0 - b2, out=work)
        work *= g  # ((1 - b2) * g) * g
        v += work
        np.divide(m, bc1, out=g)  # the numerator, in the consumed gradients
        g *= state.lr
        np.divide(v, bc2, out=work)
        np.sqrt(work, out=work)
        work += ADAM_EPS
        g /= work
        p -= g
