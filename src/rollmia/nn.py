"""Minimal dense-network kernel: forward, hand-derived backward, Adam.

Rows are samples: activations are ``(batch, dim)`` float64 matrices, each
layer is one ``a @ W.T + b`` product, and backward returns batch-summed
parameter gradients (``dW = dZ.T @ X``, one GEMM per layer).  Gradients are
exact reverse-mode derivatives of the forward map and are checked against
finite differences in the test suite.  Results are bitwise reproducible for
a fixed BLAS build and thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError

ACTIVATIONS = ("linear", "relu", "tanh", "sigmoid")


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

    def dims(self) -> list[int]:
        return [self.in_dim] + [layer.out_dim for layer in self.layers]


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


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Elementwise logistic function, stable on both tails."""
    z = np.asarray(z, dtype=np.float64)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
    ``(batch, out_dim)`` output and a cache consumed by backward."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != mlp.in_dim:
        raise ValueError(f"expected input of shape (batch, {mlp.in_dim}), got {x.shape}")
    cache = []
    a = x
    for layer in mlp.layers:
        z = a @ layer.weights.T + layer.bias
        out = _apply(layer.activation, z)
        cache.append((a, z, out))
        a = out
    return a, cache


def backward(
    mlp: Mlp, cache: list[tuple], dy: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Reverse-mode gradients for a matching forward call.

    Returns ([dW0, db0, dW1, ...], dx): parameter gradients summed over the
    batch, in :func:`mlp_params` order, and the per-row input gradient.  The
    cache must come from forward on the same network; a structural mismatch
    raises ValueError.
    """
    if len(cache) != len(mlp.layers):
        raise ValueError("cache does not match network depth")
    dy = np.asarray(dy, dtype=np.float64)
    batch = len(cache[0][0])
    if dy.shape != (batch, mlp.out_dim):
        raise ValueError(f"expected dy of shape ({batch}, {mlp.out_dim}), got {dy.shape}")
    grads: list[np.ndarray] = [None] * (2 * len(mlp.layers))
    da = dy
    for i in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[i]
        x, z, a = cache[i]
        if x.shape != (batch, layer.in_dim) or z.shape != (batch, layer.out_dim):
            raise ValueError("stale cache: layer shapes do not match")
        dz = _apply_grad(layer.activation, z, a, da)
        grads[2 * i] = dz.T @ x
        grads[2 * i + 1] = dz.sum(axis=0)
        da = dz @ layer.weights
    return grads, da


def bce_logits_loss(logit: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise binary cross-entropy on raw logits.

    Uses the log(1 + exp(.)) form that never overflows; the gradient is
    sigmoid(logit) - target.
    """
    z = np.asarray(logit, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
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
    """Per-parameter first/second moment accumulators and step counter."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params: list[np.ndarray], lr: float = 1e-3) -> "AdamState":
        return cls(
            m=[np.zeros_like(p) for p in params],
            v=[np.zeros_like(p) for p in params],
            lr=lr,
        )


def adam_step(
    params: list[np.ndarray], grads: list[np.ndarray], state: AdamState
) -> tuple[list[np.ndarray], AdamState]:
    """Standard Adam update with bias correction; mutates params and state in
    place and returns them.  Non-finite gradients raise DivergenceError."""
    if len(params) != len(grads) or len(params) != len(state.m):
        raise ValueError("params/grads/state length mismatch")
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise DivergenceError("divergence: non-finite gradient")
    state.step += 1
    b1, b2 = state.beta1, state.beta2
    bc1 = 1.0 - b1**state.step
    bc2 = 1.0 - b2**state.step
    for p, g, m, v in zip(params, grads, state.m, state.v):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= state.lr * (m / bc1) / (np.sqrt(v / bc2) + state.eps)
    return params, state
