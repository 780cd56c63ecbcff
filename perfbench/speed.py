"""Machine speed, measured beside each set-up and job with fixed reference work.

On a shared host the same code runs faster or slower for minutes at a time,
as other tenants load the machine.  The benchmark times fixed reference work
right before and right after each set-up and each job, and divides the
region's time by the slowdown measured around it: the reference's time over
its nominal time.  The result is the region's time on a machine where the
reference takes its nominal time.  A slower machine stretches the region and
the reference alike; a slower program stretches only the region.

The reference is made of components, one per kind of work rollmia does:
interpreted Python loops over small containers, per-sample dense layers with
their gradients and Adam-style updates (the GAN's training step), batched
dense products, and row distances between a stash of flattened rolls and one
query (the Monte Carlo attack).  The slowdown is the mean over the
components, so no one kind of work dominates it.  They use numpy and nothing
from rollmia, so no change to rollmia moves them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

WINDOW_S = 0.25

_rng = np.random.default_rng(20251221)
_CELLS = 768
_HIDDEN = 128
_SAMPLES = (_rng.random((8, _CELLS)) > 0.9).astype(np.float64)
_LAYERS = [
    (_rng.standard_normal((_HIDDEN, _CELLS)) * 0.05, np.zeros(_HIDDEN)),
    (_rng.standard_normal((1, _HIDDEN)) * 0.05, np.zeros(1)),
]
_PARAMS = [p for layer in _LAYERS for p in layer]
_MOMENTS = [(np.zeros_like(p), np.zeros_like(p)) for p in _PARAMS]
_BATCH = _rng.standard_normal((32, _CELLS))
_PRODUCT_WEIGHTS = _rng.standard_normal((_CELLS, 2 * _HIDDEN)) / 32.0
_STASH = _rng.random((500, _CELLS))
_QUERY = _rng.random(_CELLS)


def _python() -> None:
    counts: dict[int, int] = {}
    for i in range(12000):
        key = i % 97
        counts[key] = counts.get(key, 0) + i


def _layers() -> None:
    grads = [np.zeros_like(p) for p in _PARAMS]
    for x in _SAMPLES:
        cache = []
        a = x
        for weights, bias in _LAYERS:
            z = weights @ a + bias
            cache.append((a, z))
            a = np.maximum(z, 0.0)
        da = np.ones_like(a)
        for i in range(len(_LAYERS) - 1, -1, -1):
            a, z = cache[i]
            dz = da * (z > 0.0)
            grads[2 * i] += np.outer(dz, a)
            grads[2 * i + 1] += dz
            da = _LAYERS[i][0].T @ dz
    for g, (m, v) in zip(grads, _MOMENTS):
        m *= 0.9
        m += 0.1 * g
        v *= 0.999
        v += 0.001 * g * g
        np.sqrt(v) + 1e-8


def _products() -> None:
    for _ in range(4):
        np.tanh(_BATCH @ _PRODUCT_WEIGHTS)


def _distances() -> None:
    for _ in range(2):
        np.sqrt(((_STASH - _QUERY) ** 2).sum(axis=1))


# component -> (work, its nominal time).  The nominal times are the medians
# on a 2-vCPU x86-64 host with numpy 2.4 and single-threaded OpenBLAS; they
# only set the unit of the scaled times, which stay in seconds.
COMPONENTS = {
    "python": (_python, 0.0020),
    "layers": (_layers, 0.0046),
    "products": (_products, 0.0022),
    "distances": (_distances, 0.0035),
}


def unit_times(window_s: float = WINDOW_S) -> dict[str, float]:
    """Median time of each component over ``window_s`` of round-robin repeats."""
    times: dict[str, list[float]] = {name: [] for name in COMPONENTS}
    began = time.perf_counter()
    while len(times["python"]) < 5 or time.perf_counter() - began < window_s:
        for name, (work, _nominal) in COMPONENTS.items():
            start = time.perf_counter()
            work()
            times[name].append(time.perf_counter() - start)
    return {name: statistics.median(t) for name, t in times.items()}


def slowdown(before: dict[str, float], after: dict[str, float]) -> float:
    """Mean over the components of measured over nominal time, from the unit
    times measured before and after a region."""
    return statistics.fmean(
        (before[name] + after[name]) / 2 / nominal for name, (_work, nominal) in COMPONENTS.items()
    )
