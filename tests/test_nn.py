import math
import warnings
import zlib

import numpy as np
import pytest

from rollmia import (
    AdamState,
    DenseLayer,
    DivergenceError,
    Mlp,
    adam_step,
    backward,
    bce_logits_loss,
    forward,
)
from rollmia.nn import ADAM_BLOCK, ADAM_EPS, glorot_init, mlp_params, sigmoid

from reference import adam_step_per_tensor, sigmoid_masked


def identity_layer(n, activation="linear"):
    return DenseLayer(np.eye(n), np.zeros(n), activation)


def test_forward_identity():
    mlp = Mlp([identity_layer(3)])
    x = np.array([[1.0, -2.0, 0.5]])
    y, _ = forward(mlp, x)
    assert np.array_equal(y, x)


def test_forward_relu():
    mlp = Mlp([identity_layer(2, "relu")])
    y, _ = forward(mlp, np.array([[-1.0, 2.0]]))
    assert np.array_equal(y, [[0.0, 2.0]])


def test_forward_sigmoid_at_zero():
    mlp = Mlp([identity_layer(4, "sigmoid")])
    y, _ = forward(mlp, np.zeros((1, 4)))
    assert np.allclose(y, 0.5)


def test_forward_dim_mismatch():
    mlp = Mlp([identity_layer(3)])
    with pytest.raises(ValueError, match="shape"):
        forward(mlp, np.zeros((1, 4)))
    with pytest.raises(ValueError, match="shape"):
        forward(mlp, np.zeros(3))


def test_forward_rows_are_independent():
    rng = np.random.default_rng(4)
    mlp = glorot_init([6, 9, 4], ["relu", "tanh"], rng)
    x = rng.standard_normal((5, 6))
    y, _ = forward(mlp, x)
    assert y.shape == (5, 4)
    for row in range(5):
        alone, _ = forward(mlp, x[row : row + 1])
        assert np.allclose(y[row], alone[0], rtol=1e-12, atol=0.0)


def test_layer_chaining_validated():
    with pytest.raises(ValueError, match="chain"):
        Mlp([DenseLayer(np.zeros((3, 2)), np.zeros(3)), DenseLayer(np.zeros((1, 4)), np.zeros(1))])


def test_backward_identity_layer():
    mlp = Mlp([identity_layer(3)])
    x = np.array([[0.5, -1.0, 2.0]])
    _, cache = forward(mlp, x)
    dy = np.array([[1.0, 0.0, 0.0]])
    grads, dx = backward(mlp, cache, dy)
    assert np.array_equal(dx, dy)
    assert np.array_equal(grads[0], np.outer(dy, x))
    assert np.array_equal(grads[1], dy[0])


def test_backward_zero_dy():
    rng = np.random.default_rng(0)
    mlp = glorot_init([4, 5, 2], ["tanh", "linear"], rng)
    _, cache = forward(mlp, rng.standard_normal((3, 4)))
    grads, dx = backward(mlp, cache, np.zeros((3, 2)))
    assert not dx.any()
    for g in grads:
        assert not g.any()


def test_backward_stale_cache():
    rng = np.random.default_rng(0)
    mlp = glorot_init([4, 5, 2], ["relu", "linear"], rng)
    other = glorot_init([3, 2], ["linear"], rng)
    _, cache = forward(other, rng.standard_normal((1, 3)))
    with pytest.raises(ValueError):
        backward(mlp, cache, np.zeros((1, 2)))


def test_backward_dy_shape_validated():
    mlp = Mlp([identity_layer(3)])
    _, cache = forward(mlp, np.zeros((2, 3)))
    with pytest.raises(ValueError, match="dy"):
        backward(mlp, cache, np.zeros((1, 3)))


def finite_difference_check(mlp, rng, batch=1, h=1e-4, tol=1e-4):
    """Central differences of sum(dy * forward(x)) against backward's
    batch-summed parameter gradients and per-row input gradient."""
    x = rng.standard_normal((batch, mlp.in_dim))
    dy = rng.standard_normal((batch, mlp.out_dim))
    _, cache = forward(mlp, x)
    grads, dx = backward(mlp, cache, dy)
    analytic = grads + [dx]
    targets = mlp_params(mlp) + [x]
    worst = 0.0
    for param, grad in zip(targets, analytic):
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + h
            yp, _ = forward(mlp, x)
            param[idx] = orig - h
            ym, _ = forward(mlp, x)
            param[idx] = orig
            numeric = float(np.sum(dy * (yp - ym))) / (2.0 * h)
            scale = max(abs(numeric), abs(grad[idx]), 1.0)
            worst = max(worst, abs(numeric - grad[idx]) / scale)
    assert worst < tol, f"finite-difference mismatch {worst}"
    return worst


def test_gradient_check_random_net():
    rng = np.random.default_rng(7)
    mlp = glorot_init([6, 9, 4], ["tanh", "sigmoid"], rng)
    finite_difference_check(mlp, rng)


@pytest.mark.parametrize("acts", [["relu", "linear"], ["sigmoid", "tanh"], ["tanh", "relu", "linear"]])
def test_gradient_check_activations(acts):
    rng = np.random.default_rng(zlib.crc32("-".join(acts).encode()))
    dims = [5] + [8] * (len(acts) - 1) + [3]
    mlp = glorot_init(dims, acts, rng)
    for batch in (1, 4):
        finite_difference_check(mlp, rng, batch)


def test_bce_closed_forms():
    loss, dlogit = bce_logits_loss(0.0, 1)
    assert math.isclose(loss, math.log(2.0))
    assert dlogit == -0.5
    loss, dlogit = bce_logits_loss(0.0, 0)
    assert math.isclose(loss, math.log(2.0))
    assert dlogit == 0.5


def test_bce_stable_at_large_logits():
    loss, dlogit = bce_logits_loss(50.0, 1)
    assert 0.0 <= loss < 1e-20
    assert abs(dlogit) < 1e-20
    loss, _ = bce_logits_loss(-700.0, 0)
    assert 0.0 <= loss < 1e-300
    loss, _ = bce_logits_loss(700.0, 0)
    assert loss == 700.0


def test_bce_non_negative():
    rng = np.random.default_rng(3)
    z = rng.standard_normal(200) * 10.0
    t = rng.integers(2, size=200)
    loss, dlogit = bce_logits_loss(z, t)
    assert loss.shape == dlogit.shape == (200,)
    assert (loss >= 0.0).all()
    assert np.array_equal(dlogit, sigmoid(z) - t)


def test_adam_zero_grad_fixed_point():
    params = np.array([1.0, -2.0, 3.0])
    before = params.copy()
    state = AdamState.for_params(params, lr=0.5)
    adam_step(params, np.zeros_like(params), state, np.empty_like(params))
    assert state.step == 1
    assert np.array_equal(params, before)


def test_adam_first_step_magnitude():
    params = np.array([0.0])
    state = AdamState.for_params(params, lr=0.1)
    adam_step(params, np.array([1.0]), state, np.empty_like(params))
    assert math.isclose(params[0], -0.1, rel_tol=1e-6)


def test_adam_constant_grad_monotone():
    params = np.array([0.0])
    state = AdamState.for_params(params, lr=0.05)
    history = [0.0]
    for _ in range(20):
        adam_step(params, np.array([2.0]), state, np.empty_like(params))  # the gradients are consumed
        history.append(float(params[0]))
    assert all(b < a for a, b in zip(history, history[1:]))


def test_adam_divergence_error():
    params = np.array([0.5, 0.0])
    state = AdamState.for_params(params)
    with pytest.raises(DivergenceError, match="divergence"):
        adam_step(params, np.array([1.0, np.nan]), state, np.empty_like(params))
    # nothing moves before the check
    assert state.step == 0 and not state.m.any() and not state.v.any()
    assert params.tolist() == [0.5, 0.0]


def test_adam_divergence_in_the_last_block_moves_nothing():
    # the only NaN sits in the ragged last block, after three whole blocks
    # that a blocked update would reach first
    rng = np.random.default_rng(22)
    n = 3 * ADAM_BLOCK + 1000
    params = rng.standard_normal(n)
    state = AdamState.for_params(params)
    scratch = np.empty(n)
    adam_step(params, rng.standard_normal(n), state, scratch)
    before = [a.copy() for a in (params, state.m, state.v)]
    grads = rng.standard_normal(n)
    grads[-1] = np.nan
    with pytest.raises(DivergenceError, match="non-finite gradient"):
        adam_step(params, grads, state, scratch)
    assert state.step == 1
    for got, want in zip((params, state.m, state.v), before):
        assert got.tobytes() == want.tobytes()


def test_flat_adam_matches_per_tensor_reference():
    # discriminator-shaped parameters (768 -> 128 -> 1): one in-place update
    # over the flat vector against the per-tensor form, bit for bit
    rng = np.random.default_rng(21)
    ref_params = mlp_params(glorot_init([768, 128, 1], ["relu", "linear"], rng))
    ref_m = [np.zeros_like(p) for p in ref_params]
    ref_v = [np.zeros_like(p) for p in ref_params]
    flat = np.concatenate([p.ravel() for p in ref_params])
    assert flat.size == 98_561 > ADAM_BLOCK  # the update runs in several blocks
    state = AdamState.for_params(flat, lr=2e-3)
    scratch = np.empty(flat.size + 7)  # longer than the vector, as when shared
    for step in range(1, 51):
        grads = [rng.standard_normal(p.shape) * 10.0 ** rng.integers(-6, 3) for p in ref_params]
        adam_step(flat, np.concatenate([g.ravel() for g in grads]), state, scratch)
        adam_step_per_tensor(ref_params, grads, ref_m, ref_v, step, lr=2e-3)
    assert state.step == 50
    for got, want in ((flat, ref_params), (state.m, ref_m), (state.v, ref_v)):
        assert got.tobytes() == np.concatenate([w.ravel() for w in want]).tobytes()


def test_backward_skips_give_the_same_consumed_arrays():
    rng = np.random.default_rng(5)
    mlp = glorot_init([6, 9, 7, 4], ["relu", "sigmoid", "tanh"], rng)
    _, cache = forward(mlp, rng.standard_normal((5, 6)))
    dy = rng.standard_normal((5, 4))
    grads, dx = backward(mlp, cache, dy)

    flat = np.full(sum(p.size for p in grads), np.nan)
    parts = np.split(flat, np.cumsum([g.size for g in grads])[:-1])
    views = [part.reshape(g.shape) for part, g in zip(parts, grads)]
    into, no_dx = backward(mlp, cache, dy, out=views, input_grad=False)
    assert into is views and no_dx is None
    assert flat.tobytes() == np.concatenate([g.ravel() for g in grads]).tobytes()

    no_grads, only_dx = backward(mlp, cache, dy, param_grads=False)
    assert no_grads is None
    assert only_dx.tobytes() == dx.tobytes()


def test_sigmoid_matches_masked_form():
    z = np.array([
        0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan, -np.nan, 36.7, -36.7, 1e-300,
        1e-310, -1e-310, 709.78, -709.78, 745.13, -745.13,
    ])
    z = np.concatenate([z, np.random.default_rng(8).standard_normal(1000) * 40.0])
    with np.errstate(invalid="ignore"):
        assert sigmoid(z).tobytes() == sigmoid_masked(z).tobytes()


def test_sigmoid_tails():
    z = np.array([-800.0, 0.0, 800.0])
    s = sigmoid(z)
    assert s[0] == 0.0 and s[1] == 0.5 and s[2] == 1.0


def test_sigmoid_keeps_float32_at_its_edges():
    z = np.array([np.inf, -np.inf, 1e4, -1e4, 0.0, -0.0, np.nan, -np.nan], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # a lone element and a long vector, which numpy runs through SIMD loops
        for tiled in (z, np.tile(z, 64)):
            s = sigmoid(tiled)
            assert s.dtype == np.float32
            assert s[:6].tolist() == [1.0, 0.0, 1.0, 0.0, 0.5, 0.5]
            assert np.isnan(s[6::8]).all() and np.isnan(s[7::8]).all()
            assert np.array_equal(np.signbit(s[6::8]), np.signbit(tiled[6::8]))
            assert np.array_equal(np.signbit(s[7::8]), np.signbit(tiled[7::8]))


def test_bce_keeps_float32_and_is_finite_at_large_logits():
    z = np.array([1e4, -1e4, 1e4, -1e4], dtype=np.float32)
    t = np.array([1.0, 0.0, 0.0, 1.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, dlogit = bce_logits_loss(z, t)
    assert loss.dtype == dlogit.dtype == np.float32
    assert loss.tolist() == [0.0, 0.0, 1e4, 1e4]
    assert dlogit.tolist() == [0.0, 0.0, 1.0, -1.0]


def test_float32_adam_matches_per_tensor_reference_in_float32():
    # the flat update over float32 vectors against the per-tensor form run in
    # float32, bit for bit; each element's gradient keeps one scale from
    # 1e-12 to 1e2, and the small ones put sqrt(v) below ADAM_EPS, so the
    # offset shows in their steps
    rng = np.random.default_rng(23)
    ref_params = [p.astype(np.float32) for p in mlp_params(glorot_init([768, 128, 1], ["relu", "linear"], rng))]
    ref_m = [np.zeros_like(p) for p in ref_params]
    ref_v = [np.zeros_like(p) for p in ref_params]
    scales = [10.0 ** rng.integers(-12, 3, size=p.shape) for p in ref_params]
    flat = np.concatenate([p.ravel() for p in ref_params])
    assert flat.dtype == np.float32 and flat.size > ADAM_BLOCK
    state = AdamState.for_params(flat, lr=2e-3)
    assert state.m.dtype == state.v.dtype == np.float32
    scratch = np.empty(flat.size, dtype=np.float32)
    for step in range(1, 31):
        grads = [(rng.standard_normal(p.shape) * scale).astype(np.float32) for p, scale in zip(ref_params, scales)]
        adam_step(flat, np.concatenate([g.ravel() for g in grads]), state, scratch)
        adam_step_per_tensor(ref_params, grads, ref_m, ref_v, step, lr=2e-3, eps=ADAM_EPS)
    assert np.sqrt(state.v / (1.0 - 0.999**30)).min() < ADAM_EPS / 100
    for got, want in ((flat, ref_params), (state.m, ref_m), (state.v, ref_v)):
        assert got.dtype == np.float32
        assert got.tobytes() == np.concatenate([w.ravel() for w in want]).tobytes()


def test_glorot_init_bounds():
    rng = np.random.default_rng(0)
    mlp = glorot_init([10, 20], ["linear"], rng)
    limit = math.sqrt(6.0 / 30.0)
    assert np.abs(mlp.layers[0].weights).max() <= limit
    assert not mlp.layers[0].bias.any()
