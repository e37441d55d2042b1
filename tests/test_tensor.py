"""Tensor engine tests: op contracts plus finite-difference gradient oracles."""

import os
import platform
import subprocess
import sys
import threading
import types
from pathlib import Path

import numpy as np
import pytest

import accept
from accept import tensor as T


def numeric_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Independent central-difference oracle: f maps ndarray -> float."""
    g = np.zeros_like(x, dtype=np.float64)
    flat_x = x.ravel()
    flat_g = g.ravel()
    for i in range(flat_x.size):
        xp = flat_x.copy()
        xm = flat_x.copy()
        xp[i] += h
        xm[i] -= h
        flat_g[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2.0 * h)
    return g


def inner(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    """sum(a * b) as a (1, n) @ (n, 1) product; a's gradient is exactly b's values."""
    n = a.data.size
    return T.sum_all(T.matmul(T.reshape(a, (1, n)), T.reshape(b, (n, 1))))


def check_op_grads(build, arrays: dict, tol: float = 1e-6, h: float = 1e-5):
    """Compare backward() grads against the FD oracle for every input.

    build(tensors: dict[str, Tensor]) must return a scalar loss Tensor.
    """
    tensors = {k: T.Tensor(v, trainable=True) for k, v in arrays.items()}
    loss = build(tensors)
    grads = T.backward(loss)
    for name, arr in arrays.items():
        analytic = grads.get(tensors[name])
        if analytic is None:
            analytic = np.zeros_like(arr)

        def f(x, name=name):
            trial = dict(arrays)
            trial[name] = x
            ts = {k: T.Tensor(v, trainable=False) for k, v in trial.items()}
            return build(ts).item()

        fd = numeric_grad(f, np.asarray(arr, dtype=np.float64), h=h)
        denom = np.maximum(np.maximum(np.abs(analytic), np.abs(fd)), 1.0)
        rel = np.abs(analytic - fd) / denom
        assert rel.max() < tol, f"{name}: rel err {rel.max():.3e}"


# ---------------------------------------------------------------------------
# shape and value contracts


def test_matmul_shape():
    a = T.Tensor(np.ones((2, 3)))
    b = T.Tensor(np.ones((3, 4)))
    assert T.matmul(a, b).shape == (2, 4)


def test_matmul_mismatch_names_both_shapes():
    a = T.Tensor(np.ones((2, 3)))
    b = T.Tensor(np.ones((4, 5)))
    with pytest.raises(T.ShapeError) as exc:
        T.matmul(a, b)
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_matmul_rejects_unsupported_leading_dims():
    a = T.Tensor(np.ones((2, 3, 4)))
    b = T.Tensor(np.ones((5, 4, 6)))
    with pytest.raises(T.ShapeError):
        T.matmul(a, b)


def test_softmax_uniform_logits():
    s = T.softmax(T.Tensor(np.zeros(4)))
    np.testing.assert_allclose(s.data, np.full(4, 0.25), rtol=0, atol=1e-15)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(3)
    s = T.softmax(T.Tensor(rng.normal(size=(5, 7))))
    np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(5), atol=1e-6)


def test_add_rejects_arbitrary_broadcast():
    a = T.Tensor(np.ones((2, 3, 4)))
    b = T.Tensor(np.ones((2, 1, 4)))
    with pytest.raises(T.ShapeError):
        T.add(a, b)


def test_dtype_mismatch_rejected():
    a = T.Tensor(np.ones(3), dtype=np.float32)
    b = T.Tensor(np.ones(3), dtype=np.float64)
    with pytest.raises(T.ShapeError):
        T.add(a, b)


def test_dtype_is_a_tensor_property():
    a = T.Tensor(np.ones(3), dtype=np.float32)
    b = T.Tensor(np.ones(3), dtype=np.float32)
    out = T.gelu(T.add(a, b))
    assert out.dtype == np.float32


def test_gather_out_of_range():
    table = T.Tensor(np.ones((4, 2)))
    with pytest.raises(T.ShapeError):
        T.gather_rows(table, np.array([0, 4]))


def test_gather_rows_values():
    table = T.Tensor(np.arange(8.0).reshape(4, 2))
    out = T.gather_rows(table, np.array([[2, 0]]))
    np.testing.assert_array_equal(out.data, [[[4.0, 5.0], [0.0, 1.0]]])


def test_concat_rows_shape_error():
    a = T.Tensor(np.ones((2, 3)))
    b = T.Tensor(np.ones((2, 4)))
    with pytest.raises(T.ShapeError):
        T.concat_rows(a, b)


def test_tensor_data_is_immutable():
    a = T.Tensor(np.ones(3))
    out = T.gelu(a)
    with pytest.raises(ValueError):
        out.data[0] = 5.0
    with pytest.raises(ValueError):
        a.data[0] = 5.0
    m = T.Tensor(np.arange(6.0).reshape(2, 3))
    before = m.data.tobytes()
    for view in (T.reshape(m, (3, 2)), T.transpose(m, (1, 0))):
        with pytest.raises(ValueError):
            view.data[0, 0] = 5.0
    assert m.data.tobytes() == before


def test_non_finite_forward_raises():
    big = T.Tensor(np.array([1e308]))
    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError):
        T.scale(big, 1e10)


def test_softmax_input_checked_while_block_checks_are_deferred():
    def block(t):
        # scale's -inf output goes unchecked here; softmax must still refuse it.
        with pytest.raises(T.NonFiniteError, match="softmax"):
            T.softmax(T.scale(t, 1e10))
        return t

    with np.errstate(over="ignore"):
        T.checked_block(block, T.Tensor(np.array([-1e308, 0.0])))


def test_checked_block_names_the_op_behind_a_non_finite_output():
    def block(t):
        return T.add(T.scale(t, 1e10), t)

    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError, match="^scale: "):
        T.checked_block(block, T.Tensor(np.array([1e308])))


def test_a_block_in_another_thread_leaves_this_threads_checks_on():
    entered, release = threading.Event(), threading.Event()

    def block(t):
        entered.set()
        release.wait()
        return t

    worker = threading.Thread(target=T.checked_block, args=(block, T.Tensor(np.zeros(1))))
    worker.start()
    try:
        assert entered.wait(timeout=30)
        with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError, match="^scale: "):
            T.scale(T.Tensor(np.array([1e308])), 1e10)
    finally:
        release.set()
        worker.join(timeout=30)
    assert not worker.is_alive()


def test_non_finite_leaf_rejected():
    with pytest.raises(T.NonFiniteError):
        T.Tensor(np.array([np.nan]))


def test_backward_requires_scalar_loss():
    x = T.Tensor(np.ones(3), trainable=True)
    with pytest.raises(T.GraphError):
        T.backward(T.gelu(x))


# ---------------------------------------------------------------------------
# backward semantics


def test_frozen_leaves_absent_and_untouched():
    x = T.Tensor(np.ones((2, 2)), trainable=True)
    w = T.Tensor(np.full((2, 2), 3.0), trainable=False)
    before = w.data.tobytes()
    loss = T.sum_all(T.matmul(x, w))
    grads = T.backward(loss)
    assert x in grads
    assert w not in grads
    assert w.data.tobytes() == before


def test_backward_on_constant_graph_is_empty():
    a = T.Tensor(np.ones(3))
    loss = T.sum_all(T.gelu(a))
    assert T.backward(loss) == {}


def test_fanout_accumulation():
    # z = (x+x) + (x+x), sum -> dz/dx = 4
    x = T.Tensor(np.array([1.0, 2.0]), trainable=True)
    h = T.add(x, x)
    loss = T.sum_all(T.add(h, h))
    g = T.backward(loss)[x]
    np.testing.assert_allclose(g, [4.0, 4.0], rtol=1e-12)


def test_backward_is_deterministic_bitwise():
    rng = np.random.default_rng(11)
    x = T.Tensor(rng.normal(size=(4, 4)), trainable=True)
    w = T.Tensor(rng.normal(size=(4, 4)), trainable=True)

    def run():
        loss = T.mean_all(T.gelu(T.matmul(x, w)))
        return T.backward(loss)

    g1 = run()
    g2 = run()
    assert g1[x].tobytes() == g2[x].tobytes()
    assert g1[w].tobytes() == g2[w].tobytes()


def test_trainable_leaf_as_loss():
    x = T.Tensor(np.asarray(2.5), trainable=True)
    grads = T.backward(x)
    assert float(grads[x]) == 1.0


# ---------------------------------------------------------------------------
# gradient oracle per primitive


SEEDS = range(20)


@pytest.mark.parametrize("seed", SEEDS)
def test_primitive_gradients_match_fd(seed):
    rng = np.random.default_rng(seed)
    B, s, d = 2, 3, 4
    mse_target = rng.normal(size=(6,))
    # Additive key mask: one masked key per example.
    key_bias = np.array([[0.0, -1e9, 0.0], [0.0, 0.0, -1e9]])[:, None, None, :]

    cases = [
        (
            {"a": rng.normal(size=(3, 4)), "b": rng.normal(size=(4, 2))},
            lambda t: T.sum_all(T.matmul(t["a"], t["b"])),
        ),
        (
            {"a": rng.normal(size=(B, 3, 4)), "b": rng.normal(size=(4, 2))},
            lambda t: T.mean_all(T.matmul(t["a"], t["b"])),
        ),
        (
            {"a": rng.normal(size=(B, 2, 3, 4)), "b": rng.normal(size=(B, 2, 4, 3))},
            lambda t: T.mean_all(T.matmul(t["a"], t["b"])),
        ),
        (
            {"a": rng.normal(size=(B, s, d)), "b": rng.normal(size=(B, s, d))},
            lambda t: T.mean_all(T.add(t["a"], t["b"])),
        ),
        (
            {
                "a": rng.normal(size=(B, s, d)),
                "w": rng.normal(size=(d, 2)),
                "b": rng.normal(size=(2,)),
            },
            lambda t: T.mean_all(T.gelu(T.matmul(t["a"], t["w"], t["b"]))),
        ),
        (
            {"a": rng.normal(size=(B, s, d)), "b": rng.normal(size=(s, d))},
            lambda t: T.mean_all(T.add(t["a"], t["b"])),
        ),
        (
            {"a": rng.normal(size=(s, d))},
            lambda t: T.sum_all(T.scale(t["a"], 1.7)),
        ),
        (
            {"a": rng.normal(size=(B, s, d))},
            lambda t: T.mean_all(T.gelu(t["a"])),
        ),
        (
            {"a": rng.normal(size=(B, s, d))},
            lambda t: inner(T.softmax(t["a"]), T.softmax(t["a"])),
        ),
        (
            {"a": rng.normal(size=(B, 2, s, s)), "w": rng.normal(size=(B, 2, s, s))},
            lambda t: inner(T.softmax(t["a"], key_bias), t["w"]),
        ),
        (
            {"a": rng.normal(size=(B, 2, s, s)), "w": rng.normal(size=(B, 2, s, s))},
            lambda t: inner(T.softmax(t["a"], key_bias, scale=0.35), t["w"]),
        ),
        (
            {
                "x": rng.normal(size=(B, s, d)),
                "g": 1.0 + 0.1 * rng.normal(size=(d,)),
                "b": rng.normal(size=(d,)),
            },
            lambda t: T.mean_all(T.layer_norm(t["x"], t["g"], t["b"])),
        ),
        (
            {"table": rng.normal(size=(5, d))},
            lambda t: T.mean_all(T.gather_rows(t["table"], np.array([[0, 2, 2], [4, 1, 0]]))),
        ),
        (
            {"a": rng.normal(size=(B, 2, d)), "b": rng.normal(size=(B, s, d))},
            lambda t: T.mean_all(T.gelu(T.concat_rows(t["a"], t["b"]))),
        ),
        (
            {"a": rng.normal(size=(B, s, d))},
            lambda t: T.sum_all(T.transpose(T.reshape(t["a"], (B, s, 2, 2)), (0, 2, 1, 3))),
        ),
        (
            {"a": rng.normal(size=(s, d))},
            lambda t: T.mean_all(T.gelu(T.expand_leading(t["a"], 3))),
        ),
        (
            {"a": rng.normal(size=(s + 2, d)), "b": rng.normal(size=(B, s, d))},
            lambda t: T.mean_all(T.gelu(T.add(t["b"], T.slice_rows(t["a"], 0, s)))),
        ),
        (
            {"x": rng.normal(size=(B, s, d))},
            lambda t: T.sum_all(
                T.masked_mean_rows(t["x"], np.array([[True, False, True], [True, True, True]]))
            ),
        ),
        (
            {"z": rng.normal(size=(4, 5))},
            lambda t: T.softmax_cross_entropy(t["z"], np.array([0, 3, 2, 4])),
        ),
        (
            {"p": rng.normal(size=(6,))},
            lambda t: T.mean_squared_error(t["p"], mse_target),
        ),
    ]
    for arrays, build in cases:
        check_op_grads(build, arrays)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_key_bias_zeroes_masked_keys(dtype):
    rng = np.random.default_rng(0)
    keep = np.array([[True, False, True, True], [False, True, True, False]])
    bias = np.where(keep, 0.0, -1e9).astype(dtype)[:, None, None, :]
    a = T.Tensor(rng.normal(size=(2, 3, 4, 4)).astype(dtype))
    probs = T.softmax(a, bias).data
    # Same bits as adding the materialized (B, H, s, s) mask first.
    full = T.add(a, T.Tensor(np.broadcast_to(bias, a.shape)))
    assert probs.tobytes() == T.softmax(full).data.tobytes()
    masked = np.broadcast_to(~keep[:, None, None, :], probs.shape)
    assert probs.dtype == dtype
    assert np.all(probs[masked] == 0.0)
    assert np.allclose(probs.sum(axis=-1), 1.0)


@pytest.mark.parametrize("bias_shape", [(2, 3, 4), (1, 2, 1, 4), (3,)])
def test_softmax_rejects_bias_that_does_not_broadcast_to_input(bias_shape):
    a = T.Tensor(np.zeros((2, 1, 4)))
    with pytest.raises(T.ShapeError, match="softmax"):
        T.softmax(a, np.zeros(bias_shape))


# ---------------------------------------------------------------------------
# fused and in-place ops: the same float32 bits as the unfused formulas


def upstream(out: T.Tensor, seed: int) -> np.ndarray:
    """A fixed float32 output gradient; inner(out, G) hands op `out` exactly G."""
    return np.random.default_rng(seed).normal(size=out.shape).astype(np.float32)


def grads_under(out: T.Tensor, g: np.ndarray, *leaves: T.Tensor) -> list[np.ndarray]:
    grads = T.backward(inner(out, T.Tensor(g)))
    return [grads[leaf] for leaf in leaves]


def f32_leaves(rng, *shapes) -> list[T.Tensor]:
    return [T.Tensor(rng.normal(size=shape).astype(np.float32), trainable=True) for shape in shapes]


@pytest.mark.parametrize("seed", range(3))
def test_matmul_bias_is_bitwise_the_separate_add(seed):
    rng = np.random.default_rng(seed)
    a, w, b = f32_leaves(rng, (4, 7, 16), (16, 24), (24,))
    fused = T.matmul(a, w, b)
    g = upstream(fused, seed)
    ga, gw, gb = grads_under(fused, g, a, w, b)

    a2, w2 = (T.Tensor(t.data, trainable=True) for t in (a, w))
    product = T.matmul(a2, w2)
    split = T.add(product, T.Tensor(np.broadcast_to(b.data, product.shape)))
    ga2, gw2 = grads_under(split, g, a2, w2)
    assert fused.data.tobytes() == split.data.tobytes()
    assert ga.tobytes() == ga2.tobytes() and gw.tobytes() == gw2.tobytes()
    assert gb.tobytes() == g.reshape(-1, 24).sum(axis=0).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_softmax_scale_is_bitwise_the_separate_scale(seed):
    rng = np.random.default_rng(seed)
    (a,) = f32_leaves(rng, (2, 3, 5, 6))
    keep = rng.random((2, 6)) > 0.3
    keep[:, 0] = True
    key_mask = np.where(keep, 0.0, -1e9).astype(np.float32)[:, None, None, :]
    c = 1.0 / np.sqrt(12.0)  # not a power of two, so the scaling rounds
    fused = T.softmax(a, key_mask, scale=c)
    g = upstream(fused, seed)
    (ga,) = grads_under(fused, g, a)

    a2 = T.Tensor(a.data, trainable=True)
    split = T.softmax(T.scale(a2, c), key_mask)
    (ga2,) = grads_under(split, g, a2)
    assert fused.data.tobytes() == split.data.tobytes()
    assert ga.tobytes() == ga2.tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_gelu_is_bitwise_the_written_out_formula(seed):
    rng = np.random.default_rng(seed)
    (a,) = f32_leaves(rng, (4, 7, 32))
    out = T.gelu(a)
    g = upstream(out, seed)
    (ga,) = grads_under(out, g, a)

    x, k, c = a.data, T._GELU_K, T._GELU_C
    th = np.tanh(k * (x + c * (x * x * x)))
    ref = 0.5 * x * (1.0 + th)
    du = k * (1.0 + 3.0 * c * (x * x))
    local = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * du
    assert out.data.tobytes() == ref.tobytes()
    assert ga.tobytes() == (g * local).tobytes()


@pytest.mark.parametrize("seed", range(3))
def test_layer_norm_is_bitwise_the_written_out_formula(seed):
    rng = np.random.default_rng(seed)
    x, gain, bias = f32_leaves(rng, (4, 7, 16), (16,), (16,))
    out = T.layer_norm(x, gain, bias)
    g = upstream(out, seed)
    gx, ggain, gbias = grads_under(out, g, x, gain, bias)

    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = xc * inv
    ref = xhat * gain.data + bias.data
    gh = g * gain.data
    ref_gx = inv * (
        gh - gh.mean(axis=-1, keepdims=True) - xhat * (gh * xhat).mean(axis=-1, keepdims=True)
    )
    assert out.data.tobytes() == ref.tobytes()
    assert gx.tobytes() == ref_gx.tobytes()
    assert ggain.tobytes() == (g * xhat).reshape(-1, 16).sum(axis=0).tobytes()
    assert gbias.tobytes() == g.reshape(-1, 16).sum(axis=0).tobytes()


def test_matmul_rejects_a_bias_of_the_wrong_width():
    with pytest.raises(T.ShapeError, match="bias"):
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((3, 4))), T.Tensor(np.ones(3)))


def test_slice_rows_pads_its_gradient_with_zeros():
    a = T.Tensor(np.arange(24.0).reshape(2, 4, 3), trainable=True)
    out = T.slice_rows(a, 1, 3)
    assert np.array_equal(out.data, a.data[:, 1:3])
    (g,) = grads_under(out, np.ones(out.shape), a)
    assert np.array_equal(g, np.repeat([[0.0, 1.0, 1.0, 0.0]], 2, axis=0)[:, :, None] * np.ones(3))
    for start, stop in [(2, 2), (-1, 2), (0, 5)]:
        with pytest.raises(T.ShapeError, match="slice_rows"):
            T.slice_rows(a, start, stop)


def test_float32_gradients_within_loose_tolerance():
    rng = np.random.default_rng(0)
    a32 = rng.normal(size=(3, 4)).astype(np.float32)
    b32 = rng.normal(size=(4, 2)).astype(np.float32)
    a = T.Tensor(a32, trainable=True)
    b = T.Tensor(b32, trainable=True)
    loss = T.mean_all(T.gelu(T.matmul(a, b)))
    ga = T.backward(loss)[a]

    def f(x):
        t = T.Tensor(x.astype(np.float32))
        return T.mean_all(T.gelu(T.matmul(t, T.Tensor(b32)))).item()

    fd = numeric_grad(f, a32.astype(np.float64), h=1e-3)
    denom = np.maximum(np.maximum(np.abs(ga), np.abs(fd)), 1.0)
    assert (np.abs(ga - fd) / denom).max() < 1e-2


def test_float32_gelu_values_match_float64_formula():
    """f32 forward and backward stay within a few ulps of the f64 tanh formula."""
    near3 = 3.0 + np.arange(-4, 5) * np.spacing(np.float32(3.0))
    x32 = np.concatenate(
        [np.linspace(-10.0, 10.0, 4001), near3, -near3, np.zeros(3)]
    ).astype(np.float32)
    g32 = np.random.default_rng(0).uniform(-1.0, 1.0, size=x32.shape).astype(np.float32)
    x = T.Tensor(x32, trainable=True)
    out = T.gelu(x)
    grad = T.backward(inner(out, T.Tensor(g32)))[x]

    k, c = np.sqrt(2.0 / np.pi), 0.044715
    x64 = x32.astype(np.float64)
    th = np.tanh(k * (x64 + c * x64**3))
    ref_out = 0.5 * x64 * (1.0 + th)
    ref_local = 0.5 * (1.0 + th) + 0.5 * x64 * (1.0 - th**2) * k * (1.0 + 3.0 * c * x64**2)
    ref_grad = g32.astype(np.float64) * ref_local

    tol = 8 * np.finfo(np.float32).eps * np.maximum(1.0, np.abs(x64))
    assert out.dtype == grad.dtype == np.float32
    assert np.all(np.abs(out.data - ref_out) <= tol)
    assert np.all(np.abs(grad - ref_grad) <= tol)


# ---------------------------------------------------------------------------
# grad_check harness


def test_grad_check_square():
    report = T.grad_check(lambda x: inner(x, x), T.Tensor(np.asarray([3.0])))
    assert abs(report.analytic[0] - 6.0) < 1e-12
    assert abs(report.numeric[0] - 6.0) < 1e-6
    assert report.max_rel_err < 1e-6


def test_grad_check_cross_entropy():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(1, 5))
    labels = np.array([2])
    report = T.grad_check(
        lambda x: T.softmax_cross_entropy(x, labels), T.Tensor(logits)
    )
    assert report.max_rel_err < 1e-6


def test_grad_check_rejects_nonscalar():
    with pytest.raises(T.GraphError):
        T.grad_check(lambda x: T.scale(x, 2.0), T.Tensor(np.ones(3)))


# ---------------------------------------------------------------------------
# allocator setting

def test_keep_freed_memory_is_a_no_op_without_libc(monkeypatch):
    def missing(name):
        raise OSError(f"{name}: cannot open shared object file")

    monkeypatch.setattr(T.ctypes, "CDLL", missing)
    assert T._keep_freed_memory() is False


def test_keep_freed_memory_is_a_no_op_without_mallopt(monkeypatch):
    monkeypatch.setattr(T.ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert T._keep_freed_memory() is False


# A desk-size evaluate (d=64, m=64 prepended rows, two batches of 64) after
# one warm-up call.  Measured on glibc 2.36: ~34k minor faults while the
# eval graph is kept, ~16k once it is dropped but freed arrays go back to
# the OS, and 0-1 with the graph dropped and freed memory kept.
_SECOND_EVALUATE_FAULTS = """
import resource
from accept.backbone import BackboneConfig, BackboneModel
from accept.factorization import PromptDims, solve_rank
from accept.tasks import gen_task
from accept.training import InitStrategy, apply_init, evaluate

config = BackboneConfig()
model = BackboneModel.random_init(config, 0)
model.freeze()
dims_p = PromptDims(positions=64, d=config.d, K=4, r=solve_rank(512, config.d, 64, 4))
dims_a = PromptDims(positions=config.max_len, d=config.d, K=2,
                    r=solve_rank(512, config.d, config.max_len, 2))
prompts = apply_init(InitStrategy(), dims_p, dims_a, seed=0)
data = gen_task("pair-match", n=128, length=7, vocab_size=16, seed=1, split="eval")
evaluate(model, prompts, data)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
evaluate(model, prompts, data)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    platform.system() != "Linux" or platform.libc_ver()[0] != "glibc",
    reason="minor-fault bound is measured for glibc malloc",
)
def test_repeated_evaluate_reuses_its_memory():
    src = str(Path(accept.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", _SECOND_EVALUATE_FAULTS],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert int(out.stdout.strip()) < 3000
