"""Tensor engine tests: op contracts plus finite-difference gradient oracles."""

import numpy as np
import pytest

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
    assert w.grad is None
    assert w.data.tobytes() == before


def test_backward_on_constant_graph_is_empty():
    a = T.Tensor(np.ones(3))
    loss = T.sum_all(T.gelu(a))
    assert T.backward(loss) == {}


def test_fanout_accumulation():
    # z = (x*x) + (x*x), sum -> dz/dx = 4x
    x = T.Tensor(np.array([1.0, 2.0]), trainable=True)
    h = T.mul(x, x)
    loss = T.sum_all(T.add(h, h))
    g = T.backward(loss)[x]
    np.testing.assert_allclose(g, [4.0, 8.0], rtol=1e-12)


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
            {"a": rng.normal(size=(B, s, d)), "b": rng.normal(size=(d,))},
            lambda t: T.mean_all(T.add(t["a"], t["b"])),
        ),
        (
            {"a": rng.normal(size=(B, s, d)), "b": rng.normal(size=(s, d))},
            lambda t: T.mean_all(T.add(t["a"], t["b"])),
        ),
        (
            {"a": rng.normal(size=(s, d)), "b": rng.normal(size=(s, d))},
            lambda t: T.sum_all(T.mul(t["a"], t["b"])),
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
            lambda t: T.mean_all(T.mul(T.softmax(t["a"]), T.softmax(t["a"]))),
        ),
        (
            {"a": rng.normal(size=(B, 2, s, s)), "w": rng.normal(size=(B, 2, s, s))},
            lambda t: T.sum_all(T.mul(T.softmax(t["a"], key_bias), t["w"])),
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
            lambda t: T.mean_all(T.gelu(T.add(t["b"], T.leading_rows(t["a"], s)))),
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
    grad = T.backward(T.sum_all(T.mul(out, T.Tensor(g32))))[x]

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
    report = T.grad_check(lambda x: T.sum_all(T.mul(x, x)), T.Tensor(np.asarray([3.0])))
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
