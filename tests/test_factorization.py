"""Factorized prompt tests against brute-force oracles and known counts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accept import factorization as F
from accept import tensor as T


def compose_oracle(C: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Brute-force composition: explicit loop over (position, subspace, codeword)."""
    K, r, t = C.shape
    m = W.shape[0]
    out = np.zeros((m, K * t), dtype=C.dtype)
    for i in range(m):
        for k in range(K):
            for j in range(r):
                out[i, k * t : (k + 1) * t] += W[i, k, j] * C[k, j]
    return out


# Worked example: d=4 split into K=2 subspaces of width t=2, r=2 codewords.
EX_C = np.array(
    [
        [[1.0, 0.0], [0.0, 1.0]],  # subspace 1
        [[2.0, 2.0], [1.0, -1.0]],  # subspace 2
    ]
)
EX_W = np.array([[[0.5, 0.5], [1.0, 0.0]]])  # one position


def test_validate_partition():
    assert F.validate_partition(768, 24) == 32
    assert F.validate_partition(64, 1) == 64


def test_validate_partition_rejects_uneven():
    with pytest.raises(F.PartitionError) as exc:
        F.validate_partition(10, 4)
    assert "10" in str(exc.value) and "4" in str(exc.value)


def test_compose_known_values():
    cb = F.Codebook(T.Tensor(EX_C))
    ws = F.WeightSet(T.Tensor(EX_W))
    out = F.compose(cb, ws)
    np.testing.assert_allclose(out.data, [[0.5, 0.5, 2.0, 2.0]], atol=0)


def test_compose_backward_known_values():
    d_prompt = np.ones((1, 4))
    dC, dW = F.compose_backward(EX_C, EX_W, d_prompt)
    np.testing.assert_allclose(dW, [[[1.0, 1.0], [4.0, 0.0]]], atol=0)
    np.testing.assert_allclose(
        dC,
        [
            [[0.5, 0.5], [0.5, 0.5]],
            [[1.0, 1.0], [0.0, 0.0]],
        ],
        atol=0,
    )


@pytest.mark.parametrize("seed", range(10))
def test_compose_matches_triple_loop(seed):
    rng = np.random.default_rng(seed)
    K = int(rng.integers(1, 5))
    t = int(rng.integers(1, 6))
    r = int(rng.integers(1, 7))
    m = int(rng.integers(1, 8))
    C = rng.normal(size=(K, r, t))
    W = rng.normal(size=(m, K, r))
    got = F.compose(F.Codebook(T.Tensor(C)), F.WeightSet(T.Tensor(W))).data
    want = compose_oracle(C, W)
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_compose_gradients_match_fd(seed):
    rng = np.random.default_rng(100 + seed)
    K, t, r, m = 3, 2, 4, 5
    C = rng.normal(size=(K, r, t))
    W = rng.normal(size=(m, K, r))
    probe = rng.normal(size=(m, K * t))  # random linear functional of the output

    cb = F.Codebook(T.Tensor(C, trainable=True))
    ws = F.WeightSet(T.Tensor(W, trainable=True))
    out = T.reshape(F.compose(cb, ws), (1, probe.size))
    loss = T.sum_all(T.matmul(out, T.Tensor(probe.reshape(-1, 1))))
    grads = T.backward(loss)

    def loss_of(C_arr, W_arr):
        return float((compose_oracle(C_arr, W_arr) * probe).sum())

    h = 1e-6
    for arr, tensor in ((C, cb.entries), (W, ws.entries)):
        fd = np.zeros_like(arr)
        flat = arr.ravel()
        fdflat = fd.ravel()
        for i in range(flat.size):
            up, down = flat.copy(), flat.copy()
            up[i] += h
            down[i] -= h
            args_up = (up.reshape(arr.shape), W) if arr is C else (C, up.reshape(arr.shape))
            args_dn = (down.reshape(arr.shape), W) if arr is C else (C, down.reshape(arr.shape))
            fdflat[i] = (loss_of(*args_up) - loss_of(*args_dn)) / (2 * h)
        rel = np.abs(grads[tensor] - fd) / np.maximum(np.abs(fd), 1.0)
        assert rel.max() < 1e-6


def test_compose_dimension_mismatch():
    cb = F.Codebook(T.Tensor(np.zeros((2, 3, 4))))
    ws = F.WeightSet(T.Tensor(np.zeros((5, 2, 2))))  # r disagrees
    with pytest.raises(F.DimensionError):
        F.compose(cb, ws)


def test_compose_respects_frozen_weights():
    cb = F.Codebook(T.Tensor(EX_C, trainable=True))
    ws = F.WeightSet(T.Tensor(EX_W, trainable=False))
    grads = T.backward(T.sum_all(F.compose(cb, ws)))
    assert cb.entries in grads
    assert ws.entries not in grads


# ---------------------------------------------------------------------------
# integer accounting


def test_param_count_reference_values():
    # Default prepended configuration: d=768, m=60, K=24, r=20.
    assert F.param_count(20, 768, 60, 24) == 44_160
    # Default added configuration: d=768, l=256, K=2, r=24.
    assert F.param_count(24, 768, 256, 2) == 30_720
    # Reference combined default budget.
    assert 44_160 + 30_720 == 74_880
    # Tiny hand check: r=1, d=4, positions=2, K=2 -> 4 + 4.
    assert F.param_count(1, 4, 2, 2) == 8


def test_codebook_term_independent_of_positions():
    rng = np.random.default_rng(0)
    for _ in range(20):
        r = int(rng.integers(1, 50))
        d = int(rng.integers(1, 1000))
        K = int(rng.integers(1, 30))
        p1, p2 = int(rng.integers(0, 300)), int(rng.integers(0, 300))
        delta = F.param_count(r, d, p1, K) - F.param_count(r, d, p2, K)
        assert delta == r * K * (p1 - p2)
    assert F.param_count(7, 64, 0, 4) == 7 * 64


def test_solve_rank_reference_values():
    assert F.solve_rank(46_080, 768, 60, 24) == 20
    assert F.solve_rank(30_720, 768, 256, 2) == 24


@given(
    budget=st.integers(min_value=0, max_value=10**7),
    d=st.integers(min_value=1, max_value=4096),
    positions=st.integers(min_value=0, max_value=512),
    K=st.integers(min_value=1, max_value=64),
)
@settings(max_examples=200, deadline=None)
def test_solve_rank_is_maximal(budget, d, positions, K):
    r = F.solve_rank(budget, d, positions, K)
    assert F.param_count(r, d, positions, K) <= budget
    assert F.param_count(r + 1, d, positions, K) > budget


def test_codeword_capacity_exact():
    # (20)^24 = (2 * 10)^24 stated independently.
    assert F.codeword_capacity(20, 24) == 16_777_216 * 10**24
    assert F.codeword_capacity(3, 4) == 81


def test_codeword_capacity_vq_degeneracy():
    # K=1 is plain vector quantization: r choices total.
    assert F.codeword_capacity(17, 1) == 17


# ---------------------------------------------------------------------------
# initialization


def test_init_random_deterministic():
    dims = F.PromptDims(positions=8, d=64, K=8, r=4)
    c1, w1 = F.init_random(dims, seed=5)
    c2, w2 = F.init_random(dims, seed=5)
    assert c1.entries.data.tobytes() == c2.entries.data.tobytes()
    assert w1.entries.data.tobytes() == w2.entries.data.tobytes()
    c3, _ = F.init_random(dims, seed=6)
    assert c1.entries.data.tobytes() != c3.entries.data.tobytes()


@pytest.mark.parametrize("seed", range(8))
def test_init_random_composed_scale(seed):
    dims = F.PromptDims(positions=60, d=768, K=24, r=20)
    cb, ws = F.init_random(dims, seed=seed, dtype=np.float64)
    std = float(F.compose(cb, ws).data.std())
    assert F.TARGET_STD / 2 <= std <= F.TARGET_STD * 2


def test_init_random_variance_derivation():
    # Sum of r independent products: var = r * (1/r) * target^2, so the
    # composed std should estimate target closely at large sample sizes.
    dims = F.PromptDims(positions=200, d=256, K=8, r=16)
    cb, ws = F.init_random(dims, seed=0, dtype=np.float64)
    std = float(F.compose(cb, ws).data.std())
    assert abs(std - F.TARGET_STD) / F.TARGET_STD < 0.1


def test_init_random_dtype():
    dims = F.PromptDims(positions=4, d=16, K=2, r=3)
    cb, ws = F.init_random(dims, seed=1)
    assert cb.entries.dtype == np.float32
    assert ws.entries.dtype == np.float32
    assert cb.entries.trainable and ws.entries.trainable


def test_one_hot_weights_degenerate_to_free_vectors():
    dims = F.PromptDims(positions=5, d=6, K=1, r=5)
    rng = np.random.default_rng(2)
    C = rng.normal(size=(1, 5, 6))
    cb = F.Codebook(T.Tensor(C, trainable=True))
    ws = F.one_hot_weights(dims, dtype=np.float64)
    assert not ws.entries.trainable
    out = F.compose(cb, ws)
    # Bitwise: multiplying by a one-hot row adds exact zeros only.
    assert out.data.tobytes() == C[0].astype(out.dtype).tobytes()


def test_one_hot_weights_requires_square():
    with pytest.raises(F.DimensionError):
        F.one_hot_weights(F.PromptDims(positions=5, d=6, K=1, r=4))


def test_prompt_dims_validation():
    with pytest.raises(F.PartitionError):
        F.PromptDims(positions=4, d=10, K=3, r=2)
    with pytest.raises(F.DimensionError):
        F.PromptDims(positions=0, d=8, K=2, r=2)
    with pytest.raises(F.DimensionError):
        F.PromptDims(positions=4, d=8, K=2, r=0)
