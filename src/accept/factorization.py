"""Soft prompts factorized over shared per-subspace codebooks.

The prompt embedding space of width d is split into K contiguous subspaces
of width t = d/K.  Each subspace k owns a codebook of r codewords, and
every prompt position mixes those codewords with unconstrained linear
weights: there is no softmax or normalization on the mixture.  A composed
prompt therefore costs r*d codebook values plus positions*K*r weights.

Trainable parameter count and the rank that fits a parameter budget are
pure integer arithmetic and live here too, next to the tensors they
describe.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, make_op

__all__ = [
    "PartitionError",
    "DimensionError",
    "InitError",
    "TARGET_STD",
    "PromptDims",
    "Codebook",
    "WeightSet",
    "validate_partition",
    "param_count",
    "solve_rank",
    "codeword_capacity",
    "compose",
    "compose_backward",
    "init_random",
    "one_hot_weights",
]


class PartitionError(ValueError):
    """The embedding width does not split evenly into K subspaces."""


class DimensionError(ValueError):
    """Codebook and weight dimensions disagree."""


class InitError(ValueError):
    """Random initialization failed its construction-time scale check."""


# Standard deviation that init_random aims each composed prompt entry at.
TARGET_STD = 0.1


def validate_partition(d: int, K: int) -> int:
    """Return the subspace width t = d / K, rejecting uneven splits."""
    if K < 1 or d < 1:
        raise PartitionError(f"invalid partition: d={d}, K={K} must be positive")
    if d % K != 0:
        raise PartitionError(f"subspace count K={K} does not divide embedding width d={d}")
    return d // K


def param_count(r: int, d: int, positions: int, K: int) -> int:
    """Trainable parameters of one composed prompt component.

    Codebooks hold r*t values in each of the K subspaces (r*d total,
    independent of the number of positions); mixing weights add
    positions*K*r on top.
    """
    for name, v in (("r", r), ("d", d), ("positions", positions), ("K", K)):
        if not isinstance(v, (int, np.integer)) or v < 0:
            raise ValueError(f"param_count: {name}={v} must be a non-negative integer")
    return r * d + r * positions * K


def solve_rank(budget: int, d: int, positions: int, K: int) -> int:
    """Largest r whose param_count fits the budget.

    Since param_count is linear in r this is floor(budget / (d + positions*K)).
    """
    if budget < 0:
        raise ValueError(f"solve_rank: budget={budget} must be non-negative")
    if d < 1 or K < 1 or positions < 0:
        raise ValueError(f"solve_rank: invalid dims d={d}, positions={positions}, K={K}")
    return budget // (d + positions * K)


def codeword_capacity(r: int, K: int) -> int:
    """Exact number of distinct codeword index combinations, r**K.

    Each position can pick one of r codewords in each of the K subspaces
    independently, giving a Cartesian product.  K=1 degenerates to plain
    vector quantization with r choices.  Exact big-integer arithmetic.
    """
    if r < 0 or K < 1:
        raise ValueError(f"codeword_capacity: invalid r={r}, K={K}")
    return int(r) ** int(K)


@dataclass(frozen=True)
class PromptDims:
    """Dimensions of one prompt component (prepended or added)."""

    positions: int
    d: int
    K: int
    r: int

    def __post_init__(self):
        validate_partition(self.d, self.K)
        if self.positions < 1:
            raise DimensionError(f"positions={self.positions} must be >= 1")
        if self.r < 1:
            raise DimensionError(f"r={self.r} must be >= 1")

    @property
    def t(self) -> int:
        return self.d // self.K

    def param_count(self) -> int:
        return param_count(self.r, self.d, self.positions, self.K)


@dataclass
class Codebook:
    """Per-subspace codewords, stored contiguously as (K, r, t)."""

    entries: Tensor

    def __post_init__(self):
        if self.entries.ndim != 3:
            raise DimensionError(f"codebook entries must be (K, r, t), got {self.entries.shape}")

    @property
    def K(self) -> int:
        return self.entries.shape[0]

    @property
    def r(self) -> int:
        return self.entries.shape[1]

    @property
    def t(self) -> int:
        return self.entries.shape[2]

    @property
    def d(self) -> int:
        return self.K * self.t


@dataclass
class WeightSet:
    """Per-position mixing weights, stored as (positions, K, r)."""

    entries: Tensor

    def __post_init__(self):
        if self.entries.ndim != 3:
            raise DimensionError(f"weights must be (positions, K, r), got {self.entries.shape}")

    @property
    def positions(self) -> int:
        return self.entries.shape[0]

    @property
    def K(self) -> int:
        return self.entries.shape[1]

    @property
    def r(self) -> int:
        return self.entries.shape[2]


def compose_backward(
    codebook: np.ndarray, weights: np.ndarray, d_prompt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the composition wrt codebook and weights.

    For the gradient d_prompt of shape (positions, d):
      dC[k, j, :] = sum_i w[i, k, j] * d_prompt[i, k*t:(k+1)*t]
      dW[i, k, j] = <d_prompt[i, k*t:(k+1)*t], C[k, j, :]>

    Args:
        codebook: (K, r, t) codeword array.
        weights: (positions, K, r) mixing weights.
        d_prompt: (positions, K*t) upstream gradient.

    Returns:
        (d_codebook, d_weights) with the input shapes.
    """
    K, r, t = codebook.shape
    positions = weights.shape[0]
    g3 = d_prompt.reshape(positions, K, t)
    d_codebook = np.einsum("pkr,pkt->krt", weights, g3)
    d_weights = np.einsum("pkt,krt->pkr", g3, codebook)
    return d_codebook, d_weights


def compose(codebook: Codebook, weights: WeightSet) -> Tensor:
    """Mix codewords into a full prompt, one matrix product per subspace.

    Returns a (positions, d) tensor where row i restricted to subspace k is
    sum_j weights[i, k, j] * codebook[k, j, :].  Differentiable wrt both
    inputs via compose_backward.
    """
    if codebook.K != weights.K or codebook.r != weights.r:
        raise DimensionError(
            f"compose: codebook (K={codebook.K}, r={codebook.r}) vs "
            f"weights (K={weights.K}, r={weights.r})"
        )
    C = codebook.entries
    W = weights.entries
    if C.dtype != W.dtype:
        raise DimensionError(f"compose: dtype mismatch {C.dtype.name} vs {W.dtype.name}")
    positions, d = weights.positions, codebook.d
    out = np.einsum("pkr,krt->pkt", W.data, C.data).reshape(positions, d)

    def backward_fn(g: np.ndarray):
        dC, dW = compose_backward(C.data, W.data, g)
        return (dC if C.needs_grad else None), (dW if W.needs_grad else None)

    return make_op(out, (C, W), backward_fn, "compose")


def init_random(dims: PromptDims, seed, dtype=np.float32) -> tuple[Codebook, WeightSet]:
    """Gaussian initialization with a predictable composed scale.

    Codewords are drawn N(0, TARGET_STD^2) and weights N(0, 1/r), so each
    composed entry is a sum of r independent products with total variance
    r * (1/r) * TARGET_STD^2 = TARGET_STD^2.  The composed standard
    deviation is measured at construction and must land within 2x of
    TARGET_STD (skipped for tiny prompts where the estimate is noise).

    Args:
        dims: component dimensions (positions, d, K, r).
        seed: anything np.random.default_rng accepts.
        dtype: float32 for training, float64 for gradient checks.

    Returns:
        (Codebook, WeightSet), both trainable.
    """
    rng = np.random.default_rng(seed)
    t = dims.t
    c = rng.normal(0.0, TARGET_STD, size=(dims.K, dims.r, t))
    w = rng.normal(0.0, 1.0 / np.sqrt(dims.r), size=(dims.positions, dims.K, dims.r))
    codebook = Codebook(Tensor(c.astype(dtype), trainable=True, name="codebook"))
    weights = WeightSet(Tensor(w.astype(dtype), trainable=True, name="weights"))
    composed = compose(codebook, weights).data
    # Composed entries are correlated through the shared codewords, so the
    # empirical std is only a trustworthy estimate for reasonably large
    # prompts; tiny ones skip the check rather than fail it spuriously.
    if composed.size >= 256:
        std = float(composed.std())
        lo, hi = TARGET_STD / 2.0, TARGET_STD * 2.0
        if not (lo <= std <= hi):
            raise InitError(
                f"composed prompt std {std:.4g} outside [{lo:.4g}, {hi:.4g}] "
                f"for TARGET_STD={TARGET_STD}"
            )
    return codebook, weights


def one_hot_weights(dims: PromptDims, dtype=np.float32, trainable: bool = False) -> WeightSet:
    """Weights that select codeword i for position i in every subspace.

    Requires r == positions.  With K=1 and a trainable codebook this makes
    the factorized prompt degenerate to vanilla prompt tuning on r free
    vectors: compose() returns the codebook rows unchanged.
    """
    if dims.r != dims.positions:
        raise DimensionError(
            f"one_hot_weights: needs r == positions, got r={dims.r}, positions={dims.positions}"
        )
    w = np.zeros((dims.positions, dims.K, dims.r), dtype=dtype)
    idx = np.arange(dims.positions)
    w[idx, :, idx] = 1.0
    return WeightSet(Tensor(w, trainable=trainable, name="one_hot_weights"))
