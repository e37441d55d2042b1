"""Adaptive-moment optimizer with decoupled weight decay, plus warmup.

Tensors are immutable, so optimized parameters live in mutable containers
(model param dicts, prompt slots).  A ParamRef has three fields: ``get``
returns the current leaf tensor, ``set`` stores a replacement, and
``lr_key`` names its learning-rate group.  The optimizer owns the moment
state and steps all refs with per-group learning rates; each step stores a
new leaf rather than writing into the old one, so a held leaf never changes.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

__all__ = ["ParamRef", "AdamW", "warmup_lr", "warmup_decay_lr", "TrainingError"]


class TrainingError(ArithmeticError):
    """A training loop hit a numeric failure (divergence, NaN loss)."""


def warmup_lr(base: float, step: int, warmup: int) -> float:
    """Linear warmup: step/warmup * base while step <= warmup, then base.

    Steps are 1-indexed, so the configured rate is reached exactly at
    step == warmup.
    """
    if step < 1:
        raise ValueError(f"step={step} must be >= 1")
    if warmup <= 0:
        return base
    return base * min(1.0, step / warmup)


def warmup_decay_lr(base: float, step: int, warmup: int, total: int) -> float:
    """Linear warmup as in warmup_lr, then linear decay towards 0.

    After step == warmup the rate falls by base / (total - warmup + 1) per
    step, so the last step (step == total) still moves the parameters and
    a run ends on a settled iterate rather than a full-rate one.
    """
    if step <= warmup:
        return warmup_lr(base, step, warmup)
    return base * (total + 1 - step) / (total + 1 - warmup)


@dataclass(frozen=True)
class ParamRef:
    """Read/write handle for one optimized leaf plus its lr group."""

    get: Callable[[], Tensor]
    set: Callable[[Tensor], None]
    lr_key: str


class AdamW:
    """Adam moments with decoupled weight decay.

    update = lr * (m_hat / (sqrt(v_hat) + eps) + weight_decay * param)

    State arrays keep the parameter dtype, so float32 runs stay float32
    end to end and are bit-reproducible for a fixed seed and host.
    """

    def __init__(
        self,
        refs: list[ParamRef],
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.refs = list(refs)
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.t = 0
        self._m = [np.zeros(r.get().shape, dtype=r.get().dtype) for r in self.refs]
        self._v = [np.zeros(r.get().shape, dtype=r.get().dtype) for r in self.refs]

    def step(self, grads: dict[Tensor, np.ndarray], lr_for: dict[str, float]) -> None:
        """Apply one update from a backward() gradient map.

        Args:
            grads: map produced by tensor.backward for the current graph.
            lr_for: effective learning rate per ParamRef.lr_key, already
                warmup-scaled by the caller.
        """
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for i, ref in enumerate(self.refs):
            p = ref.get()
            g = grads.get(p)
            if g is None:
                continue
            m = self._m[i]
            v = self._v[i]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / bc1
            v_hat = v / bc2
            lr = lr_for[ref.lr_key]
            new = p.data - lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data)
            ref.set(Tensor(new, trainable=True, name=p.name, dtype=p.dtype))
