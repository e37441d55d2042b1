"""Reverse-mode automatic differentiation over numpy arrays.

A small tensor-graph engine: immutable tensors, explicit op functions
that build an acyclic graph, a single ``backward`` entry point, and a
central-difference gradient checker.  Only the broadcasting patterns
the toy transformer actually uses are supported (leading batch dims, and a
bias vector added inside ``matmul``); anything else is rejected loudly.

Every forward op verifies its output is finite, so NaN/Inf surfaces at the
op that produced it rather than three layers downstream.  Inside
``checked_block`` the per-op scans are deferred to one scan of the block's
output; a non-finite result re-runs the block with every op checking, so
the error still names the op that produced it.

Importing this module asks glibc's malloc to keep freed memory: arrays up
to 32 MiB come from the heap, not a fresh ``mmap``, and the heap is only
trimmed once 1 GiB of it is free.  A forward pass frees and reallocates
the same few-megabyte arrays op after op; returning each to the OS would
cost a page fault per page on its next use.  Every thread also shares one
arena, so the threads a tape-free forward runs its blocks on reuse the
arrays the others freed instead of each growing a heap of its own.
Without glibc's ``mallopt`` this is a no-op; no array value depends on it.
"""
from __future__ import annotations

import contextvars
import ctypes
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "NonFiniteError",
    "GraphError",
    "backward",
    "grad_check",
    "GradCheckReport",
    "make_op",
    "checked_block",
    "matmul",
    "add",
    "scale",
    "gelu",
    "softmax",
    "layer_norm",
    "gather_rows",
    "concat_rows",
    "slice_rows",
    "reshape",
    "transpose",
    "expand_leading",
    "sum_all",
    "mean_all",
    "masked_mean_rows",
    "softmax_cross_entropy",
    "mean_squared_error",
]


# glibc <malloc.h> mallopt parameters
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD, _M_ARENA_MAX = -1, -3, -8


def _keep_freed_memory() -> bool:
    """Tell glibc malloc to reuse freed arrays, not return them; True if applied."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    # 32 MiB is glibc's largest mmap threshold on 64-bit hosts; one arena
    # serves every thread.
    settings = ((_M_MMAP_THRESHOLD, 32 << 20), (_M_TRIM_THRESHOLD, 1 << 30), (_M_ARENA_MAX, 1))
    return all([mallopt(param, value) for param, value in settings])


_keep_freed_memory()


class ShapeError(ValueError):
    """Operand shapes or dtypes violate an op's contract."""


class NonFiniteError(ArithmeticError):
    """A forward op produced NaN or Inf."""


class GraphError(ValueError):
    """backward() was asked to differentiate an unsuitable graph."""


_FLOAT_DTYPES = (np.float32, np.float64)


def _check_finite(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{op}: produced non-finite values")


# True only while checked_block runs a block's deferred pass.  A context
# variable, so a block in one thread never silences another thread's checks.
_deferred = contextvars.ContextVar("deferred_checks", default=False)


def checked_block(fn, *args) -> "Tensor":
    """Run ``fn(*args)`` with one finite check of its output, not one per op.

    If the output is non-finite, or an op raised NonFiniteError during the
    deferred pass, ``fn`` runs again with every op checking its output, so
    the error names the op that produced the first NaN/Inf.
    """
    token = _deferred.set(True)
    try:
        out = fn(*args)
        if np.all(np.isfinite(out.data)):
            return out
    except NonFiniteError:
        pass
    finally:
        _deferred.reset(token)
    return fn(*args)


class Tensor:
    """Immutable node in an acyclic computation graph.

    ``data`` is a float32/float64 numpy array, locked read-only at
    construction.  Leaves are built directly (trainable or frozen) and own
    a C-contiguous copy; interior nodes come from the op functions in this
    module and carry a backward closure, and their data may be a strided
    or broadcast view of another tensor's.  A tensor holds no gradient:
    backward() returns them in a map keyed by trainable leaf.
    """

    __slots__ = ("data", "trainable", "needs_grad", "_parents", "_backward", "name")

    def __init__(self, data, trainable: bool = False, name: str | None = None, dtype=None):
        arr = np.array(data, dtype=dtype, order="C", copy=True)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float64)
        _check_finite(arr, name or "leaf")
        arr.flags.writeable = False
        self.data = arr
        self.trainable = bool(trainable)
        self.needs_grad = self.trainable
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self.name = name

    @classmethod
    def _wrap(cls, data: np.ndarray, parents: tuple["Tensor", ...], backward_fn, name: str) -> "Tensor":
        # Internal constructor for op outputs: takes `data` as is, no copy.
        arr = np.asarray(data)
        if not _deferred.get():
            _check_finite(arr, name)
        arr.flags.writeable = False
        obj = cls.__new__(cls)
        obj.data = arr
        obj.trainable = False
        obj.needs_grad = any(p.needs_grad for p in parents)
        if obj.needs_grad:
            obj._parents = parents
            obj._backward = backward_fn
        else:
            # Constant subtree: no gradient will ever flow here.
            obj._parents = ()
            obj._backward = None
        obj.name = name
        return obj

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        tag = self.name or ("param" if self.trainable else "tensor")
        return f"Tensor({tag}, shape={self.shape}, dtype={self.dtype.name})"


def make_op(data: np.ndarray, parents: tuple[Tensor, ...], backward_fn, name: str) -> Tensor:
    """Build a custom differentiable op node.

    Extension hook for modules that define their own primitives (the
    prompt composition op uses it).  ``backward_fn(out_grad)`` must return
    one gradient array per parent, or None for parents that do not need
    gradient.

    Args:
        data: forward result, a fresh numpy array owned by the node.
        parents: input tensors, in the order backward_fn reports them.
        backward_fn: closure mapping output gradient to parent gradients.
        name: op label used in error messages.
    """
    return Tensor._wrap(data, parents, backward_fn, name)


def _require_tensor(x, op: str) -> None:
    if not isinstance(x, Tensor):
        raise TypeError(f"{op}: expected Tensor, got {type(x).__name__}")


def _join_dtype(a: Tensor, b: Tensor, op: str) -> np.dtype:
    if a.dtype != b.dtype:
        raise ShapeError(f"{op}: dtype mismatch {a.dtype.name} vs {b.dtype.name}")
    return a.dtype


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product with the two supported layouts, plus an optional bias.

    Either ``b`` is a plain 2-D weight matrix applied to the trailing axis
    of ``a``, or ``a`` and ``b`` share identical leading (batch) dims.
    ``bias`` is a 1-D vector over the output's last axis, added in place
    into the product: the same float ops as ``a @ b + bias`` without a
    second output array.
    """
    _require_tensor(a, "matmul")
    _require_tensor(b, "matmul")
    _join_dtype(a, b, "matmul")
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands must be at least 2-D, got {a.shape} @ {b.shape}")
    if b.ndim == 2:
        if a.shape[-1] != b.shape[0]:
            raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    elif a.ndim == b.ndim and a.shape[:-2] == b.shape[:-2]:
        if a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"matmul: inner dims differ, {a.shape} @ {b.shape}")
    else:
        raise ShapeError(f"matmul: unsupported operand layout, {a.shape} @ {b.shape}")
    n = b.shape[-1]
    parents = (a, b)
    if bias is not None:
        _require_tensor(bias, "matmul")
        _join_dtype(a, bias, "matmul")
        if bias.shape != (n,):
            raise ShapeError(f"matmul: bias must be shape ({n},), got {bias.shape}")
        parents = (a, b, bias)
    out = a.data @ b.data
    if bias is not None:
        out += bias.data

    def backward_fn(g: np.ndarray):
        ga = gb = None
        if a.needs_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
        if b.needs_grad:
            if b.ndim == 2:
                # Collapse leading dims: grad of a shared weight sums over them.
                gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, n)
            else:
                gb = np.swapaxes(a.data, -1, -2) @ g
        if bias is None:
            return ga, gb
        gbias = g.reshape(-1, n).sum(axis=0) if bias.needs_grad else None
        return ga, gb, gbias

    return Tensor._wrap(out, parents, backward_fn, "matmul")


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; ``b`` may also be one example's array, broadcast
    over the leading batch axis of ``a``.  Biases go through ``matmul``."""
    _require_tensor(a, "add")
    _require_tensor(b, "add")
    _join_dtype(a, b, "add")
    if a.shape == b.shape:
        same = True
    elif a.ndim == b.ndim + 1 and a.shape[1:] == b.shape:
        same = False
    else:
        raise ShapeError(f"add: unsupported broadcast, {a.shape} + {b.shape}")
    out = a.data + b.data

    def backward_fn(g: np.ndarray):
        ga = g if a.needs_grad else None
        gb = None
        if b.needs_grad:
            gb = g if same else g.sum(axis=0)
        return ga, gb

    return Tensor._wrap(out, (a, b), backward_fn, "add")


def scale(a: Tensor, c: float) -> Tensor:
    _require_tensor(a, "scale")
    c = float(c)
    out = a.data * c

    def backward_fn(g: np.ndarray):
        return (g * c,)

    return Tensor._wrap(out, (a,), backward_fn, "scale")


_GELU_K = 0.7978845608028654  # sqrt(2/pi)
_GELU_C = 0.044715


def gelu(a: Tensor) -> Tensor:
    """Gaussian error linear unit, tanh approximation.

    Forward and backward use the same approximation, so finite-difference
    checks agree with the analytic gradient to machine precision.  Powers
    are written as products: on float32 arrays numpy's generic float power
    (``x**3``) is about 100x slower than two multiplies.  Both passes run
    their chains in place, in the float-op order of the formulas in the
    comments, so each keeps two or three temporaries instead of ten.
    """
    _require_tensor(a, "gelu")
    x = a.data
    # th = tanh(K * (x + C * (x * x * x)))
    th = x * x
    th *= x
    th *= _GELU_C
    th += x
    th *= _GELU_K
    np.tanh(th, out=th)
    # out = 0.5 * x * (1.0 + th)
    out = x * 0.5
    out *= th + 1.0

    def backward_fn(g: np.ndarray):
        # du = K * (1.0 + 3.0 * C * (x * x))
        du = x * x
        du *= 3.0 * _GELU_C
        du += 1.0
        du *= _GELU_K
        # local = 0.5 * (1.0 + th) + 0.5 * x * (1.0 - th * th) * du
        local = th * th
        np.subtract(1.0, local, out=local)
        local *= x * 0.5
        local *= du
        half = th + 1.0
        half *= 0.5
        local += half
        local *= g
        return (local,)

    return Tensor._wrap(out, (a,), backward_fn, "gelu")


def softmax(a: Tensor, bias=None, scale: float = 1.0) -> Tensor:
    """Numerically stable softmax over the last axis of ``a * scale + bias``.

    ``bias`` is an optional constant numpy array (no gradient) that
    broadcasts to ``a.shape``, such as an additive (B, 1, 1, s) key mask.
    Scaling, the bias, the max shift, ``exp`` and the division all run in
    place on one array: each (B, H, s, s) temporary would cost a fresh
    allocation and a memory pass.  The scaled input is checked even inside
    ``checked_block``: a -inf entry maps to a finite probability of 0 and
    would pass the block's output check.
    """
    _require_tensor(a, "softmax")
    scale = float(scale)
    if bias is not None:
        bias = np.asarray(bias, dtype=a.dtype)
        pairs = zip(reversed(bias.shape), reversed(a.shape))
        if bias.ndim > a.ndim or any(k not in (1, n) for k, n in pairs):
            raise ShapeError(f"softmax: bias {bias.shape} does not broadcast to {a.shape}")
    out = a.data * scale
    if not np.all(np.isfinite(out)):
        raise NonFiniteError("softmax: input has non-finite values")
    if bias is not None:
        out += bias
    out -= out.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)

    def backward_fn(g: np.ndarray):
        dot = (g * out).sum(axis=-1, keepdims=True)
        ga = out * (g - dot)
        ga *= scale
        return (ga,)

    return Tensor._wrap(out, (a,), backward_fn, "softmax")


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalization over the last axis with affine gain and bias.

    The chains run in place, in the float-op order of the formulas in the
    comments; ``xhat`` and ``inv`` stay alive for the backward pass.
    """
    _require_tensor(x, "layer_norm")
    _require_tensor(gain, "layer_norm")
    _require_tensor(bias, "layer_norm")
    _join_dtype(x, gain, "layer_norm")
    _join_dtype(x, bias, "layer_norm")
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias must be shape ({d},), got {gain.shape} and {bias.shape}"
        )
    # xhat = (x - mu) / sqrt(var + eps), var = mean((x - mu)**2)
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    out = xhat * xhat
    inv = out.mean(axis=-1, keepdims=True)
    inv += eps
    np.sqrt(inv, out=inv)
    np.divide(1.0, inv, out=inv)
    xhat *= inv
    # out = xhat * gain + bias
    np.multiply(xhat, gain.data, out=out)
    out += bias.data

    def backward_fn(g: np.ndarray):
        gx = ggain = gbias = None
        if x.needs_grad:
            # gx = inv * (gh - mean(gh) - xhat * mean(gh * xhat)), gh = g * gain
            gh = g * gain.data
            gx = gh * xhat
            m2 = gx.mean(axis=-1, keepdims=True)
            np.subtract(gh, gh.mean(axis=-1, keepdims=True), out=gx)
            np.multiply(xhat, m2, out=gh)
            gx -= gh
            gx *= inv
        if gain.needs_grad:
            ggain = (g * xhat).reshape(-1, d).sum(axis=0)
        if bias.needs_grad:
            gbias = g.reshape(-1, d).sum(axis=0)
        return gx, ggain, gbias

    return Tensor._wrap(out, (x, gain, bias), backward_fn, "layer_norm")


def gather_rows(table: Tensor, ids) -> Tensor:
    """Embedding lookup: select rows of a (V, d) table by integer id."""
    _require_tensor(table, "gather_rows")
    idx = np.asarray(ids)
    if idx.dtype.kind not in "iu":
        raise ShapeError(f"gather_rows: ids must be integers, got dtype {idx.dtype}")
    if table.ndim != 2:
        raise ShapeError(f"gather_rows: table must be 2-D, got {table.shape}")
    v = table.shape[0]
    if idx.size and (idx.min() < 0 or idx.max() >= v):
        raise ShapeError(f"gather_rows: id out of range for table with {v} rows")
    out = table.data[idx]

    def backward_fn(g: np.ndarray):
        if not table.needs_grad:
            return (None,)
        buf = np.zeros(table.shape, dtype=table.dtype)
        np.add.at(buf, idx.ravel(), g.reshape(-1, table.shape[1]))
        return (buf,)

    return Tensor._wrap(out, (table,), backward_fn, "gather_rows")


def concat_rows(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the sequence axis (second to last)."""
    _require_tensor(a, "concat_rows")
    _require_tensor(b, "concat_rows")
    _join_dtype(a, b, "concat_rows")
    if a.ndim != b.ndim or a.ndim < 2:
        raise ShapeError(f"concat_rows: rank mismatch, {a.shape} vs {b.shape}")
    if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-1]:
        raise ShapeError(f"concat_rows: incompatible shapes, {a.shape} vs {b.shape}")
    out = np.concatenate([a.data, b.data], axis=-2)
    na = a.shape[-2]

    def backward_fn(g: np.ndarray):
        ga = g[..., :na, :] if a.needs_grad else None
        gb = g[..., na:, :] if b.needs_grad else None
        return ga, gb

    return Tensor._wrap(out, (a, b), backward_fn, "concat_rows")


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    """Rows start..stop-1 along the sequence axis (second to last).

    The backward pass zero-pads the gradient back to ``a``'s shape.
    """
    _require_tensor(a, "slice_rows")
    if a.ndim < 2 or not 0 <= start < stop <= a.shape[-2]:
        raise ShapeError(f"slice_rows: cannot take rows {start}:{stop} of {a.shape}")
    out = a.data[..., start:stop, :]

    def backward_fn(g: np.ndarray):
        buf = np.zeros(a.shape, dtype=a.dtype)
        buf[..., start:stop, :] = g
        return (buf,)

    return Tensor._wrap(out, (a,), backward_fn, "slice_rows")


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    _require_tensor(a, "reshape")
    out = a.data.reshape(shape)

    def backward_fn(g: np.ndarray):
        return (g.reshape(a.shape),)

    return Tensor._wrap(out, (a,), backward_fn, "reshape")


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    _require_tensor(a, "transpose")
    if sorted(axes) != list(range(a.ndim)):
        raise ShapeError(f"transpose: axes {axes} is not a permutation for shape {a.shape}")
    out = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def backward_fn(g: np.ndarray):
        # Without this copy the attention key's gradient reaches its
        # projection's matmul column-major, and BLAS rounds that differently.
        return (np.ascontiguousarray(np.transpose(g, inv)),)

    return Tensor._wrap(out, (a,), backward_fn, "transpose")


def expand_leading(a: Tensor, n: int) -> Tensor:
    """Replicate a tensor along a new leading axis of length n."""
    _require_tensor(a, "expand_leading")
    if n < 1:
        raise ShapeError(f"expand_leading: n must be >= 1, got {n}")
    out = np.broadcast_to(a.data, (n,) + a.shape)

    def backward_fn(g: np.ndarray):
        return (g.sum(axis=0),)

    return Tensor._wrap(out, (a,), backward_fn, "expand_leading")


def sum_all(a: Tensor) -> Tensor:
    _require_tensor(a, "sum_all")
    out = a.data.sum()

    def backward_fn(g: np.ndarray):
        return (np.full(a.shape, g, dtype=a.dtype),)

    return Tensor._wrap(np.asarray(out), (a,), backward_fn, "sum_all")


def mean_all(a: Tensor) -> Tensor:
    _require_tensor(a, "mean_all")
    out = a.data.mean()
    inv = 1.0 / a.size

    def backward_fn(g: np.ndarray):
        return (np.full(a.shape, g * inv, dtype=a.dtype),)

    return Tensor._wrap(np.asarray(out), (a,), backward_fn, "mean_all")


def masked_mean_rows(x: Tensor, mask) -> Tensor:
    """Mean over the sequence axis restricted to mask-true rows.

    Args:
        x: (B, s, d) activations.
        mask: (B, s) boolean numpy array; every example must select at
            least one row.

    Returns:
        (B, d) pooled tensor.
    """
    _require_tensor(x, "masked_mean_rows")
    m = np.asarray(mask, dtype=bool)
    if x.ndim != 3 or m.shape != x.shape[:2]:
        raise ShapeError(f"masked_mean_rows: got x {x.shape} with mask {m.shape}")
    counts = m.sum(axis=1)
    if (counts == 0).any():
        raise ShapeError("masked_mean_rows: an example selects zero rows")
    w = m.astype(x.dtype) / counts.astype(x.dtype)[:, None]  # (B, s)
    out = np.einsum("bsd,bs->bd", x.data, w)

    def backward_fn(g: np.ndarray):
        return (w[:, :, None] * g[:, None, :],)

    return Tensor._wrap(out, (x,), backward_fn, "masked_mean_rows")


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean cross entropy between logits (B, C) and integer labels (B,)."""
    _require_tensor(logits, "softmax_cross_entropy")
    y = np.asarray(labels)
    if logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: logits must be 2-D, got {logits.shape}")
    n, c = logits.shape
    if y.shape != (n,) or y.dtype.kind not in "iu":
        raise ShapeError(f"softmax_cross_entropy: labels must be {n} integers, got {y.shape}")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise ShapeError(f"softmax_cross_entropy: label out of range for {c} classes")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    logp = z - lse
    out = -logp[np.arange(n), y].mean()

    def backward_fn(g: np.ndarray):
        p = np.exp(logp)
        p[np.arange(n), y] -= 1.0
        return (p * (g / n),)

    return Tensor._wrap(np.asarray(out, dtype=logits.dtype), (logits,), backward_fn, "softmax_cross_entropy")


def mean_squared_error(pred: Tensor, target) -> Tensor:
    """Mean squared error between predictions (B,) or (B, 1) and targets."""
    _require_tensor(pred, "mean_squared_error")
    t = np.asarray(target, dtype=pred.dtype)
    p = pred.data
    if pred.ndim == 2 and pred.shape[1] == 1:
        t = t.reshape(pred.shape)
    elif pred.ndim != 1:
        raise ShapeError(f"mean_squared_error: pred must be (B,) or (B,1), got {pred.shape}")
    if t.shape != p.shape:
        raise ShapeError(f"mean_squared_error: target shape {t.shape} vs pred {p.shape}")
    diff = p - t
    out = (diff * diff).mean()
    inv = 1.0 / p.size

    def backward_fn(g: np.ndarray):
        return (2.0 * diff * (g * inv),)

    return Tensor._wrap(np.asarray(out, dtype=pred.dtype), (pred,), backward_fn, "mean_squared_error")


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> dict[Tensor, np.ndarray]:
    """Reverse-mode sweep from a scalar loss.

    Returns a map from each trainable leaf to dLoss/dLeaf; the map is the
    only place gradients are kept.  Frozen leaves never appear in it.  The
    traversal visits each node exactly once, in a deterministic order fixed
    by graph construction.
    """
    _require_tensor(loss, "backward")
    if loss.ndim != 0:
        raise GraphError(f"backward: loss must be a scalar, got shape {loss.shape}")

    # Iterative post-order DFS so deep graphs cannot hit the recursion limit.
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, done = stack.pop()
        if done:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))

    grads: dict[int, np.ndarray] = {id(loss): np.ones((), dtype=loss.dtype)}
    result: dict[Tensor, np.ndarray] = {}
    for node in reversed(topo):
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward is None:
            if node.trainable and not node._parents:
                result[node] = g
            continue
        parts = node._backward(g)
        for p, pg in zip(node._parents, parts):
            if pg is None or not p.needs_grad:
                continue
            key = id(p)
            if key in grads:
                grads[key] = grads[key] + pg
            else:
                grads[key] = pg
    return result


# ---------------------------------------------------------------------------
# gradient checking


@dataclass
class GradCheckReport:
    """Result of comparing analytic and central-difference gradients.

    Relative error per coordinate is |a - f| / max(|a|, |f|, 1), i.e. it
    degrades to absolute error below unit magnitude.
    """

    max_rel_err: float
    worst_index: tuple[int, ...]
    analytic: np.ndarray
    numeric: np.ndarray

    def __str__(self) -> str:
        return f"GradCheckReport(max_rel_err={self.max_rel_err:.3e} at {self.worst_index})"


def grad_check(fn, point: Tensor, step: float = 1e-5) -> GradCheckReport:
    """Compare backward() against central finite differences.

    Args:
        fn: pure function mapping one leaf tensor to a scalar loss tensor;
            it is called repeatedly and must build a fresh graph each time.
        point: evaluation point; float64 recommended for tight tolerances.
        step: central-difference step size h, so f'(x) ~ (f(x+h)-f(x-h))/2h.

    Returns:
        GradCheckReport with the max per-coordinate relative error.
    """
    base = np.array(point.data, dtype=point.dtype)
    x0 = Tensor(base, trainable=True)
    loss = fn(x0)
    _require_tensor(loss, "grad_check")
    if loss.ndim != 0:
        raise GraphError(f"grad_check: fn must return a scalar, got shape {loss.shape}")
    analytic = backward(loss).get(x0)
    if analytic is None:
        analytic = np.zeros_like(base)

    numeric = np.zeros_like(base)
    flat = base.ravel()
    nflat = numeric.ravel()
    for i in range(flat.size):
        for sign in (1.0, -1.0):
            pert = flat.copy()
            pert[i] += sign * step
            val = fn(Tensor(pert.reshape(base.shape), dtype=point.dtype)).item()
            nflat[i] += sign * val
        nflat[i] /= 2.0 * step

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1.0)
    rel = np.abs(analytic - numeric) / denom
    worst = np.unravel_index(int(np.argmax(rel)), rel.shape)
    return GradCheckReport(
        max_rel_err=float(rel.max()),
        worst_index=worst,
        analytic=analytic,
        numeric=numeric,
    )
