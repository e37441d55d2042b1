"""Small frozen transformer classifier that learned prompts steer.

Pre-norm encoder: token embedding, a stack of attention + MLP blocks,
final norm, masked mean pooling over content rows, linear head.  Prompt
rows are prepended raw while token rows receive sinusoidal position
encodings inside forward, so a prompt of any length faces the same token
geometry.  Padding rows are excluded both as attention keys and from
pooling, which makes their contents unobservable from the logits.

Pretraining teaches the backbone a mixture of generator tasks, each cued
by a single steering row (the embedding of that task's reserved slot id).
Adaptation later swaps the steering row for a learned prompt, so the
frozen weights already know how to be steered by a prefix.
"""
from __future__ import annotations

import contextvars
import hashlib
import json
import os
import threading
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .checkpoint import CheckpointFormatError, read_fragment, write_fragment
from .optim import AdamW, ParamRef, TrainingError, warmup_decay_lr
from .tasks import N_TASK_SLOTS, PAD_ID, TASK_SLOT_BASE, Dataset, gen_task
from .tensor import Tensor

__all__ = [
    "ArchitectureError",
    "VocabError",
    "AssemblyError",
    "BackboneConfig",
    "AssembledInput",
    "BackboneModel",
    "PretrainConfig",
    "numerics_fingerprint",
    "pretrain_backbone",
    "sinusoidal_rows",
]


class ArchitectureError(ValueError):
    """Invalid model configuration or parameter set."""


class VocabError(ValueError):
    """Token id outside the configured vocabulary."""


class AssemblyError(ValueError):
    """Inputs that cannot be assembled into a forward pass."""


_DTYPES = {"f32": np.float32, "f64": np.float64}

# Additive attention bias for masked-out keys; large enough that exp()
# underflows to exactly 0.0 after the softmax max-shift in both dtypes.
_MASK_BIAS = -1e9

# A tape-free forward runs its blocks on one worker per CPU this process may
# use: the first is the calling thread, the rest come from a thread pool
# made at first use.
_WORKERS = (
    len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
)
# Fewest rows (B * s) a chunk must hold for the split to pay.  Median desk
# forward (d=64, 2 layers, f32, one BLAS thread, 2-vCPU host), B=64, wall
# ms of one chunk -> two: s=13 (416 rows a chunk) 12.3 -> 14.0, s=16 (512)
# 13.9 -> 12.8, s=28 (896) 20.2 -> 14.9, s=76 (2432) 51.2 -> 30.8.  Small
# chunks lose because the threads hand the GIL back and forth between
# short ops; at s=16 two threads spend about 30% more CPU time than one.
_SPLIT_MIN_ROWS = 512
# Most rows a tape-free chunk may hold, unless one example alone is longer.
# Each worker runs its chunks one after another, so at most _WORKERS chunks'
# activations are live at once.  Traced peak of one 64-example m=64 (s=76)
# forward on 2 workers: 13.1-15.2 MB as two chunks, 8.4-9.0 MB as four.
_CHUNK_MAX_ROWS = 2048
_pool = None  # (pid, executor) of the process that made it
_pool_lock = threading.Lock()


def _thread_pool():
    global _pool
    with _pool_lock:
        # A forked child inherits the pool object but none of its threads.
        if _pool is None or _pool[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor

            pool = ThreadPoolExecutor(_WORKERS - 1, thread_name_prefix="accept-blocks")
            _pool = (os.getpid(), pool)
        return _pool[1]


@dataclass(frozen=True)
class BackboneConfig:
    d: int = 64
    layers: int = 2
    heads: int = 4
    vocab_size: int = 128
    max_len: int = 32
    ffn_mult: int = 4
    num_classes: int = 2
    emb_std: float = 0.1
    pe_scale: float = 0.1
    dtype: str = "f32"

    def __post_init__(self):
        for field in ("d", "layers", "heads", "vocab_size", "max_len", "ffn_mult", "num_classes"):
            v = getattr(self, field)
            if not isinstance(v, int) or v < 1:
                raise ArchitectureError(f"{field} must be a positive int, got {v!r}")
        if self.d % self.heads != 0:
            raise ArchitectureError(f"d={self.d} is not divisible by heads={self.heads}")
        if self.vocab_size <= PAD_ID:
            raise ArchitectureError(f"vocab_size={self.vocab_size} leaves no room for padding")
        if self.dtype not in _DTYPES:
            raise ArchitectureError(f"dtype must be one of {sorted(_DTYPES)}, got {self.dtype!r}")

    @property
    def head_dim(self) -> int:
        return self.d // self.heads

    @property
    def ffn_dim(self) -> int:
        return self.d * self.ffn_mult

    @property
    def np_dtype(self):
        return _DTYPES[self.dtype]


def sinusoidal_rows(n: int, d: int, dtype=np.float64) -> np.ndarray:
    """Classic interleaved sin/cos position table, shape (n, d)."""
    if n < 1 or d < 1:
        raise ArchitectureError(f"position table needs n,d >= 1, got ({n}, {d})")
    pos = np.arange(n, dtype=np.float64)[:, None]
    idx = np.arange(d, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * np.floor(idx / 2.0) / d)
    table = np.where(idx % 2 == 0, np.sin(angle), np.cos(angle))
    return table.astype(dtype)


def _param_specs(cfg: BackboneConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """(name, shape, init kind) for every parameter, in a fixed order."""
    d, f, c = cfg.d, cfg.ffn_dim, cfg.num_classes
    specs: list[tuple[str, tuple[int, ...], str]] = [("emb", (cfg.vocab_size, d), "emb")]
    for i in range(cfg.layers):
        p = f"layer{i}"
        specs += [
            (f"{p}.ln1.g", (d,), "ones"),
            (f"{p}.ln1.b", (d,), "zeros"),
            (f"{p}.attn.wq", (d, d), "proj"),
            (f"{p}.attn.bq", (d,), "zeros"),
            (f"{p}.attn.wk", (d, d), "proj"),
            (f"{p}.attn.wv", (d, d), "proj"),
            (f"{p}.attn.bv", (d,), "zeros"),
            (f"{p}.attn.wo", (d, d), "proj"),
            (f"{p}.attn.bo", (d,), "zeros"),
            (f"{p}.ln2.g", (d,), "ones"),
            (f"{p}.ln2.b", (d,), "zeros"),
            (f"{p}.ffn.w1", (d, f), "proj"),
            (f"{p}.ffn.b1", (f,), "zeros"),
            (f"{p}.ffn.w2", (f, d), "proj"),
            (f"{p}.ffn.b2", (d,), "zeros"),
        ]
    specs += [
        ("lnf.g", (d,), "ones"),
        ("lnf.b", (d,), "zeros"),
        ("head.w", (d, c), "proj"),
        ("head.b", (c,), "zeros"),
    ]
    return specs


@dataclass
class AssembledInput:
    """Forward-ready sequence: prompt rows, then (possibly shifted) tokens.

    values is (B, s, d); the (B, s) mask marks attendable rows (prompt
    rows and real tokens, not padding) and the first prompt_len rows are
    always prompt rows.
    """

    values: Tensor
    mask: np.ndarray
    prompt_len: int


class BackboneModel:
    def __init__(self, config: BackboneConfig, params: dict[str, Tensor]):
        specs = _param_specs(config)
        expected = {name: shape for name, shape, _ in specs}
        if set(params) != set(expected):
            missing = sorted(set(expected) - set(params))
            extra = sorted(set(params) - set(expected))
            raise ArchitectureError(f"parameter set mismatch: missing {missing}, extra {extra}")
        for name, t in params.items():
            if t.shape != expected[name]:
                raise ArchitectureError(
                    f"parameter {name!r} has shape {t.shape}, expected {expected[name]}"
                )
            if t.dtype != config.np_dtype:
                raise ArchitectureError(
                    f"parameter {name!r} has dtype {t.dtype}, config wants {config.dtype}"
                )
        self.config = config
        self.params = dict(params)
        self._pe = sinusoidal_rows(config.max_len, config.d, config.np_dtype) * config.np_dtype(
            config.pe_scale
        )

    @classmethod
    def random_init(cls, config: BackboneConfig, seed: int) -> "BackboneModel":
        rng = np.random.default_rng(seed)
        dt = config.np_dtype
        params: dict[str, Tensor] = {}
        for name, shape, kind in _param_specs(config):
            if kind == "emb":
                arr = rng.normal(0.0, config.emb_std, size=shape)
            elif kind == "proj":
                arr = rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape)
            elif kind == "ones":
                arr = np.ones(shape)
            else:
                arr = np.zeros(shape)
            params[name] = Tensor(arr.astype(dt), trainable=True, name=name)
        return cls(config, params)

    # -- parameter plumbing ------------------------------------------------

    def freeze(self) -> None:
        """Make every parameter non-trainable."""
        for name, t in self.params.items():
            if t.trainable:
                self.params[name] = Tensor(t.data, trainable=False, name=name, dtype=t.dtype)

    @property
    def frozen(self) -> bool:
        return not any(t.trainable for t in self.params.values())

    def trainable_params(self) -> list[tuple[str, Tensor]]:
        return [(n, t) for n, t in sorted(self.params.items()) if t.trainable]

    def param_refs(self) -> list[ParamRef]:
        refs = []
        for name, _ in self.trainable_params():
            def getter(n=name):
                return self.params[n]

            def setter(t, n=name):
                self.params[n] = t

            refs.append(ParamRef(getter, setter, "backbone"))
        return refs

    def hash_params(self) -> str:
        """Order-independent digest of every parameter's exact bytes."""
        h = hashlib.sha256()
        for name in sorted(self.params):
            t = self.params[name]
            h.update(name.encode("utf-8"))
            h.update(repr(t.shape).encode("ascii"))
            h.update(t.data.tobytes())
        return h.hexdigest()

    # -- input pipeline ----------------------------------------------------

    def _check_ids(self, tokens) -> list[int]:
        out = []
        v = self.config.vocab_size
        for t in tokens:
            t = int(t)
            if t < 0 or t >= v:
                raise VocabError(f"token id {t} outside vocabulary of size {v}")
            out.append(t)
        return out

    def embed_batch(self, token_seqs) -> tuple[Tensor, np.ndarray]:
        """Batch of examples -> ((B, L, d) rows, (B, L) mask).

        Each example is cut at max_len, and the batch is padded to its
        longest example: L = max(1, longest length).  So an example's
        padded width depends on its batch-mates; the batch fixes it, so
        it stays deterministic, and padding rows never reach real rows.
        """
        rows = [self._check_ids(seq)[: self.config.max_len] for seq in token_seqs]
        if not rows:
            raise AssemblyError("embed_batch needs at least one sequence")
        l = max(1, max(len(row) for row in rows))
        ids = np.full((len(rows), l), PAD_ID, dtype=np.int64)
        mask = np.zeros((len(rows), l), dtype=bool)
        for b, row in enumerate(rows):
            ids[b, : len(row)] = row
            mask[b, : len(row)] = True
        return T.gather_rows(self.params["emb"], ids), mask

    def assemble_input(
        self,
        e: Tensor,
        mask: np.ndarray,
        prompt: Tensor | None = None,
        added: Tensor | None = None,
    ) -> AssembledInput:
        """Combine (B, L, d) token rows with optional prepended/added prompts.

        added is the full token grid (max_len, d); its first L rows are
        summed onto every example's token rows, L being the batch's padded
        width from embed_batch.  prompt is (m, d) and is prepended
        (replicated across the batch), extending the mask with m
        attendable rows.
        """
        cfg = self.config
        if e.ndim != 3 or e.shape[-1] != cfg.d or e.shape[1] > cfg.max_len:
            raise AssemblyError(
                f"token rows must be (B, L <= {cfg.max_len}, {cfg.d}), got {e.shape}"
            )
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != e.shape[:-1]:
            raise AssemblyError(f"mask shape {mask.shape} does not match rows {e.shape}")
        vals = e
        if added is not None:
            if added.shape != (cfg.max_len, cfg.d):
                raise AssemblyError(
                    f"added prompt must be shape {(cfg.max_len, cfg.d)}, got {added.shape}"
                )
            vals = T.add(vals, T.slice_rows(added, 0, e.shape[1]))
        m = 0
        if prompt is not None:
            if prompt.ndim != 2 or prompt.shape[1] != self.config.d:
                raise AssemblyError(
                    f"prepended prompt must be (m, {self.config.d}), got {prompt.shape}"
                )
            m = prompt.shape[0]
            vals = T.concat_rows(T.expand_leading(prompt, vals.shape[0]), vals)
            mask = np.concatenate([np.ones((mask.shape[0], m), dtype=bool), mask], axis=1)
        return AssembledInput(values=vals, mask=mask, prompt_len=m)

    # -- forward -----------------------------------------------------------

    def position_grid(self, s: int, prompt_len: int) -> np.ndarray:
        """Additive position rows for a length-s sequence.

        Prompt rows stay raw (zeros); token rows get the sinusoidal table
        starting at position 0, so tokens keep the same geometry no matter
        how long the prompt in front of them is.
        """
        if not 0 <= prompt_len <= s:
            raise AssemblyError(f"prompt_len {prompt_len} outside sequence of length {s}")
        n_tok = s - prompt_len
        if n_tok > self.config.max_len:
            raise AssemblyError(f"{n_tok} token rows exceed max_len {self.config.max_len}")
        grid = np.zeros((s, self.config.d), dtype=self.config.np_dtype)
        grid[prompt_len:] = self._pe[:n_tok]
        return grid

    def logits(
        self, token_seqs, prompt: Tensor | None = None, added: Tensor | None = None
    ) -> Tensor:
        """(B, num_classes) logits of token sequences under optional prompts."""
        e, mask = self.embed_batch(token_seqs)
        return self.forward(self.assemble_input(e, mask, prompt=prompt, added=added))

    def forward(self, assembled: AssembledInput) -> Tensor:
        """(B, num_classes) logits for an assembled input.

        Pooling reads only token rows, so the last block computes keys and
        values over every row but queries, the MLP and the final norm only
        over the token rows.  Earlier blocks run on all rows: prompt rows
        are keys for the layers above them.  A non-finite value that would
        appear only in the last block's prompt rows therefore no longer
        raises, since those rows are never computed.  An example with no
        real token rows fails before any block runs.

        A forward that builds no graph (no input row and no parameter
        needs a gradient) runs its blocks on contiguous chunks of the batch
        of at most ``_CHUNK_MAX_ROWS`` rows (B * s) each, unless one
        example alone is longer.  Once a chunk would hold at least
        ``_SPLIT_MIN_ROWS`` rows it uses one worker per CPU the process may
        use: the calling thread and pool threads.  The chunk count is then
        a multiple of the worker count, short of it only when the batch has
        fewer examples, and worker w runs chunks w, w + W, ... in turn, so
        no more than W chunks are live at once.  Every block op is per
        example and each chunk keeps the batch's padded width, so the
        logits are the same bits at any chunk count.  A NonFiniteError in
        any chunk re-runs the whole batch's blocks, so it names the same
        layer and op as the serial pass.  In such a forward each block
        drops every intermediate at its last read, so numpy frees it there
        rather than at the block's end.
        """
        cfg = self.config
        vals = assembled.values
        mask = np.asarray(assembled.mask, dtype=bool)
        if vals.ndim != 3 or vals.shape[-1] != cfg.d:
            raise AssemblyError(f"values must be (B, s, {cfg.d}), got {vals.shape}")
        bsz, s, _ = vals.shape
        if mask.shape != (bsz, s):
            raise AssemblyError(f"mask shape {mask.shape} does not match values {vals.shape}")
        m = int(assembled.prompt_len)
        grid = self.position_grid(s, m)
        pool_mask = mask[:, m:]
        if (pool_mask.sum(axis=1) == 0).any():
            raise AssemblyError("an example has no real token rows to pool")
        x = T.add(vals, Tensor(grid, dtype=cfg.np_dtype))

        # Additive key mask, (B, 1, 1, s), broadcast over heads and queries.
        bias = np.where(mask, 0.0, _MASK_BIAS).astype(cfg.np_dtype)[:, None, None, :]

        if x.needs_grad or not self.frozen:
            x = self._blocks(x, bias, m)
        else:
            x = self._split_blocks(x, bias, m)
        x = T.layer_norm(x, self.params["lnf.g"], self.params["lnf.b"])
        pooled = T.masked_mean_rows(x, pool_mask)
        return T.matmul(pooled, self.params["head.w"], self.params["head.b"])

    def _blocks(self, x: Tensor, bias: np.ndarray, m: int) -> Tensor:
        """Every block over (B, s, d) rows; the last returns rows m..s-1 only."""
        last = self.config.layers - 1
        for i in range(self.config.layers):
            try:
                x = T.checked_block(self._block, x, i, bias, m if i == last else 0)
            except T.NonFiniteError as err:
                raise T.NonFiniteError(f"layer {i}: {err}") from None
        return x

    def _split_blocks(self, x: Tensor, bias: np.ndarray, m: int) -> Tensor:
        """_blocks of a graph-free x, chunk by chunk on each worker; see forward."""
        bsz, s, _ = x.shape
        workers = max(1, min(_WORKERS, bsz, bsz * s // _SPLIT_MIN_ROWS))
        rounds = -(-bsz // (max(1, _CHUNK_MAX_ROWS // s) * workers))
        chunks = min(bsz, workers * rounds)
        if chunks == 1:
            return self._blocks(x, bias, m)
        bounds = [bsz * j // chunks for j in range(chunks + 1)]
        parts = [
            (T.make_op(x.data[a:b], (), None, "rows"), bias[a:b])
            for a, b in zip(bounds, bounds[1:])
        ]

        def run(w: int) -> list[Tensor]:
            return [self._blocks(xs, bs, m) for xs, bs in parts[w::workers]]

        pool = _thread_pool() if workers > 1 else None
        # Each worker runs in a copy of this context, so np.errstate holds there too.
        futures = [pool.submit(contextvars.copy_context().run, run, w) for w in range(1, workers)]
        outs: list = [None] * chunks
        try:
            outs[0::workers] = run(0)
            for w, f in enumerate(futures, start=1):
                outs[w::workers] = f.result()
        except T.NonFiniteError:
            # Another chunk may fail at an earlier op; the whole batch names it.
            for f in futures:
                f.exception()
            self._blocks(x, bias, m)
            raise
        return T.make_op(np.concatenate([o.data for o in outs]), (), None, "rows")

    def _block(self, x: Tensor, i: int, bias: np.ndarray, first_query: int) -> Tensor:
        """One block over (B, s, d) rows; returns rows first_query..s-1 only."""
        cfg = self.config
        p = self.params
        s = x.shape[1]
        pre = T.layer_norm(x, p[f"layer{i}.ln1.g"], p[f"layer{i}.ln1.b"])
        rows = pre
        if first_query:
            rows = T.slice_rows(pre, first_query, s)
            x = T.slice_rows(x, first_query, s)
        q = T.matmul(rows, p[f"layer{i}.attn.wq"], p[f"layer{i}.attn.bq"])
        # No key bias: softmax cancels a constant added to all of a query's scores.
        k = T.matmul(pre, p[f"layer{i}.attn.wk"])
        v = T.matmul(pre, p[f"layer{i}.attn.wv"], p[f"layer{i}.attn.bv"])
        # Each del or rebinding below drops a name at its last read.  In a
        # forward that builds no graph nothing else holds that array, so
        # numpy frees it there; a graph-building forward's backward closures
        # keep it either way.
        del rows, pre
        ctx = T.attention(q, k, v, cfg.heads, bias, 1.0 / np.sqrt(cfg.head_dim))
        del q, k, v
        x = T.add(x, T.matmul(ctx, p[f"layer{i}.attn.wo"], p[f"layer{i}.attn.bo"]))
        del ctx

        h = T.layer_norm(x, p[f"layer{i}.ln2.g"], p[f"layer{i}.ln2.b"])
        h = T.linear_gelu(h, p[f"layer{i}.ffn.w1"], p[f"layer{i}.ffn.b1"])
        return T.add(x, T.matmul(h, p[f"layer{i}.ffn.w2"], p[f"layer{i}.ffn.b2"]))

    # -- persistence ---------------------------------------------------------

    def save(self, dirpath) -> None:
        """Write arch.json plus one f32 fragment per parameter."""
        d = Path(dirpath)
        d.mkdir(parents=True, exist_ok=True)
        if self.config.dtype != "f32":
            raise CheckpointFormatError("checkpoint format stores f32 models only")
        arch = asdict(self.config)
        (d / "arch.json").write_text(json.dumps(arch, sort_keys=True, indent=2) + "\n")
        for name, t in sorted(self.params.items()):
            manifest = {"kind": "tensor", "name": name, "shape": list(t.shape)}
            write_fragment(d, name, manifest, t.data)

    @classmethod
    def load(cls, dirpath) -> "BackboneModel":
        """Read a directory written by save, frozen; refuse a fragment no parameter names."""
        d = Path(dirpath)
        apath = d / "arch.json"
        if not apath.exists():
            raise CheckpointFormatError(f"no arch.json under {d}")
        config = BackboneConfig(**json.loads(apath.read_text(encoding="utf-8")))
        specs = _param_specs(config)
        extra = sorted({f.stem for f in d.glob("*.bin")} - {name for name, _, _ in specs})
        if extra:
            raise ArchitectureError(f"{d} holds fragments this architecture lacks: {extra}")
        params = {}
        for name, shape, _ in specs:
            _, arr = read_fragment(d, name, shape)
            params[name] = Tensor(arr, trainable=False, name=name, dtype=config.np_dtype)
        return cls(config, params)


def numerics_fingerprint() -> str:
    """sha256 of fixed forward passes, an adaptation step and a short pretraining run.

    Any change to the bits the forward computes changes this digest.  The
    batches are full-length, short and mixed-length, so a change to how
    wide a batch is padded changes it too.  The mixed batch also runs
    under a 4-row prepended prompt and an added grid, and the digest takes
    that batch's logits and both prompts' gradients through the frozen
    model: the adaptation path.  The pretraining run has the desk shapes
    (the default config on the desk sources) and goes past its warmup, so
    a change to how the backward pass, the optimizer or the schedule
    round at desk size changes it as well.
    """
    config = BackboneConfig()
    model = BackboneModel.random_init(config, seed=0)
    model.freeze()
    rng = np.random.default_rng(0)
    tokens = rng.integers(1, config.vocab_size, size=(8, config.max_len)).tolist()
    short = [row[:7] for row in tokens]
    mixed = [row[: 1 + 3 * i] for i, row in enumerate(tokens)]
    h = hashlib.sha256()
    for batch in (tokens, short, mixed):
        h.update(model.logits(batch).data.tobytes())
    dt = config.np_dtype
    prompt = Tensor(rng.normal(0.0, 0.1, size=(4, config.d)), trainable=True, dtype=dt)
    added = Tensor(rng.normal(0.0, 0.1, size=(config.max_len, config.d)), trainable=True, dtype=dt)
    logits = model.logits(mixed, prompt=prompt, added=added)
    grads = T.backward(T.softmax_cross_entropy(logits, np.arange(len(mixed)) % 2))
    for arr in (logits.data, grads[prompt], grads[added]):
        h.update(arr.tobytes())
    sources = [
        gen_task("majority", n=64, length=12, vocab_size=config.vocab_size, seed=0),
        gen_task("pair-match", n=64, length=7, vocab_size=16, seed=0),
    ]
    pre = PretrainConfig(steps=3, batch_size=8, warmup=1, eval_examples=8)
    h.update(pretrain_backbone(config, sources, pre)[0].hash_params().encode("ascii"))
    return h.hexdigest()


# -- pretraining -------------------------------------------------------------


@dataclass(frozen=True)
class PretrainConfig:
    steps: int = 1200
    batch_size: int = 32
    lr: float = 2e-3
    warmup: int = 100
    weight_decay: float = 0.01
    seed: int = 0
    eval_examples: int = 256

    def __post_init__(self):
        if self.steps < 1 or self.batch_size < 1:
            raise ArchitectureError("pretraining needs steps >= 1 and batch_size >= 1")


def _slot_prompt(model: BackboneModel, task_index: int) -> Tensor:
    """The single steering row for one source task: emb[slot id], (1, d)."""
    slot = TASK_SLOT_BASE + task_index
    return T.gather_rows(model.params["emb"], np.array([slot], dtype=np.int64))


def _slot_accuracy(model: BackboneModel, ds: Dataset, task_index: int, limit: int) -> float:
    n = min(limit, len(ds))
    hits = 0
    for start in range(0, n, 64):
        chunk = ds.examples[start : min(start + 64, n)]
        logits = model.logits([ex.tokens for ex in chunk], prompt=_slot_prompt(model, task_index))
        preds = np.argmax(logits.data, axis=-1)
        hits += int(sum(int(p) == ex.label for p, ex in zip(preds, chunk)))
    return hits / n


def pretrain_backbone(
    config: BackboneConfig,
    datasets: list[Dataset],
    pre: PretrainConfig | None = None,
) -> tuple[BackboneModel, dict[str, float]]:
    """Train a fresh backbone on a task mixture, then freeze it.

    Each source task is cued by its own steering row so the network learns
    to read instructions from a prefix.  The learning rate warms up
    linearly, then decays linearly towards 0 by the last step, so the
    frozen weights are a settled iterate, not a full-rate snapshot.  A
    step's autodiff graph is freed at its optimizer step, before the next
    forward or the report.  Returns the frozen model and a per-task
    accuracy report measured after freezing.
    """
    pre = pre or PretrainConfig()
    if not 1 <= len(datasets) <= N_TASK_SLOTS:
        raise ArchitectureError(
            f"need between 1 and {N_TASK_SLOTS} source tasks, got {len(datasets)}"
        )
    kinds = [ds.kind for ds in datasets]
    if len(set(kinds)) != len(kinds):
        raise ArchitectureError(f"duplicate source task kinds: {kinds}")
    for ds in datasets:
        if ds.num_classes != config.num_classes:
            raise ArchitectureError(
                f"source task {ds.kind!r} has {ds.num_classes} classes, "
                f"backbone head has {config.num_classes}"
            )

    model = BackboneModel.random_init(config, pre.seed)
    opt = AdamW(model.param_refs(), weight_decay=pre.weight_decay)
    rng = np.random.default_rng((pre.seed, len(datasets)))
    for step in range(1, pre.steps + 1):
        task_index = (step - 1) % len(datasets)
        ds = datasets[task_index]
        idx = rng.integers(0, len(ds), size=pre.batch_size)
        batch = [ds.examples[int(j)] for j in idx]
        try:
            logits = model.logits(
                [ex.tokens for ex in batch], prompt=_slot_prompt(model, task_index)
            )
            labels = np.array([ex.label for ex in batch], dtype=np.int64)
            loss = T.softmax_cross_entropy(logits, labels)
            grads = T.backward(loss)
        except T.NonFiniteError as err:
            raise TrainingError(f"pretraining diverged at step {step}: {err}") from None
        opt.step(grads, {"backbone": warmup_decay_lr(pre.lr, step, pre.warmup, pre.steps)})
        # The logits and loss hold this step's whole graph: drop it here, so
        # neither the next forward nor the slot report runs beside it.
        del logits, loss, grads

    model.freeze()
    report = {
        ds.kind: _slot_accuracy(model, ds, i, pre.eval_examples)
        for i, ds in enumerate(datasets)
    }
    return model, report
