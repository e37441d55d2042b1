"""Adaptation loop: optimize prompt factors against a frozen backbone.

A PromptSet carries up to two components: rows prepended before the token
embeddings and rows added onto the embedding grid.  Each component is
either factorized (codebook plus combination weights) or a direct matrix
of free vectors; the direct form exists so plain prompt tuning can run
through the identical loop for comparisons.

The optimizer touches prompt parameters only.  Backbone tensors are
read-only throughout, which the tests pin down by hashing.
"""
from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import tensor as T
from .backbone import BackboneModel
from .checkpoint import load_prompts, save_prompts
from .factorization import Codebook, InitError, PromptDims, WeightSet, compose, init_random
from .metrics import METRIC_NAMES, metric as compute_metric
from .optim import AdamW, ParamRef, TrainingError, warmup_lr
from .tasks import Dataset
from .tensor import Tensor

__all__ = [
    "ContractError",
    "RunConfig",
    "InitStrategy",
    "EvalRecord",
    "BestRecord",
    "RunHistory",
    "FactorizedPrompt",
    "DirectPrompt",
    "PromptSet",
    "train",
    "evaluate",
    "apply_init",
    "save_checkpoint",
    "load_checkpoint",
]


class ContractError(ValueError):
    """Inputs violate a precondition of the training loop."""


@dataclass(frozen=True)
class RunConfig:
    steps: int = 2000
    batch_size: int = 16
    warmup_steps: int = 120
    weight_decay: float = 0.01
    eval_interval: int = 100
    lr_scpp: float = 0.4
    lr_scap: float = 1e-3
    seed: int = 0
    metric: str = "accuracy"
    # Optional early stop: halt at the first evaluation reaching this value.
    stop_at_metric: float | None = None

    def __post_init__(self):
        if self.steps < 0 or self.batch_size < 1:
            raise ContractError(f"steps={self.steps}, batch_size={self.batch_size} invalid")
        if self.eval_interval < 1:
            raise ContractError(f"eval_interval must be >= 1, got {self.eval_interval}")
        if self.steps > 0 and self.steps < self.eval_interval:
            raise ContractError(
                f"steps={self.steps} smaller than eval_interval={self.eval_interval}"
            )
        if self.steps > 0 and not 0 <= self.warmup_steps <= self.steps:
            raise ContractError(
                f"warmup_steps={self.warmup_steps} outside [0, steps={self.steps}]"
            )
        if self.metric not in METRIC_NAMES:
            raise ContractError(f"metric must be one of {METRIC_NAMES}, got {self.metric!r}")


@dataclass(frozen=True)
class InitStrategy:
    kind: str = "random"
    path: str | None = None

    def __post_init__(self):
        kinds = ("random", "intermediate_task", "target_task")
        if self.kind not in kinds:
            raise ContractError(f"init kind must be one of {kinds}, got {self.kind!r}")
        if self.kind != "random" and not self.path:
            raise ContractError(f"init kind {self.kind!r} requires a checkpoint path")


@dataclass(frozen=True)
class EvalRecord:
    step: int
    train_loss: float
    eval_metric: float


@dataclass(frozen=True)
class BestRecord:
    step: int
    metric: float
    checkpoint_id: str


@dataclass
class RunHistory:
    records: list[EvalRecord] = field(default_factory=list)
    best: BestRecord | None = None
    # Loss at every optimization step, for trajectory-level comparisons.
    step_losses: list[float] = field(default_factory=list)
    # PromptSet.snapshot() taken at the best evaluation.
    best_snapshot: tuple[Tensor, ...] | None = None


# -- prompt containers ---------------------------------------------------------


class FactorizedPrompt:
    """One prompt component as codebook entries mixed by weights."""

    def __init__(self, codebook: Codebook, weights: WeightSet):
        if codebook.K != weights.K or codebook.r != weights.r:
            raise ContractError(
                f"codebook (K={codebook.K}, r={codebook.r}) does not match "
                f"weights (K={weights.K}, r={weights.r})"
            )
        self.codebook = codebook
        self.weights = weights

    @property
    def positions(self) -> int:
        return self.weights.positions

    @property
    def d(self) -> int:
        return self.codebook.d

    def rows(self) -> Tensor:
        return compose(self.codebook, self.weights)

    def param_refs(self, lr_key: str) -> list[ParamRef]:
        return [
            ParamRef(partial(getattr, f, "entries"), partial(setattr, f, "entries"), lr_key)
            for f in (self.codebook, self.weights)
            if f.entries.trainable
        ]


class DirectPrompt:
    """One prompt component as a plain free matrix (vanilla prompt tuning)."""

    def __init__(self, matrix: Tensor):
        if matrix.ndim != 2:
            raise ContractError(f"direct prompt must be a (positions, d) matrix, got {matrix.shape}")
        self.matrix = matrix

    @property
    def positions(self) -> int:
        return self.matrix.shape[0]

    @property
    def d(self) -> int:
        return self.matrix.shape[1]

    def rows(self) -> Tensor:
        return self.matrix

    def param_refs(self, lr_key: str) -> list[ParamRef]:
        if not self.matrix.trainable:
            return []
        return [ParamRef(partial(getattr, self, "matrix"), partial(setattr, self, "matrix"), lr_key)]


@dataclass
class PromptSet:
    """The trainable prompt state: prepended rows and/or added rows."""

    prepended: FactorizedPrompt | DirectPrompt | None = None
    added: FactorizedPrompt | DirectPrompt | None = None

    def __post_init__(self):
        if self.prepended is None and self.added is None:
            raise ContractError("prompt set needs at least one component")

    def components(self):
        out = []
        if self.prepended is not None:
            out.append(("scpp", self.prepended))
        if self.added is not None:
            out.append(("scap", self.added))
        return out

    def rows(self) -> tuple[Tensor | None, Tensor | None]:
        """(prepended rows, added rows), None for an absent component."""
        return tuple(None if c is None else c.rows() for c in (self.prepended, self.added))

    def param_refs(self) -> list[ParamRef]:
        refs = []
        for key, comp in self.components():
            refs.extend(comp.param_refs(key))
        return refs

    def trainable_count(self) -> int:
        return sum(ref.get().size for ref in self.param_refs())

    def snapshot(self) -> tuple[Tensor, ...]:
        """The trainable leaves themselves.

        Tensors are immutable and an optimizer step stores new leaves, so
        holding the current ones is a copy.  Frozen leaves never change, so
        a snapshot leaves them out.
        """
        return tuple(ref.get() for ref in self.param_refs())

    def load_snapshot(self, snap: tuple[Tensor, ...]) -> None:
        for ref, leaf in zip(self.param_refs(), snap, strict=True):
            ref.set(leaf)


# -- forward plumbing ----------------------------------------------------------


def _check_dims(
    model: BackboneModel, prompts: PromptSet, metric_name: str, *datasets: Dataset
) -> None:
    """Prompts and datasets must fit the model's width, grid, dtype, head and
    vocab, and the metric must fit the datasets' labels."""
    cfg = model.config
    for key, comp in prompts.components():
        if comp.d != cfg.d:
            raise ContractError(f"{key} prompt is {comp.d}-dimensional, model wants {cfg.d}")
        if isinstance(comp, DirectPrompt):
            leaves = (comp.matrix,)
        else:
            leaves = (comp.codebook.entries, comp.weights.entries)
        if any(leaf.dtype != cfg.np_dtype for leaf in leaves):
            raise ContractError(f"{key} prompt dtype differs from model dtype {cfg.dtype}")
    if prompts.added is not None and prompts.added.positions != cfg.max_len:
        raise ContractError(
            f"added prompt covers {prompts.added.positions} positions, "
            f"model grid is {cfg.max_len}"
        )
    for ds in datasets:
        if ds.num_classes != cfg.num_classes:
            raise ContractError(
                f"{ds.split} set has {ds.num_classes} classes, model head has {cfg.num_classes}"
            )
        if ds.vocab_size > cfg.vocab_size:
            raise ContractError(
                f"{ds.split} set declares vocab_size {ds.vocab_size}, model has {cfg.vocab_size}"
            )
        if ds.num_classes == 1 and metric_name != "pearson":
            raise ContractError(
                f"{ds.split} set is a regression task; metric {metric_name!r} "
                f"needs class labels (use 'pearson')"
            )
        if metric_name in ("f1_binary", "matthews") and ds.num_classes != 2:
            raise ContractError(
                f"metric {metric_name!r} needs 2 classes, {ds.split} set has {ds.num_classes}"
            )


def _batch_loss(model: BackboneModel, prompts: PromptSet, examples, num_classes: int) -> Tensor:
    logits = model.logits([ex.tokens for ex in examples], *prompts.rows())
    if num_classes == 1:
        targets = np.array([ex.label for ex in examples], dtype=logits.dtype)
        return T.mean_squared_error(logits, targets)
    labels = np.array([ex.label for ex in examples], dtype=np.int64)
    return T.softmax_cross_entropy(logits, labels)


def evaluate(
    model: BackboneModel,
    prompts: PromptSet,
    dataset: Dataset,
    metric_name: str = "accuracy",
    batch_size: int = 64,
) -> float:
    """Metric of the current prompts over a whole dataset, deterministically.

    Builds no autodiff graph: the prompt rows enter the frozen model as
    constant leaves, so each batch's intermediates are freed as it runs.
    """
    _check_dims(model, prompts, metric_name, dataset)
    rows = [None if r is None else Tensor(r.data, dtype=r.dtype) for r in prompts.rows()]
    preds = []
    for start in range(0, len(dataset), batch_size):
        chunk = dataset.examples[start : start + batch_size]
        logits = model.logits([ex.tokens for ex in chunk], *rows)
        if dataset.num_classes == 1:
            preds.extend(np.asarray(logits.data).reshape(-1).tolist())
        else:
            preds.extend(np.argmax(logits.data, axis=-1).tolist())
    return compute_metric(metric_name, preds, list(dataset.labels()))


# -- the loop -------------------------------------------------------------------


def train(
    config: RunConfig,
    model: BackboneModel,
    prompts: PromptSet,
    train_set: Dataset,
    eval_set: Dataset,
) -> tuple[PromptSet, RunHistory]:
    """Adapt prompt parameters on a frozen model.

    Evaluates every eval_interval steps, recording the mean train loss
    since the previous evaluation; retains the first-seen best snapshot.
    Deterministic for a fixed config and seed.
    """
    if not model.frozen:
        raise ContractError("model must be frozen before adaptation")
    _check_dims(model, prompts, config.metric, train_set, eval_set)
    history = RunHistory()
    if config.steps == 0:
        return prompts, history

    refs = prompts.param_refs()
    if not refs:
        raise ContractError("nothing to train: every prompt tensor is frozen")
    opt = AdamW(refs, weight_decay=config.weight_decay)
    rng = np.random.default_rng((config.seed,))
    window: list[float] = []
    for step in range(1, config.steps + 1):
        idx = rng.integers(0, len(train_set), size=config.batch_size)
        batch = [train_set.examples[int(j)] for j in idx]
        try:
            loss = _batch_loss(model, prompts, batch, train_set.num_classes)
            grads = T.backward(loss)
        except T.NonFiniteError as err:
            raise TrainingError(f"loss diverged at step {step}: {err}") from None
        lr_now = {
            "scpp": warmup_lr(config.lr_scpp, step, config.warmup_steps),
            "scap": warmup_lr(config.lr_scap, step, config.warmup_steps),
        }
        opt.step(grads, lr_now)
        value = float(loss.data)
        history.step_losses.append(value)
        window.append(value)
        if step % config.eval_interval == 0:
            score = evaluate(model, prompts, eval_set, config.metric)
            record = EvalRecord(
                step=step,
                train_loss=float(np.mean(window)),
                eval_metric=float(score),
            )
            history.records.append(record)
            window = []
            if history.best is None or score > history.best.metric:
                history.best = BestRecord(
                    step=step, metric=float(score), checkpoint_id=f"step{step:06d}"
                )
                history.best_snapshot = prompts.snapshot()
            if config.stop_at_metric is not None and score >= config.stop_at_metric:
                break
    return prompts, history


# -- initialization ----------------------------------------------------------------


def apply_init(
    strategy: InitStrategy,
    dims_scpp: PromptDims | None,
    dims_scap: PromptDims | None,
    seed: int,
    dtype=np.float32,
) -> PromptSet:
    """Build the initial PromptSet for a run.

    random draws fresh factors; the checkpoint-backed kinds load previously
    trained factors and require exactly matching dimensions.
    """
    if dims_scpp is None and dims_scap is None:
        raise ContractError("at least one prompt component must be configured")
    if strategy.kind == "random":
        prepended = added = None
        if dims_scpp is not None:
            c, w = init_random(dims_scpp, seed=(seed, 0), dtype=dtype)
            prepended = FactorizedPrompt(c, w)
        if dims_scap is not None:
            c, w = init_random(dims_scap, seed=(seed, 1), dtype=dtype)
            added = FactorizedPrompt(c, w)
        return PromptSet(prepended=prepended, added=added)

    loaded = load_prompts(strategy.path, trainable=True)

    def pick(label: str, dims: PromptDims | None):
        if dims is None:
            return None
        pair = loaded.get(label)
        if pair is None:
            raise InitError(f"checkpoint {strategy.path} has no {label} component")
        comp = FactorizedPrompt(*pair)
        got = PromptDims(positions=comp.positions, d=comp.d, K=comp.codebook.K, r=comp.codebook.r)
        if got != dims:
            raise InitError(f"{label} checkpoint dims {got} do not match configured {dims}")
        return comp

    return PromptSet(prepended=pick("scpp", dims_scpp), added=pick("scap", dims_scap))


# -- persistence --------------------------------------------------------------------


def save_checkpoint(dirpath, prompts: PromptSet, history: RunHistory | None = None) -> None:
    """Write factorized prompt components (and optionally the history)."""
    for key, comp in prompts.components():
        if not isinstance(comp, FactorizedPrompt):
            raise ContractError(f"only factorized prompts persist; {key} is direct")
    pairs = {key: (comp.codebook, comp.weights) for key, comp in prompts.components()}
    save_prompts(dirpath, scpp=pairs.get("scpp"), scap=pairs.get("scap"))
    if history is not None:
        payload = {
            "records": [dataclasses.asdict(r) for r in history.records],
            "best": dataclasses.asdict(history.best) if history.best else None,
        }
        Path(dirpath, "history.json").write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )


def load_checkpoint(dirpath, trainable: bool = True) -> tuple[PromptSet, RunHistory | None]:
    """Read prompts (and history, when present) written by save_checkpoint."""
    loaded = load_prompts(dirpath, trainable=trainable)
    prepended = FactorizedPrompt(*loaded["scpp"]) if loaded.get("scpp") else None
    added = FactorizedPrompt(*loaded["scap"]) if loaded.get("scap") else None
    prompts = PromptSet(prepended=prepended, added=added)
    history = None
    hpath = Path(dirpath, "history.json")
    if hpath.exists():
        payload = json.loads(hpath.read_text(encoding="utf-8"))
        history = RunHistory(
            records=[EvalRecord(**r) for r in payload["records"]],
            best=BestRecord(**payload["best"]) if payload["best"] else None,
        )
    return prompts, history
