"""Synthetic task generators, JSONL loading, and few-shot subsampling.

Every generator produces token sequences whose label can be recomputed by
brute force from the tokens alone, so tests never need to trust the
generator.  Token id conventions shared with the backbone:

    0           padding
    1           segment separator
    2..5        reserved steering slots (used by backbone pretraining)
    6..vocab-1  content alphabet
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "PAD_ID",
    "SEP_ID",
    "TASK_SLOT_BASE",
    "N_TASK_SLOTS",
    "CONTENT_START",
    "TaskConfigError",
    "DatasetError",
    "SamplingError",
    "Example",
    "Dataset",
    "TASK_KINDS",
    "gen_task",
    "load_jsonl",
    "fewshot_sample",
]

PAD_ID = 0
SEP_ID = 1
TASK_SLOT_BASE = 2
N_TASK_SLOTS = 4
CONTENT_START = TASK_SLOT_BASE + N_TASK_SLOTS

TASK_KINDS = ("parity", "majority", "pair-match", "count-regression")


class TaskConfigError(ValueError):
    """Impossible generator configuration."""


class DatasetError(ValueError):
    """Malformed dataset contents."""


class SamplingError(ValueError):
    """Few-shot subsample request cannot be satisfied."""


@dataclass(frozen=True)
class Example:
    tokens: tuple[int, ...]
    label: float | int


@dataclass
class Dataset:
    """Labeled token sequences plus the header facts consumers need.

    num_classes >= 2 marks classification with integer labels in range;
    num_classes == 1 marks regression with float labels.
    """

    examples: list[Example]
    num_classes: int
    split: str
    kind: str
    vocab_size: int

    def __post_init__(self):
        if self.num_classes < 1:
            raise DatasetError(f"num_classes={self.num_classes} must be >= 1")
        for i, ex in enumerate(self.examples):
            for tok in ex.tokens:
                if not (0 <= tok < self.vocab_size):
                    raise DatasetError(
                        f"example {i}: token {tok} outside vocab of size {self.vocab_size}"
                    )
            if self.num_classes >= 2:
                if not isinstance(ex.label, (int, np.integer)) or isinstance(ex.label, bool):
                    raise DatasetError(f"example {i}: classification label must be int")
                if not (0 <= ex.label < self.num_classes):
                    raise DatasetError(
                        f"example {i}: label {ex.label} outside {self.num_classes} classes"
                    )

    def __len__(self) -> int:
        return len(self.examples)

    def labels(self) -> np.ndarray:
        if self.num_classes == 1:
            return np.array([ex.label for ex in self.examples], dtype=np.float64)
        return np.array([ex.label for ex in self.examples], dtype=np.int64)


def _content_range(vocab_size: int) -> tuple[int, int]:
    if vocab_size < CONTENT_START + 2:
        raise TaskConfigError(
            f"vocab_size={vocab_size} too small: need at least {CONTENT_START + 2}"
        )
    return CONTENT_START, vocab_size


def _balanced_labels(n: int, num_classes: int, rng: np.random.Generator) -> np.ndarray:
    if n <= 0:
        raise TaskConfigError(f"n={n} must be positive")
    if n % num_classes != 0:
        raise TaskConfigError(
            f"n={n} cannot be balanced across {num_classes} classes exactly"
        )
    labels = np.repeat(np.arange(num_classes), n // num_classes)
    rng.shuffle(labels)
    return labels


def _gen_parity(n, length, vocab_size, rng):
    lo, hi = _content_range(vocab_size)
    marker = lo
    fillers = np.arange(lo + 1, hi)
    if length < 1:
        raise TaskConfigError(f"parity needs length >= 1, got {length}")
    labels = _balanced_labels(n, 2, rng)
    examples = []
    for y in labels:
        # Exact marker count of the right parity, placed at random positions.
        choices = np.arange(int(y), length + 1, 2)
        count = int(rng.choice(choices))
        toks = np.concatenate(
            [np.full(count, marker), rng.choice(fillers, size=length - count)]
        )
        rng.shuffle(toks)
        examples.append(Example(tuple(int(v) for v in toks), int(y)))
    return examples, 2


def _gen_majority(n, length, vocab_size, rng):
    lo, hi = _content_range(vocab_size)
    a, b = lo, lo + 1
    fillers = np.arange(lo + 2, hi)
    if fillers.size == 0:
        raise TaskConfigError(f"majority needs vocab_size > {lo + 2}, got {vocab_size}")
    if length < 2:
        raise TaskConfigError(f"majority needs length >= 2, got {length}")
    labels = _balanced_labels(n, 2, rng)
    examples = []
    for y in labels:
        while True:
            ca = int(rng.integers(0, length + 1))
            cb = int(rng.integers(0, length + 1 - ca))
            if ca == cb:
                continue
            if (ca > cb) != bool(y):
                ca, cb = cb, ca
            break
        toks = np.concatenate(
            [np.full(ca, a), np.full(cb, b), rng.choice(fillers, size=length - ca - cb)]
        )
        rng.shuffle(toks)
        examples.append(Example(tuple(int(v) for v in toks), int(y)))
    return examples, 2


def _gen_pair_match(n, length, vocab_size, rng):
    lo, hi = _content_range(vocab_size)
    if length < 3:
        raise TaskConfigError(f"pair-match needs length >= 3, got {length}")
    seg = (length - 1) // 2
    labels = _balanced_labels(n, 2, rng)
    examples = []
    content = np.arange(lo, hi)
    for y in labels:
        first = rng.choice(content, size=seg)
        second = rng.permutation(first)
        if not y:
            if rng.random() < 0.5:
                # Near miss: one replaced token changes the multiset.
                pos = int(rng.integers(0, seg))
                old = second[pos]
                alternatives = content[content != old]
                second[pos] = rng.choice(alternatives)
            else:
                # Fresh second segment, resampled until the multisets differ.
                while True:
                    second = rng.choice(content, size=seg)
                    if sorted(second.tolist()) != sorted(first.tolist()):
                        break
        toks = [int(v) for v in first] + [SEP_ID] + [int(v) for v in second]
        examples.append(Example(tuple(toks), int(y)))
    return examples, 2


def _gen_count_regression(n, length, vocab_size, rng):
    lo, hi = _content_range(vocab_size)
    marker = lo
    fillers = np.arange(lo + 1, hi)
    if length < 1:
        raise TaskConfigError(f"count-regression needs length >= 1, got {length}")
    if n <= 0:
        raise TaskConfigError(f"n={n} must be positive")
    examples = []
    for _ in range(n):
        count = int(rng.integers(0, length + 1))
        toks = np.concatenate(
            [np.full(count, marker), rng.choice(fillers, size=length - count)]
        )
        rng.shuffle(toks)
        # Label is the marker fraction, a float in [0, 1].
        examples.append(Example(tuple(int(v) for v in toks), count / length))
    return examples, 1


_GENERATORS = {
    "parity": _gen_parity,
    "majority": _gen_majority,
    "pair-match": _gen_pair_match,
    "count-regression": _gen_count_regression,
}


def gen_task(
    kind: str, n: int, length: int, vocab_size: int, seed, split: str = "train"
) -> Dataset:
    """Generate a deterministic labeled dataset.

    Classification kinds require n divisible by the class count so classes
    come out exactly balanced.  Labels are always a pure function of the
    tokens:

        parity            count of the marker token, mod 2
        majority          1 iff token A occurs more often than token B
        pair-match        1 iff the two separator-delimited segments are
                          multiset-equal
        count-regression  marker count divided by sequence length

    Args:
        kind: one of TASK_KINDS.
        n: number of examples.
        length: content length (pair-match emits 2*((length-1)//2)+1 tokens).
        vocab_size: token id space; ids below CONTENT_START are reserved.
        seed: RNG seed, any form np.random.default_rng accepts.
        split: tag recorded on the dataset.
    """
    if kind not in _GENERATORS:
        raise TaskConfigError(f"unknown task kind {kind!r}, expected one of {TASK_KINDS}")
    rng = np.random.default_rng(seed)
    examples, num_classes = _GENERATORS[kind](n, length, vocab_size, rng)
    return Dataset(
        examples=examples,
        num_classes=num_classes,
        split=split,
        kind=kind,
        vocab_size=vocab_size,
    )


def load_jsonl(
    path,
    num_classes: int | None = None,
    vocab_size: int | None = None,
    split: str = "train",
) -> Dataset:
    """Load {"tokens": [...], "label": ...} records, one JSON object per line.

    Tokens must be a non-empty list of ints: an example with no token rows
    has nothing to pool.  Labels must all be integers (classification) or
    all be floats (regression).  Errors name the offending 1-based line
    number.
    """
    path = Path(path)
    examples = []
    labels_int = True
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DatasetError(f"{path.name} line {lineno}: invalid JSON ({e.msg})") from e
            if not isinstance(rec, dict) or "tokens" not in rec or "label" not in rec:
                raise DatasetError(
                    f"{path.name} line {lineno}: expected object with 'tokens' and 'label'"
                )
            toks = rec["tokens"]
            if not isinstance(toks, list) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in toks
            ):
                raise DatasetError(f"{path.name} line {lineno}: tokens must be a list of ints")
            if not toks:
                raise DatasetError(f"{path.name} line {lineno}: tokens must not be empty")
            label = rec["label"]
            if isinstance(label, bool) or not isinstance(label, (int, float)):
                raise DatasetError(f"{path.name} line {lineno}: label must be a number")
            if isinstance(label, float):
                labels_int = False
            if num_classes is not None and num_classes >= 2:
                if not isinstance(label, int) or not (0 <= label < num_classes):
                    raise DatasetError(
                        f"{path.name} line {lineno}: label {label} outside "
                        f"{num_classes} classes"
                    )
            if vocab_size is not None:
                for tok in toks:
                    if not (0 <= tok < vocab_size):
                        raise DatasetError(
                            f"{path.name} line {lineno}: token {tok} outside vocab "
                            f"of size {vocab_size}"
                        )
            examples.append(Example(tuple(toks), label))
    if not examples:
        raise DatasetError(f"{path.name}: no examples")
    if num_classes is None:
        if labels_int:
            num_classes = max(int(ex.label) for ex in examples) + 1
            num_classes = max(num_classes, 2)
        else:
            num_classes = 1
    inferred_vocab = vocab_size
    if inferred_vocab is None:
        inferred_vocab = max((max(ex.tokens) for ex in examples if ex.tokens), default=0) + 1
    return Dataset(
        examples=examples,
        num_classes=num_classes,
        split=split,
        kind="jsonl",
        vocab_size=inferred_vocab,
    )


def fewshot_sample(dataset: Dataset, gamma: int, base_seed: int, seed_index: int) -> Dataset:
    """Draw gamma examples uniformly without replacement.

    Sampling is uniform over the pool, not stratified by class.
    Deterministic for (base_seed, gamma, seed_index) regardless of
    process or platform.
    """
    n = len(dataset)
    if gamma < 1:
        raise SamplingError(f"gamma={gamma} must be >= 1")
    if gamma > n:
        raise SamplingError(f"gamma={gamma} exceeds dataset size {n}")
    rng = np.random.default_rng((base_seed, gamma, seed_index))
    idx = np.sort(rng.choice(n, size=gamma, replace=False))
    return Dataset(
        examples=[dataset.examples[int(i)] for i in idx],
        num_classes=dataset.num_classes,
        split=f"fewshot{gamma}",
        kind=dataset.kind,
        vocab_size=dataset.vocab_size,
    )
