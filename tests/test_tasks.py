"""Task generator tests: every label is re-derived from tokens by brute force."""

import json
from collections import Counter

import pytest

from accept import tasks as K


def relabel(kind: str, tokens) -> float:
    """Independent labeler working only from the token sequence."""
    toks = list(tokens)
    if kind == "parity":
        return Counter(toks)[K.CONTENT_START] % 2
    if kind == "majority":
        c = Counter(toks)
        return int(c[K.CONTENT_START] > c[K.CONTENT_START + 1])
    if kind == "pair-match":
        sep = toks.index(K.SEP_ID)
        return int(sorted(toks[:sep]) == sorted(toks[sep + 1 :]))
    if kind == "count-regression":
        return Counter(toks)[K.CONTENT_START] / len(toks)
    raise AssertionError(kind)


@pytest.mark.parametrize("kind", K.TASK_KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_labels_match_brute_force(kind, seed):
    ds = K.gen_task(kind, n=64, length=15, vocab_size=96, seed=seed)
    for ex in ds.examples:
        assert relabel(kind, ex.tokens) == pytest.approx(ex.label)


@pytest.mark.parametrize("kind", ["parity", "majority", "pair-match"])
def test_classes_exactly_balanced(kind):
    ds = K.gen_task(kind, n=100, length=12, vocab_size=64, seed=7)
    counts = Counter(ex.label for ex in ds.examples)
    assert counts[0] == counts[1] == 50


def test_generation_deterministic():
    a = K.gen_task("pair-match", n=32, length=11, vocab_size=64, seed=3)
    b = K.gen_task("pair-match", n=32, length=11, vocab_size=64, seed=3)
    assert a.examples == b.examples
    c = K.gen_task("pair-match", n=32, length=11, vocab_size=64, seed=4)
    assert a.examples != c.examples


def test_odd_n_is_a_config_error():
    with pytest.raises(K.TaskConfigError):
        K.gen_task("parity", n=33, length=8, vocab_size=64, seed=0)


def test_unknown_kind():
    with pytest.raises(K.TaskConfigError):
        K.gen_task("sorting", n=4, length=8, vocab_size=64, seed=0)


def test_tiny_vocab_rejected():
    with pytest.raises(K.TaskConfigError):
        K.gen_task("parity", n=4, length=8, vocab_size=K.CONTENT_START + 1, seed=0)


def test_content_tokens_avoid_reserved_range():
    ds = K.gen_task("majority", n=32, length=10, vocab_size=32, seed=1)
    for ex in ds.examples:
        assert all(t >= K.CONTENT_START for t in ex.tokens)


def test_pair_match_tokens_have_one_separator():
    ds = K.gen_task("pair-match", n=16, length=13, vocab_size=64, seed=2)
    for ex in ds.examples:
        assert ex.tokens.count(K.SEP_ID) == 1
        assert len(ex.tokens) == 13


def test_regression_labels_are_fractions():
    ds = K.gen_task("count-regression", n=16, length=10, vocab_size=64, seed=2)
    assert ds.num_classes == 1
    assert all(0.0 <= ex.label <= 1.0 for ex in ds.examples)


# ---------------------------------------------------------------------------
# JSONL


def write_jsonl(ds, path):
    with path.open("w") as fh:
        for ex in ds.examples:
            fh.write(json.dumps({"tokens": list(ex.tokens), "label": ex.label}) + "\n")


def test_jsonl_round_trip(tmp_path):
    ds = K.gen_task("parity", n=10, length=6, vocab_size=32, seed=0)
    p = tmp_path / "d.jsonl"
    write_jsonl(ds, p)
    back = K.load_jsonl(p, num_classes=2, vocab_size=32)
    assert [ex.tokens for ex in back.examples] == [ex.tokens for ex in ds.examples]
    assert [ex.label for ex in back.examples] == [ex.label for ex in ds.examples]


def test_save_jsonl_round_trip_classification(tmp_path):
    ds = K.gen_task("majority", n=10, length=6, vocab_size=32, seed=4)
    p = tmp_path / "out.jsonl"
    write_jsonl(ds, p)
    back = K.load_jsonl(p, num_classes=ds.num_classes, vocab_size=ds.vocab_size)
    assert [ex.tokens for ex in back.examples] == [ex.tokens for ex in ds.examples]
    assert [ex.label for ex in back.examples] == [ex.label for ex in ds.examples]


def test_save_jsonl_round_trip_regression(tmp_path):
    ds = K.gen_task("count-regression", n=8, length=6, vocab_size=32, seed=4)
    p = tmp_path / "out.jsonl"
    write_jsonl(ds, p)
    back = K.load_jsonl(p, num_classes=1, vocab_size=ds.vocab_size)
    assert back.num_classes == 1
    assert [ex.label for ex in back.examples] == [ex.label for ex in ds.examples]


def test_jsonl_error_names_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"tokens": [1, 2], "label": 0}\n{"tokens": [1], "label": 9}\n')
    with pytest.raises(K.DatasetError) as exc:
        K.load_jsonl(p, num_classes=2)
    assert "line 2" in str(exc.value)


def test_jsonl_invalid_json_names_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"tokens": [1], "label": 0}\nnot json\n')
    with pytest.raises(K.DatasetError) as exc:
        K.load_jsonl(p)
    assert "line 2" in str(exc.value)


def test_jsonl_empty_tokens_names_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"tokens": [1, 2], "label": 0}\n{"tokens": [], "label": 1}\n')
    with pytest.raises(K.DatasetError, match="line 2: tokens must not be empty"):
        K.load_jsonl(p)


def test_jsonl_vocab_check_names_line(tmp_path):
    p = tmp_path / "bad.jsonl"
    p.write_text('{"tokens": [40], "label": 0}\n')
    with pytest.raises(K.DatasetError) as exc:
        K.load_jsonl(p, vocab_size=32)
    assert "line 1" in str(exc.value)


# ---------------------------------------------------------------------------
# few-shot sampling


def test_fewshot_deterministic_and_distinct_across_seeds():
    ds = K.gen_task("majority", n=200, length=10, vocab_size=64, seed=0)
    a = K.fewshot_sample(ds, gamma=16, base_seed=11, seed_index=0)
    b = K.fewshot_sample(ds, gamma=16, base_seed=11, seed_index=0)
    assert a.examples == b.examples
    c = K.fewshot_sample(ds, gamma=16, base_seed=11, seed_index=1)
    assert a.examples != c.examples
    assert len(a) == 16


def test_fewshot_uniform_not_stratified():
    # Across many seeds, at least one gamma=4 draw from a balanced pool
    # must come out class-imbalanced; stratified sampling never would.
    ds = K.gen_task("majority", n=40, length=10, vocab_size=64, seed=0)
    saw_imbalance = False
    for s in range(30):
        sub = K.fewshot_sample(ds, gamma=4, base_seed=0, seed_index=s)
        counts = Counter(ex.label for ex in sub.examples)
        if counts[0] != counts[1]:
            saw_imbalance = True
            break
    assert saw_imbalance


def test_fewshot_gamma_exceeds_pool():
    ds = K.gen_task("majority", n=8, length=10, vocab_size=64, seed=0)
    with pytest.raises(K.SamplingError):
        K.fewshot_sample(ds, gamma=9, base_seed=0, seed_index=0)


def test_dataset_validates_tokens_and_labels():
    with pytest.raises(K.DatasetError):
        K.Dataset(
            examples=[K.Example((99,), 0)],
            num_classes=2,
            split="train",
            kind="x",
            vocab_size=32,
        )
    with pytest.raises(K.DatasetError):
        K.Dataset(
            examples=[K.Example((1,), 5)],
            num_classes=2,
            split="train",
            kind="x",
            vocab_size=32,
        )
