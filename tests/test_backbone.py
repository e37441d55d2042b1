"""Backbone model: input assembly, masking, gradients, persistence."""
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import accept
from accept import tensor as T
from accept.backbone import (
    ArchitectureError,
    AssembledInput,
    AssemblyError,
    BackboneConfig,
    BackboneModel,
    PretrainConfig,
    VocabError,
    numerics_fingerprint,
    pretrain_backbone,
    sinusoidal_rows,
)
from accept.checkpoint import CheckpointFormatError, write_fragment
from accept.factorization import Codebook, PromptDims, WeightSet, compose, init_random
from accept.tasks import PAD_ID, gen_task

TINY = BackboneConfig(d=16, layers=2, heads=2, vocab_size=32, max_len=8, num_classes=2, dtype="f64")


def tiny_model(seed=0, frozen=True):
    model = BackboneModel.random_init(TINY, seed=seed)
    if frozen:
        model.freeze()
    return model


# -- config ------------------------------------------------------------------


def test_config_rejects_indivisible_heads():
    with pytest.raises(ArchitectureError):
        BackboneConfig(d=10, heads=4)


def test_config_rejects_unknown_dtype():
    with pytest.raises(ArchitectureError):
        BackboneConfig(dtype="f16")


def test_head_and_ffn_dims():
    cfg = BackboneConfig(d=64, heads=4, ffn_mult=4)
    assert cfg.head_dim == 16
    assert cfg.ffn_dim == 256


# -- position table ------------------------------------------------------------


def test_sinusoidal_rows_values():
    pe = sinusoidal_rows(4, 6)
    assert pe.shape == (4, 6)
    # Row 0 is sin(0)=0 in even columns, cos(0)=1 in odd columns.
    assert np.allclose(pe[0, 0::2], 0.0)
    assert np.allclose(pe[0, 1::2], 1.0)
    # Column 0 is sin(pos).
    assert np.allclose(pe[:, 0], np.sin(np.arange(4)))
    assert np.all(np.abs(pe) <= 1.0)


def test_position_rows_distinct():
    pe = sinusoidal_rows(32, 16)
    gram = pe @ pe.T
    off = gram - np.diag(np.diag(gram))
    assert np.all(np.diag(gram) > off.max(axis=1) + 1e-9)


# -- embed ---------------------------------------------------------------------


def test_embed_gathers_and_pads():
    model = tiny_model()
    rows, mask = model.embed_batch([[5, 7, 9], [8]])
    emb = model.params["emb"].data
    # Padded to the batch's longest example, not to max_len 8.
    assert rows.shape == (2, 3, 16)
    assert np.array_equal(rows.data[0], emb[[5, 7, 9]])
    assert np.array_equal(rows.data[1, 0], emb[8])
    # Padding rows carry the padding embedding and are masked out.
    assert np.array_equal(rows.data[1, 1:], emb[[PAD_ID] * 2])
    assert mask.tolist() == [[True, True, True], [True, False, False]]


def test_embed_truncates_to_max_len():
    model = tiny_model()
    rows, mask = model.embed_batch([list(range(6, 6 + 12))])
    assert rows.shape == (1, 8, 16)
    assert mask.all()
    assert np.array_equal(rows.data[0, -1], model.params["emb"].data[13])


def test_embed_rejects_out_of_vocab():
    model = tiny_model()
    with pytest.raises(VocabError, match="32"):
        model.embed_batch([[6], [31, 32]])
    with pytest.raises(VocabError):
        model.embed_batch([[-1]])


def test_embed_empty_is_all_padding():
    model = tiny_model()
    # An all-empty batch still gets one (padding) row per example.
    rows, mask = model.embed_batch([[], []])
    assert mask.shape == (2, 1)
    assert not mask.any()
    assert np.array_equal(rows.data[:, 0], model.params["emb"].data[[PAD_ID] * 2])


# -- assemble -----------------------------------------------------------------


def test_assemble_prepends_prompt_rows():
    model = tiny_model()
    e, mask = model.embed_batch([[6, 7, 8], [9]])
    P = T.Tensor(np.full((2, 16), 0.5))
    asm = model.assemble_input(e, mask, prompt=P)
    assert asm.values.shape == (2, 5, 16)
    assert asm.prompt_len == 2
    for b in range(2):
        assert np.array_equal(asm.values.data[b, :2], P.data)
        assert asm.mask[b, :2].tolist() == [True, True]
    assert np.array_equal(asm.values.data[:, 2:], e.data)
    assert np.array_equal(asm.mask[:, 2:], mask)


def test_assemble_without_added_keeps_token_rows():
    model = tiny_model()
    e, mask = model.embed_batch([[6, 7, 8]])
    asm = model.assemble_input(e, mask, prompt=T.Tensor(np.zeros((1, 16))))
    assert np.array_equal(asm.values.data[:, 1:], e.data)


def test_assemble_adds_to_every_grid_position():
    # Grid row j shifts token row j of every example, padding rows too
    # (masking hides them later); rows past the batch width go unused.
    model = tiny_model()
    e, mask = model.embed_batch([[6, 7, 8], [8]])
    Q = T.Tensor(np.arange(8 * 16, dtype=np.float64).reshape(8, 16))
    asm = model.assemble_input(e, mask, added=Q)
    assert asm.prompt_len == 0
    assert np.array_equal(asm.values.data, e.data + Q.data[:3])


def test_assemble_shape_errors():
    model = tiny_model()
    e, mask = model.embed_batch([[6, 7]])
    with pytest.raises(AssemblyError):
        model.assemble_input(e, mask, prompt=T.Tensor(np.zeros((2, 8))))
    # added is the whole (max_len, d) grid, not just the batch's width.
    for rows in (2, 4):
        with pytest.raises(AssemblyError):
            model.assemble_input(e, mask, added=T.Tensor(np.zeros((rows, 16))))
    with pytest.raises(AssemblyError):
        model.assemble_input(e, mask[:, :1])
    # Token rows wider than max_len cannot be assembled.
    wide = T.Tensor(np.zeros((1, 9, 16)))
    with pytest.raises(AssemblyError):
        model.assemble_input(wide, np.ones((1, 9), dtype=bool))
    # One example's (s, d) rows are not a batch.
    with pytest.raises(AssemblyError):
        model.assemble_input(T.Tensor(e.data[0]), mask[0])
    with pytest.raises(AssemblyError):
        model.forward(AssembledInput(values=T.Tensor(e.data[0]), mask=mask[0], prompt_len=0))


# -- forward -------------------------------------------------------------------


def test_logits_shape_single_and_batch():
    model = tiny_model()
    assert model.logits([[6, 7, 8]]).shape == (1, 2)
    assert model.logits([[6, 7], [9, 10, 11]]).shape == (2, 2)


def test_logits_compose_embed_assemble_forward():
    model = tiny_model()
    toks = [[6, 7], [9, 10, 11]]
    P = T.Tensor(np.full((2, 16), 0.5))
    Q = T.Tensor(np.linspace(-1.0, 1.0, 8 * 16).reshape(8, 16))
    e, mask = model.embed_batch(toks)
    ref = model.forward(model.assemble_input(e, mask, prompt=P, added=Q))
    assert np.array_equal(model.logits(toks, prompt=P, added=Q).data, ref.data)


def test_permuting_padding_rows_leaves_logits_unchanged():
    model = tiny_model()
    dims = PromptDims(positions=3, d=16, K=2, r=2)
    C, W = init_random(dims, seed=3, dtype=np.float64)
    e, mask = model.embed_batch([[6], [8, 9, 10, 11]])
    asm = model.assemble_input(e, mask, prompt=compose(C, W))
    ref = model.forward(asm).data
    vals = asm.values.data.copy()
    # Example 0: 3 prompt rows + 1 token, so rows 4..6 are padding.
    assert asm.mask[0].tolist() == [True] * 4 + [False] * 3
    vals[0, 4], vals[0, 6] = vals[0, 6].copy(), vals[0, 4].copy()
    swapped = AssembledInput(values=T.Tensor(vals), mask=asm.mask, prompt_len=3)
    assert np.array_equal(model.forward(swapped).data, ref)


def test_assembly_linearity_shift_between_e_and_added():
    # forward depends on the added prompt only through e + Q.
    model = tiny_model()
    rng = np.random.default_rng(0)
    e, mask = model.embed_batch([[6, 7, 8, 9], [10]])
    Q = rng.normal(size=(8, 16))
    delta = rng.normal(size=(8, 16))
    out1 = model.forward(model.assemble_input(e, mask, added=T.Tensor(Q)))
    # Grid rows past the batch width (4 here) do not reach e + Q.
    e_shift = T.add(e, T.Tensor(delta[:4]))
    out2 = model.forward(model.assemble_input(e_shift, mask, added=T.Tensor(Q - delta)))
    assert np.allclose(out1.data, out2.data, atol=1e-6)


def test_position_grid_skips_prompt_rows():
    model = tiny_model()
    grid = model.position_grid(10, 2)
    assert np.array_equal(grid[:2], np.zeros((2, 16)))
    assert np.array_equal(grid[2:], sinusoidal_rows(8, 16) * 0.1)
    # Token rows start from position 0 no matter the prompt length.
    assert np.array_equal(model.position_grid(11, 3)[3:], grid[2:])
    with pytest.raises(AssemblyError):
        model.position_grid(20, 2)  # 18 token rows exceed max_len 8
    with pytest.raises(AssemblyError):
        model.position_grid(4, 9)


def test_forward_rejects_bad_prompt_len():
    model = tiny_model()
    e, mask = model.embed_batch([[6, 7]])
    asm = model.assemble_input(e, mask)
    bad = AssembledInput(values=asm.values, mask=asm.mask, prompt_len=99)
    with pytest.raises(AssemblyError):
        model.forward(bad)


def test_forward_rejects_all_padding_example():
    model = tiny_model()
    e, mask = model.embed_batch([[6, 7], []])
    with pytest.raises(AssemblyError, match="pool"):
        model.forward(model.assemble_input(e, mask))
    with pytest.raises(AssemblyError, match="no real token rows to pool"):
        model.logits([[], []])


def test_all_padding_example_fails_before_any_block(monkeypatch):
    model = tiny_model()
    e, mask = model.embed_batch([[6, 7], []])
    calls = []
    norm = T.layer_norm
    monkeypatch.setattr(T, "layer_norm", lambda *a, **k: calls.append(1) or norm(*a, **k))
    with pytest.raises(AssemblyError, match="no real token rows to pool"):
        model.forward(model.assemble_input(e, mask, prompt=T.Tensor(np.ones((2, 16)))))
    assert calls == []


def record_softmax_inputs(monkeypatch) -> list:
    """Patch T.softmax to log the shape of every input it is given."""
    shapes = []
    softmax = T.softmax

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return softmax(a, *args, **kwargs)

    monkeypatch.setattr(T, "softmax", recording)
    return shapes


def full_rows_logits(model, toks, prompt, added):
    """Reference forward: every block on all m + L rows, then pool token rows.

    Written with a separate bias add per projection and a separate 1/sqrt(hd)
    scale, as the forward was before the last block dropped prompt queries.
    """
    cfg, p = model.config, model.params
    e, mask = model.embed_batch(toks)
    asm = model.assemble_input(e, mask, prompt=prompt, added=added)
    m = asm.prompt_len
    bsz, s, d = asm.values.shape
    hd = cfg.head_dim
    x = T.add(asm.values, T.Tensor(model.position_grid(s, m)))
    key_mask = np.where(asm.mask, 0.0, -1e9)[:, None, None, :]

    def linear(t, w, b=None):
        out = T.matmul(t, p[w])
        return out if b is None else T.add(out, T.Tensor(np.broadcast_to(p[b].data, out.shape)))

    def heads(t):
        return T.transpose(T.reshape(t, (bsz, s, cfg.heads, hd)), (0, 2, 1, 3))

    for i in range(cfg.layers):
        n = f"layer{i}."
        pre = T.layer_norm(x, p[n + "ln1.g"], p[n + "ln1.b"])
        q = heads(linear(pre, n + "attn.wq", n + "attn.bq"))
        k = heads(linear(pre, n + "attn.wk"))
        v = heads(linear(pre, n + "attn.wv", n + "attn.bv"))
        scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(hd))
        ctx = T.matmul(T.softmax(scores, key_mask), v)
        ctx = T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (bsz, s, d))
        x = T.add(x, linear(ctx, n + "attn.wo", n + "attn.bo"))
        pre2 = T.layer_norm(x, p[n + "ln2.g"], p[n + "ln2.b"])
        h = T.gelu(linear(pre2, n + "ffn.w1", n + "ffn.b1"))
        x = T.add(x, linear(h, n + "ffn.w2", n + "ffn.b2"))
    x = T.layer_norm(x, p["lnf.g"], p["lnf.b"])
    pool = asm.mask.copy()
    pool[:, :m] = False
    return linear(T.masked_mean_rows(x, pool), "head.w", "head.b")


@pytest.mark.parametrize("m", [0, 1, 5])
def test_last_block_query_pruning_matches_full_rows(m, monkeypatch):
    # Perturbed off init so every bias and gain is live in the comparison.
    rng = np.random.default_rng(10 + m)
    params = {
        n: T.Tensor(t.data + rng.normal(0.0, 0.2, size=t.shape), name=n)
        for n, t in BackboneModel.random_init(TINY, seed=4).params.items()
    }
    model = BackboneModel(TINY, params)
    toks = [[6], [8, 9, 10, 11], [12, 13], [7, 8, 9, 10, 11, 12, 13]]  # L = 7, padding rows
    labels = np.array([0, 1, 1, 0])
    P0 = rng.normal(0.0, 0.5, size=(m, 16))
    Q0 = rng.normal(0.0, 0.5, size=(8, 16))

    def run(logits_fn):
        P = T.Tensor(P0, trainable=True) if m else None
        Q = T.Tensor(Q0, trainable=True)
        logits = logits_fn(toks, P, Q)
        grads = T.backward(T.softmax_cross_entropy(logits, labels))
        return logits.data, (grads[P] if m else None), grads[Q]

    ref_logits, ref_gp, ref_gq = run(lambda t, P, Q: full_rows_logits(model, t, P, Q))
    shapes = record_softmax_inputs(monkeypatch)
    logits, gp, gq = run(lambda t, P, Q: model.logits(t, prompt=P, added=Q))
    s = m + 7
    assert shapes == [(4, 2, s, s)] * (TINY.layers - 1) + [(4, 2, s - m, s)]
    np.testing.assert_allclose(logits, ref_logits, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(gq, ref_gq, rtol=0.0, atol=1e-10)
    assert np.abs(gq[:7]).max() > 1e-3
    if m:
        np.testing.assert_allclose(gp, ref_gp, rtol=0.0, atol=1e-10)
        assert np.abs(gp).max() > 1e-3


def test_last_block_softmax_sees_only_token_queries(monkeypatch):
    cfg = BackboneConfig(layers=3)
    model = BackboneModel.random_init(cfg, seed=0)
    model.freeze()
    shapes = record_softmax_inputs(monkeypatch)
    prompt = T.Tensor(np.zeros((16, cfg.d)), dtype=cfg.np_dtype)
    model.logits([[5, 6, 7], [8, 9, 10, 11, 12]], prompt=prompt)
    h, s = cfg.heads, 16 + 5
    assert shapes == [(2, h, s, s), (2, h, s, s), (2, h, 5, s)]


def split_forward(monkeypatch, workers: int) -> list:
    """Split every tape-free forward into `workers` chunks; log chunk sizes."""
    import accept.backbone as B

    monkeypatch.setattr(B, "_WORKERS", workers)
    monkeypatch.setattr(B, "_SPLIT_MIN_ROWS", 1)
    sizes = []
    blocks = BackboneModel._blocks

    def recording(self, x, bias, m):
        sizes.append(x.shape[0])
        return blocks(self, x, bias, m)

    monkeypatch.setattr(BackboneModel, "_blocks", recording)
    return sizes


MIXED = [[5, 6, 7], [8, 9, 10, 11, 12, 13, 14], [15], [16, 17, 18, 19], [20, 21]]


@pytest.mark.parametrize("workers", [2, 3])
def test_split_forward_logits_are_the_one_chunk_bits(monkeypatch, workers):
    cfg = BackboneConfig()
    model = BackboneModel.random_init(cfg, seed=0)
    model.freeze()
    rng = np.random.default_rng(4)
    P = T.Tensor(rng.normal(0.0, 0.1, size=(3, cfg.d)), dtype=cfg.np_dtype)
    Q = T.Tensor(rng.normal(0.0, 0.1, size=(cfg.max_len, cfg.d)), dtype=cfg.np_dtype)
    one_chunk = model.logits(MIXED, prompt=P, added=Q).data.tobytes()
    sizes = split_forward(monkeypatch, workers)
    # Switch threads as often as the interpreter allows while chunks run.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        split = model.logits(MIXED, prompt=P, added=Q).data.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert split == one_chunk
    assert sorted(sizes) == sorted(len(MIXED) * (j + 1) // workers - len(MIXED) * j // workers
                                   for j in range(workers))
    # A forward that builds a graph stays on one chunk.
    sizes.clear()
    trainable = T.Tensor(P.data, trainable=True)
    assert model.logits(MIXED, prompt=trainable, added=Q).data.tobytes() == one_chunk
    assert sizes == [len(MIXED)]


@pytest.mark.parametrize("workers", [2, 3])
def test_split_forward_names_the_serial_error(monkeypatch, workers):
    cfg = BackboneConfig()
    model = BackboneModel.random_init(cfg, seed=0)
    model.freeze()
    e, mask = model.embed_batch(MIXED)
    rows = e.data.copy()
    rows[3, 1] = 3e38  # overflows inside example 3's first block only
    bad = AssembledInput(T.Tensor(rows), mask, 0)
    # np.errstate must reach the pool threads: a warning there would raise.
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(T.NonFiniteError) as serial:
            model.forward(bad)
        sizes = split_forward(monkeypatch, workers)
        with pytest.raises(T.NonFiniteError) as split:
            model.forward(bad)
    assert len(sizes) > 1
    assert str(serial.value) == "layer 0: layer_norm: produced non-finite values"
    assert str(split.value) == str(serial.value)


_FORKED_SPLIT_FORWARD = """
import os, signal, time
import accept.backbone as B
from accept.backbone import BackboneConfig, BackboneModel

B._WORKERS, B._SPLIT_MIN_ROWS = 2, 1
model = BackboneModel.random_init(BackboneConfig(), seed=0)
model.freeze()
parent = model.logits([[5, 6, 7], [8, 9]]).data.tobytes()
pid = os.fork()
if pid == 0:
    os._exit(0 if model.logits([[5, 6, 7], [8, 9]]).data.tobytes() == parent else 1)
for _ in range(300):
    done, status = os.waitpid(pid, os.WNOHANG)
    if done:
        print(status)
        break
    time.sleep(0.1)
else:
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    print("hung")
"""


def test_a_forked_child_splits_on_a_pool_of_its_own():
    # The child inherits the parent's pool object but none of its threads.
    src = str(Path(accept.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", _FORKED_SPLIT_FORWARD],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "0"


@pytest.mark.parametrize("dtype", ["f32", "f64"])
def test_trimmed_logits_match_padding_to_max_len(dtype):
    # Padding a batch only to its longest example moves float rounding,
    # not the result: compare with the same input hand-padded to max_len.
    cfg = BackboneConfig(d=16, layers=2, heads=2, vocab_size=32, max_len=8, dtype=dtype)
    model = BackboneModel.random_init(cfg, seed=3)
    model.freeze()
    rng = np.random.default_rng(1)
    P = T.Tensor(rng.normal(0.0, 0.1, size=(3, 16)), dtype=cfg.np_dtype)
    Q = T.Tensor(rng.normal(0.0, 0.1, size=(8, 16)), dtype=cfg.np_dtype)
    toks = [[6], [8, 9, 10, 11], [12, 13]]
    e, mask = model.embed_batch(toks)
    assert e.shape[1] == 4
    ids = np.full((3, 8), PAD_ID)
    for b, row in enumerate(toks):
        ids[b, : len(row)] = row
    e_full = T.gather_rows(model.params["emb"], ids)
    full = model.forward(model.assemble_input(e_full, ids != PAD_ID, prompt=P, added=Q))
    trimmed = model.logits(toks, prompt=P, added=Q)
    assert np.allclose(trimmed.data, full.data, rtol=0.0, atol=1e-6)


def test_numerics_fingerprint_sees_padding_width(monkeypatch):
    # A backbone cache keyed on the fingerprint must not survive a change
    # of padding width, which moves float rounding but no shapes outside.
    trimmed = numerics_fingerprint()
    embed = BackboneModel.embed_batch

    def embed_to_max_len(self, token_seqs):
        e, mask = embed(self, token_seqs)
        extra = self.config.max_len - mask.shape[1]
        pad = T.gather_rows(self.params["emb"], np.full((mask.shape[0], extra), PAD_ID))
        return T.concat_rows(e, pad), np.pad(mask, ((0, 0), (0, extra)))

    monkeypatch.setattr(BackboneModel, "embed_batch", embed_to_max_len)
    assert numerics_fingerprint() != trimmed


def test_numerics_fingerprint_sees_pretrain_schedule(monkeypatch):
    # Caches of pretrained backbones are keyed on the fingerprint, so a
    # schedule that no longer decays must change it, although no forward
    # bit moves.
    import accept.backbone as B
    from accept.optim import warmup_lr

    decayed = numerics_fingerprint()
    monkeypatch.setattr(
        B, "warmup_decay_lr", lambda base, step, warmup, total: warmup_lr(base, step, warmup)
    )
    assert numerics_fingerprint() != decayed


def test_numerics_fingerprint_sees_prompt_gradients(monkeypatch):
    # The row-slice op carries both the added grid and the last block's
    # token rows, so a change to its backward alone must change the digest.
    base = numerics_fingerprint()
    slice_rows = T.slice_rows

    def scaled_backward(a, start, stop):
        out = slice_rows(a, start, stop)
        if out._backward is not None:
            inner = out._backward
            out._backward = lambda g: tuple(x * (1.0 + 1e-6) for x in inner(g))
        return out

    monkeypatch.setattr(T, "slice_rows", scaled_backward)
    assert numerics_fingerprint() != base


def test_numerics_fingerprint_sees_desk_pretraining_rounding(monkeypatch):
    # Computing a weight's data gradient as one flattened GEMM moves desk
    # pretraining bits, so the digest that keys backbone caches must move.
    base = numerics_fingerprint()
    matmul = T.matmul

    def flat_data_grad(a, b, bias=None):
        out = matmul(a, b, bias)
        if out._backward is not None and b.ndim == 2 and a.needs_grad:
            inner = out._backward

            def backward(g):
                _, *rest = inner(g)
                return ((g.reshape(-1, b.shape[1]) @ b.data.T).reshape(a.shape), *rest)

            out._backward = backward
        return out

    monkeypatch.setattr(T, "matmul", flat_data_grad)
    assert numerics_fingerprint() != base


def test_added_rows_past_batch_width_get_zero_gradient():
    model = tiny_model()
    Q = T.Tensor(np.random.default_rng(2).normal(size=(8, 16)), trainable=True)
    loss = T.softmax_cross_entropy(model.logits([[6], [8, 9, 10]], added=Q), np.array([0, 1]))
    g = T.backward(loss)[Q]
    assert g.shape == (8, 16)
    assert np.all(g[3:] == 0.0)
    assert np.all(np.linalg.norm(g[:3], axis=1) > 0)


def test_non_finite_activation_names_layer():
    model = tiny_model()
    e, mask = model.embed_batch([[6, 7]])
    # Row mean overflows to inf inside the first norm, leaving NaN rows.
    huge = T.Tensor(np.full((2, 16), 1e308))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(T.NonFiniteError, match="layer 0: layer_norm"):
            model.forward(model.assemble_input(e, mask, prompt=huge))
    # The failed forward restored per-op checks for direct op calls.
    with np.errstate(over="ignore"), pytest.raises(T.NonFiniteError, match="scale"):
        T.scale(T.Tensor(np.array([1e308])), 1e10)


def test_forward_deterministic():
    model = tiny_model()
    e, mask = model.embed_batch([[6, 7, 8], [9, 10]])
    asm = model.assemble_input(e, mask)
    a = model.forward(asm).data
    b = model.forward(asm).data
    assert np.array_equal(a, b)


# -- gradients through the stack -----------------------------------------------


def test_frozen_backbone_receives_no_gradients():
    model = tiny_model()
    dims = PromptDims(positions=2, d=16, K=2, r=2)
    C, W = init_random(dims, seed=1, dtype=np.float64)
    e, mask = model.embed_batch([[6, 7], [8, 9]])
    asm = model.assemble_input(e, mask, prompt=compose(C, W))
    loss = T.softmax_cross_entropy(model.forward(asm), np.array([0, 1]))
    grads = T.backward(loss)
    assert set(grads) == {C.entries, W.entries}


@pytest.mark.parametrize("seed", range(20))
def test_prompt_gradient_flow(seed):
    # Nonzero gradient reaches both factor tensors through the whole stack.
    model = tiny_model(seed=seed)
    rng = np.random.default_rng(seed)
    K, r = [(1, 1), (2, 2), (4, 3)][seed % 3]
    dims = PromptDims(positions=4, d=16, K=K, r=r)
    C, W = init_random(dims, seed=seed + 50, dtype=np.float64)
    toks = [rng.integers(6, 32, size=int(rng.integers(1, 9))).tolist() for _ in range(2)]
    e, mask = model.embed_batch(toks)
    asm = model.assemble_input(e, mask, prompt=compose(C, W))
    loss = T.softmax_cross_entropy(model.forward(asm), np.array([0, 1]))
    grads = T.backward(loss)
    assert np.linalg.norm(grads[C.entries]) > 0
    assert np.linalg.norm(grads[W.entries]) > 0


def test_gradients_match_finite_differences_through_model():
    model = tiny_model(seed=7)
    dims = PromptDims(positions=4, d=16, K=2, r=2)
    C0, W0 = init_random(dims, seed=9, dtype=np.float64)
    toks = [[6, 7, 8], [9, 10, 11, 12]]
    labels = np.array([0, 1])

    def loss_value(c_arr, w_arr):
        C = Codebook(entries=T.Tensor(c_arr, trainable=True))
        W = WeightSet(entries=T.Tensor(w_arr, trainable=True))
        e, mask = model.embed_batch(toks)
        asm = model.assemble_input(e, mask, prompt=compose(C, W))
        loss = T.softmax_cross_entropy(model.forward(asm), labels)
        return loss, C, W

    loss, C, W = loss_value(C0.entries.data, W0.entries.data)
    grads = T.backward(loss)
    h = 1e-6
    for which, (arr0, g) in enumerate(
        [(C0.entries.data, grads[C.entries]), (W0.entries.data, grads[W.entries])]
    ):
        flat = arr0.ravel()
        for j in range(flat.size):
            up, dn = flat.copy(), flat.copy()
            up[j] += h
            dn[j] -= h
            if which == 0:
                lu = loss_value(up.reshape(arr0.shape), W0.entries.data)[0]
                ld = loss_value(dn.reshape(arr0.shape), W0.entries.data)[0]
            else:
                lu = loss_value(C0.entries.data, up.reshape(arr0.shape))[0]
                ld = loss_value(C0.entries.data, dn.reshape(arr0.shape))[0]
            fd = (float(lu.data) - float(ld.data)) / (2 * h)
            a = g.ravel()[j]
            assert abs(a - fd) / max(abs(a), abs(fd), 1.0) < 1e-4


def test_every_backbone_parameter_has_a_live_gradient():
    # Perturbed off its init, so zero-initialised biases and unit gains do not
    # hide a parameter that computes nothing.
    rng = np.random.default_rng(3)
    params = {
        n: T.Tensor(t.data + rng.normal(0.0, 0.2, size=t.shape), trainable=True, name=n)
        for n, t in BackboneModel.random_init(TINY, seed=2).params.items()
    }
    model = BackboneModel(TINY, params)
    toks = [rng.integers(6, 32, size=k).tolist() for k in (1, 3, 5, 8)]
    loss = T.softmax_cross_entropy(model.logits(toks), np.array([0, 1, 1, 0]))
    grads = T.backward(loss)
    peak = {n: float(np.abs(grads[t]).max()) for n, t in params.items()}
    assert {n: g for n, g in peak.items() if g <= 1e-8} == {}


# -- freeze / params -------------------------------------------------------------


def test_freeze_marks_everything():
    model = BackboneModel.random_init(TINY, seed=0)
    assert not model.frozen
    assert len(model.trainable_params()) == len(model.params)
    model.freeze()
    assert model.frozen
    assert model.trainable_params() == []


def test_freeze_preserves_values():
    model = BackboneModel.random_init(TINY, seed=0)
    before = {n: t.data.copy() for n, t in model.params.items()}
    model.freeze()
    for n, t in model.params.items():
        assert np.array_equal(t.data, before[n])


def test_random_init_deterministic():
    a = BackboneModel.random_init(TINY, seed=4)
    b = BackboneModel.random_init(TINY, seed=4)
    assert a.hash_params() == b.hash_params()
    c = BackboneModel.random_init(TINY, seed=5)
    assert a.hash_params() != c.hash_params()


def test_hash_changes_with_any_value():
    model = tiny_model()
    h0 = model.hash_params()
    bumped = model.params["head.b"].data.copy()
    bumped[0] += 1e-7
    model.params["head.b"] = T.Tensor(bumped, dtype=np.float64, name="head.b")
    assert model.hash_params() != h0


def test_constructor_validates_params():
    model = tiny_model()
    params = dict(model.params)
    del params["head.b"]
    with pytest.raises(ArchitectureError, match="head.b"):
        BackboneModel(TINY, params)
    params = dict(model.params)
    params["head.b"] = T.Tensor(np.zeros((3,)), dtype=np.float64)
    with pytest.raises(ArchitectureError, match="shape"):
        BackboneModel(TINY, params)


def test_desk_parameter_count_is_exact():
    cfg = BackboneConfig()
    V, d, f, c, L = cfg.vocab_size, cfg.d, cfg.ffn_dim, cfg.num_classes, cfg.layers
    want = V * d + L * (4 * d * d + 2 * d * f + 8 * d + f) + 2 * d + d * c + c
    assert want == 108_290
    model = BackboneModel.random_init(cfg, seed=0)
    assert sum(t.data.size for t in model.params.values()) == want


# -- persistence ----------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    cfg = BackboneConfig(d=16, layers=1, heads=2, vocab_size=16, max_len=4)
    model = BackboneModel.random_init(cfg, seed=2)
    model.freeze()
    model.save(tmp_path / "bb")
    back = BackboneModel.load(tmp_path / "bb")
    assert back.config == cfg
    assert back.hash_params() == model.hash_params()
    assert back.frozen
    toks = [[6, 7], [8, 9, 10]]
    assert np.array_equal(back.logits(toks).data, model.logits(toks).data)


def test_save_rejects_f64(tmp_path):
    model = tiny_model()
    with pytest.raises(CheckpointFormatError):
        model.save(tmp_path / "bb")


def test_load_refuses_a_fragment_the_architecture_lacks(tmp_path):
    cfg = BackboneConfig(d=16, layers=1, heads=2, vocab_size=16, max_len=4)
    BackboneModel.random_init(cfg, seed=2).save(tmp_path)
    manifest = {"kind": "tensor", "name": "layer0.attn.bk", "shape": [16],
                "dtype": "f32", "byte_order": "little"}
    write_fragment(tmp_path, "layer0.attn.bk", manifest, np.zeros(16, dtype=np.float32))
    with pytest.raises(ArchitectureError, match="layer0.attn.bk"):
        BackboneModel.load(tmp_path)


def test_load_missing_arch(tmp_path):
    with pytest.raises(CheckpointFormatError, match="arch.json"):
        BackboneModel.load(tmp_path)


# -- pretraining ------------------------------------------------------------------


def small_sources():
    return [
        gen_task("majority", n=64, length=6, vocab_size=16, seed=1),
        gen_task("pair-match", n=64, length=5, vocab_size=16, seed=2),
    ]


def test_pretrain_smoke_freezes_and_reports():
    cfg = BackboneConfig(d=16, layers=1, heads=2, vocab_size=16, max_len=8)
    model, report = pretrain_backbone(cfg, small_sources(), PretrainConfig(steps=5, batch_size=8))
    assert model.frozen
    assert set(report) == {"majority", "pair-match"}
    for v in report.values():
        assert 0.0 <= v <= 1.0


def test_pretrain_same_seed_same_theta():
    cfg = BackboneConfig(d=16, layers=1, heads=2, vocab_size=16, max_len=8)
    pre = PretrainConfig(steps=5, batch_size=8, seed=3)
    a, _ = pretrain_backbone(cfg, small_sources(), pre)
    b, _ = pretrain_backbone(cfg, small_sources(), pre)
    assert a.hash_params() == b.hash_params()


def test_pretrain_rejects_class_mismatch():
    cfg = BackboneConfig(d=16, layers=1, heads=2, vocab_size=16, max_len=8, num_classes=3)
    with pytest.raises(ArchitectureError, match="classes"):
        pretrain_backbone(cfg, small_sources(), PretrainConfig(steps=1))


def test_pretrain_rejects_too_many_tasks():
    cfg = BackboneConfig(d=16, layers=1, heads=2, vocab_size=16, max_len=8)
    tasks = [gen_task("majority", n=16, length=6, vocab_size=16, seed=s) for s in range(5)]
    with pytest.raises(ArchitectureError, match="source tasks"):
        pretrain_backbone(cfg, tasks, PretrainConfig(steps=1))


def test_frozen_theta_survives_adaptation_steps():
    # 100 update steps on prompt factors leave every backbone tensor intact.
    from accept.optim import AdamW, ParamRef, warmup_lr

    model = tiny_model(seed=1)
    h0 = model.hash_params()
    dims = PromptDims(positions=2, d=16, K=2, r=2)
    C, W = init_random(dims, seed=0, dtype=np.float64)
    refs = [
        ParamRef(lambda: C.entries, lambda t: setattr(C, "entries", t), "p"),
        ParamRef(lambda: W.entries, lambda t: setattr(W, "entries", t), "p"),
    ]
    opt = AdamW(refs)
    e, mask = model.embed_batch([[6, 7], [8, 9]])
    labels = np.array([0, 1])
    for step in range(1, 101):
        asm = model.assemble_input(e, mask, prompt=compose(C, W))
        loss = T.softmax_cross_entropy(model.forward(asm), labels)
        opt.step(T.backward(loss), {"p": warmup_lr(0.05, step, 10)})
    assert model.hash_params() == h0
