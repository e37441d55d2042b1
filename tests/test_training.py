"""Adaptation loop: contracts, determinism, degeneracy to plain prompt tuning."""
import numpy as np
import pytest

from accept import tensor as T
from accept.backbone import BackboneConfig, BackboneModel
from accept.factorization import (
    Codebook,
    InitError,
    PromptDims,
    WeightSet,
    compose,
    init_random,
    one_hot_weights,
)
from accept.optim import AdamW, TrainingError, warmup_decay_lr, warmup_lr
from accept.tasks import gen_task
from accept.training import (
    EVAL_BATCH,
    BestRecord,
    ContractError,
    DirectPrompt,
    FactorizedPrompt,
    InitStrategy,
    PromptSet,
    RunConfig,
    apply_init,
    evaluate,
    load_checkpoint,
    save_checkpoint,
    train,
)
from accept.training import _batch_loss  # the exact loss path the trainer runs
from accept.tensor import Tensor

TINY32 = BackboneConfig(d=16, layers=2, heads=2, vocab_size=16, max_len=8, dtype="f32")
TINY64 = BackboneConfig(d=16, layers=2, heads=2, vocab_size=16, max_len=8, dtype="f64")


def frozen_model(cfg=TINY32, seed=0):
    model = BackboneModel.random_init(cfg, seed=seed)
    model.freeze()
    return model


def tiny_task(seed=0, n=96, split="train"):
    return gen_task("majority", n=n, length=6, vocab_size=16, seed=seed, split=split)


def fresh_prompts(seed=0, dtype=np.float32):
    dims_p = PromptDims(positions=2, d=16, K=2, r=2)
    dims_a = PromptDims(positions=8, d=16, K=2, r=2)
    return apply_init(InitStrategy(), dims_p, dims_a, seed=seed, dtype=dtype)


def quick_cfg(**kw):
    base = dict(steps=20, batch_size=8, warmup_steps=5, eval_interval=10, seed=0)
    base.update(kw)
    return RunConfig(**base)


# -- warmup schedule -----------------------------------------------------------


def test_warmup_is_exactly_linear():
    for s in range(1, 121):
        assert warmup_lr(0.4, s, 120) == 0.4 * min(1.0, s / 120)
    assert warmup_lr(0.4, 121, 120) == 0.4
    assert warmup_lr(0.4, 5, 0) == 0.4
    with pytest.raises(ValueError):
        warmup_lr(0.4, 0, 120)


def test_warmup_decay_ramps_then_falls_linearly_to_a_last_nonzero_step():
    for s in range(1, 101):
        assert warmup_decay_lr(5e-3, s, 100, 2500) == warmup_lr(5e-3, s, 100)
    assert warmup_decay_lr(5e-3, 101, 100, 2500) == 5e-3 * 2400 / 2401
    assert warmup_decay_lr(5e-3, 2500, 100, 2500) == 5e-3 / 2401
    rates = [warmup_decay_lr(5e-3, s, 100, 2500) for s in range(100, 2501)]
    assert all(a > b > 0.0 for a, b in zip(rates, rates[1:]))
    # A run no longer than its warmup never decays.
    assert warmup_decay_lr(2e-3, 5, 100, 5) == warmup_lr(2e-3, 5, 100)


# -- config validation -----------------------------------------------------------


def test_config_rejects_steps_below_eval_interval():
    with pytest.raises(ContractError):
        RunConfig(steps=5, eval_interval=10)


def test_config_rejects_warmup_beyond_steps():
    with pytest.raises(ContractError):
        RunConfig(steps=100, eval_interval=10, warmup_steps=200)


def test_config_rejects_unknown_metric():
    with pytest.raises(ContractError):
        RunConfig(metric="bleu")


def test_config_allows_zero_steps():
    cfg = RunConfig(steps=0, warmup_steps=0)
    assert cfg.steps == 0


@pytest.mark.parametrize("old_kind", ["intermediate_task", "target_task"])
def test_init_strategy_requires_path_for_checkpoint_kinds(old_kind):
    with pytest.raises(ContractError, match="requires a checkpoint path"):
        InitStrategy(kind="checkpoint")
    # The two former names of the checkpoint kind point to its one name.
    with pytest.raises(ContractError, match="'checkpoint'"):
        InitStrategy(kind=old_kind, path="best")
    with pytest.raises(ContractError):
        InitStrategy(kind="mystery")
    # A path without the checkpoint kind would train from random prompts.
    with pytest.raises(ContractError, match="'random' takes no path"):
        InitStrategy(path="best")


# -- zero-step and contract behavior ----------------------------------------------


def test_zero_steps_returns_prompts_unchanged():
    model = frozen_model()
    prompts = fresh_prompts()
    before = prompts.snapshot()
    out, history = train(RunConfig(steps=0, warmup_steps=0), model, prompts, tiny_task(), tiny_task(1))
    assert out is prompts
    assert history.records == [] and history.best is None and history.step_losses == []
    assert prompts.snapshot() == before


def test_train_rejects_unfrozen_model():
    model = BackboneModel.random_init(TINY32, seed=0)
    with pytest.raises(ContractError, match="frozen"):
        train(quick_cfg(), model, fresh_prompts(), tiny_task(), tiny_task(1))


def test_train_rejects_dim_mismatch():
    model = frozen_model()
    bad = PromptSet(prepended=DirectPrompt(Tensor(np.zeros((2, 8), np.float32), trainable=True)))
    with pytest.raises(ContractError, match="dimensional"):
        train(quick_cfg(), model, bad, tiny_task(), tiny_task(1))


def test_train_rejects_added_grid_mismatch():
    model = frozen_model()
    dims_a = PromptDims(positions=4, d=16, K=2, r=2)  # model grid is 8
    c, w = init_random(dims_a, seed=0)
    bad = PromptSet(added=FactorizedPrompt(c, w))
    with pytest.raises(ContractError, match="positions"):
        train(quick_cfg(), model, bad, tiny_task(), tiny_task(1))


def test_train_rejects_dtype_mismatch():
    model = frozen_model(TINY64)
    with pytest.raises(ContractError, match="dtype"):
        train(quick_cfg(), model, fresh_prompts(), tiny_task(), tiny_task(1))


def test_train_rejects_fully_frozen_prompts():
    model = frozen_model()
    dims = PromptDims(positions=2, d=16, K=1, r=2)
    c, w = init_random(dims, seed=0)
    c.entries = Tensor(c.entries.data, trainable=False)
    w.entries = Tensor(w.entries.data, trainable=False)
    with pytest.raises(ContractError, match="frozen"):
        train(quick_cfg(), model, PromptSet(prepended=FactorizedPrompt(c, w)), tiny_task(), tiny_task(1))


def test_prompt_set_requires_a_component():
    with pytest.raises(ContractError):
        PromptSet()


# -- the loop itself ----------------------------------------------------------------


def test_history_shape_and_running_means():
    model = frozen_model()
    _, history = train(quick_cfg(steps=30, eval_interval=10), model, fresh_prompts(), tiny_task(), tiny_task(1))
    assert [r.step for r in history.records] == [10, 20, 30]
    assert len(history.step_losses) == 30
    # Recorded train_loss is the mean of the window preceding each eval.
    for i, rec in enumerate(history.records):
        window = history.step_losses[i * 10 : (i + 1) * 10]
        assert rec.train_loss == pytest.approx(float(np.mean(window)), abs=1e-12)


def test_best_is_first_seen_maximum():
    records = [0.5, 0.8, 0.8, 0.6]
    best = None
    for i, m in enumerate(records, 1):
        if best is None or m > best.metric:
            best = BestRecord(step=i, metric=m, checkpoint_id=f"step{i:06d}")
    assert best.step == 2  # documents the tie rule train() uses: strict >


def test_training_reduces_loss_on_separable_task():
    model = frozen_model(seed=3)
    cfg = quick_cfg(steps=300, eval_interval=100, warmup_steps=30, lr_scpp=0.2, lr_scap=5e-3)
    _, history = train(cfg, model, fresh_prompts(seed=3), tiny_task(seed=5, n=128), tiny_task(seed=6))
    assert history.records[-1].train_loss < history.records[0].train_loss


def test_theta_hash_identical_after_training():
    model = frozen_model()
    h0 = model.hash_params()
    train(quick_cfg(steps=100, eval_interval=50), model, fresh_prompts(), tiny_task(), tiny_task(1))
    assert model.hash_params() == h0


def test_run_is_deterministic():
    def run():
        model = frozen_model(seed=2)
        prompts = fresh_prompts(seed=2)
        _, history = train(quick_cfg(steps=40, eval_interval=20), model, prompts, tiny_task(), tiny_task(1))
        return history, prompts.snapshot()

    h1, s1 = run()
    h2, s2 = run()
    assert h1.step_losses == h2.step_losses
    assert h1.records == h2.records
    assert [leaf.data.tobytes() for leaf in s1] == [leaf.data.tobytes() for leaf in s2]


def test_nan_loss_aborts_with_step_index():
    model = frozen_model()
    cfg = quick_cfg(steps=20, eval_interval=20, warmup_steps=0, lr_scpp=1e30, lr_scap=1e30)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(TrainingError, match="step"):
        train(cfg, model, fresh_prompts(), tiny_task(), tiny_task(1))


def test_early_stop_halts_at_threshold():
    model = frozen_model()
    cfg = quick_cfg(steps=100, eval_interval=10, stop_at_metric=0.0)
    _, history = train(cfg, model, fresh_prompts(), tiny_task(), tiny_task(1))
    # Any metric satisfies threshold 0.0, so the run stops at the first eval.
    assert [r.step for r in history.records] == [10]


def test_no_training_graph_outlives_its_step(graph_watch):
    from accept import training

    model = frozen_model()
    graph_watch.watch(training, "evaluate")
    # Every forward, the next step's and each evaluation batch's, starts here.
    graph_watch.watch(BackboneModel, "logits")
    train(quick_cfg(), model, fresh_prompts(), tiny_task(), tiny_task(seed=1, split="eval"))
    names = [name for name, _ in graph_watch.entries]
    assert names.count("evaluate") == 2 and names.count("logits") > 20
    assert len(graph_watch.outputs) == 20 * TINY32.layers
    assert graph_watch.entries == [(name, 0) for name in names]


def test_one_desk_adaptation_step_builds_35_op_nodes():
    # The combined config of the adapt benchmark on the desk architecture:
    # scpp m=16, K=4 and scap K=2 at 512 parameters each, batch 16.
    cfg = BackboneConfig()
    dims_p = PromptDims(positions=16, d=cfg.d, K=4, r=4)
    dims_a = PromptDims(positions=cfg.max_len, d=cfg.d, K=2, r=4)
    prompts = apply_init(InitStrategy(), dims_p, dims_a, seed=0)
    batch = gen_task("pair-match", n=16, length=7, vocab_size=16, seed=3).examples
    loss = _batch_loss(frozen_model(cfg), prompts, batch, num_classes=2)
    ops, seen, stack = {}, set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            ops[node.name] = ops.get(node.name, 0) + 1
        stack.extend(node._parents)
    assert sum(ops.values()) == 35, ops
    assert ops["attention"] == ops["linear_gelu"] == cfg.layers, ops

def test_best_snapshot_reproduces_best_metric():
    model = frozen_model(seed=1)
    prompts = fresh_prompts(seed=1)
    cfg = quick_cfg(steps=60, eval_interval=20, lr_scpp=0.3, lr_scap=5e-3)
    _, history = train(cfg, model, prompts, tiny_task(seed=7), tiny_task(seed=8))
    assert history.best is not None
    prompts.load_snapshot(history.best_snapshot)
    again = evaluate(model, prompts, tiny_task(seed=8), cfg.metric)
    assert again == history.best.metric


def test_optimizer_step_leaves_held_leaves_untouched():
    # Snapshots hold leaves instead of copying them; that is sound only
    # because a step stores new leaves and never writes into old ones.
    model = frozen_model()
    prompts = fresh_prompts()
    refs = prompts.param_refs()
    held = [ref.get() for ref in refs]
    before = [leaf.data.tobytes() for leaf in held]
    opt = AdamW(refs)
    batch = tiny_task().examples[:8]
    logits = model.logits([ex.tokens for ex in batch], *prompts.rows())
    loss = T.softmax_cross_entropy(logits, np.array([ex.label for ex in batch]))
    opt.step(T.backward(loss), {"scpp": 0.1, "scap": 0.1})
    for ref, leaf, raw in zip(refs, held, before):
        assert ref.get() is not leaf
        assert ref.get().data.tobytes() != raw
        assert leaf.data.tobytes() == raw
        assert not leaf.data.flags.writeable


def test_snapshot_holds_the_current_leaves_themselves():
    prompts = PromptSet(
        prepended=DirectPrompt(Tensor(np.ones((2, 16), dtype=np.float32), trainable=True)),
        added=fresh_prompts().added,
    )
    snap = prompts.snapshot()
    leaves = (prompts.prepended.matrix, prompts.added.codebook.entries, prompts.added.weights.entries)
    assert len(snap) == len(leaves)
    assert all(s is leaf for s, leaf in zip(snap, leaves))


# -- degeneracy to vanilla prompt tuning ----------------------------------------------


def test_one_hot_frozen_weights_reproduce_direct_prompt_tuning():
    # K=1, r=m, frozen one-hot weights: the factorized path must follow the
    # same per-step loss trajectory as optimizing m free prompt rows.
    model = frozen_model(TINY64, seed=4)
    dims = PromptDims(positions=3, d=16, K=1, r=3)
    c, _ = init_random(dims, seed=11, dtype=np.float64)
    w = one_hot_weights(dims, dtype=np.float64, trainable=False)
    factorized = PromptSet(prepended=FactorizedPrompt(c, w))

    p0 = compose(
        Codebook(Tensor(c.entries.data, trainable=True)), WeightSet(w.entries)
    ).data.copy()
    direct = PromptSet(prepended=DirectPrompt(Tensor(p0, trainable=True, dtype=np.float64)))

    cfg = quick_cfg(steps=50, eval_interval=50, lr_scpp=0.1)
    data, heldout = tiny_task(seed=9, n=64), tiny_task(seed=10, n=32)
    _, hist_f = train(cfg, model, factorized, data, heldout)
    _, hist_d = train(cfg, model, direct, data, heldout)

    assert hist_f.step_losses == hist_d.step_losses
    assert np.array_equal(
        compose(factorized.prepended.codebook, factorized.prepended.weights).data,
        direct.prepended.matrix.data,
    )


# -- init strategies --------------------------------------------------------------------


def test_random_init_deterministic_per_seed():
    a = apply_init(InitStrategy(), PromptDims(2, 16, 2, 2), PromptDims(8, 16, 2, 2), seed=5)
    b = apply_init(InitStrategy(), PromptDims(2, 16, 2, 2), PromptDims(8, 16, 2, 2), seed=5)
    assert np.array_equal(a.prepended.codebook.entries.data, b.prepended.codebook.entries.data)
    assert np.array_equal(a.added.weights.entries.data, b.added.weights.entries.data)
    c = apply_init(InitStrategy(), PromptDims(2, 16, 2, 2), PromptDims(8, 16, 2, 2), seed=6)
    assert not np.array_equal(a.prepended.codebook.entries.data, c.prepended.codebook.entries.data)


def test_components_use_distinct_streams():
    dims = PromptDims(positions=8, d=16, K=2, r=2)
    ps = apply_init(InitStrategy(), dims, dims, seed=5)
    assert not np.array_equal(
        ps.prepended.codebook.entries.data, ps.added.codebook.entries.data
    )


def test_checkpoint_init_round_trip(tmp_path):
    prompts = fresh_prompts(seed=8)
    save_checkpoint(tmp_path, prompts)
    dims_p = PromptDims(positions=2, d=16, K=2, r=2)
    dims_a = PromptDims(positions=8, d=16, K=2, r=2)
    strat = InitStrategy(kind="checkpoint", path=str(tmp_path))
    loaded = apply_init(strat, dims_p, dims_a, seed=0)
    assert np.array_equal(
        loaded.prepended.codebook.entries.data, prompts.prepended.codebook.entries.data
    )
    assert np.array_equal(loaded.added.weights.entries.data, prompts.added.weights.entries.data)
    assert loaded.prepended.codebook.entries.trainable


def test_checkpoint_init_rejects_dim_mismatch(tmp_path):
    save_checkpoint(tmp_path, fresh_prompts())
    strat = InitStrategy(kind="checkpoint", path=str(tmp_path))
    wrong_r = PromptDims(positions=2, d=16, K=2, r=3)
    with pytest.raises(InitError, match="dims"):
        apply_init(strat, wrong_r, None, seed=0)
    with pytest.raises(InitError, match="holds f32 prompts, model wants float64"):
        apply_init(strat, PromptDims(positions=2, d=16, K=2, r=2), None, seed=0, dtype=np.float64)


def test_checkpoint_init_rejects_missing_component(tmp_path):
    only_scpp = PromptSet(prepended=fresh_prompts().prepended)
    save_checkpoint(tmp_path, only_scpp)
    strat = InitStrategy(kind="checkpoint", path=str(tmp_path))
    with pytest.raises(InitError, match="scap"):
        apply_init(strat, PromptDims(2, 16, 2, 2), PromptDims(8, 16, 2, 2), seed=0)


# -- persistence ----------------------------------------------------------------------------


def test_save_load_checkpoint_round_trip(tmp_path):
    from accept.training import EvalRecord, RunHistory

    prompts = fresh_prompts(seed=9)
    history = RunHistory(
        records=[EvalRecord(10, 0.5, 0.75), EvalRecord(20, 0.4, 0.8)],
        best=BestRecord(20, 0.8, "step000020"),
    )
    save_checkpoint(tmp_path, prompts, history)
    loaded, hist = load_checkpoint(tmp_path)
    assert np.array_equal(
        loaded.prepended.codebook.entries.data, prompts.prepended.codebook.entries.data
    )
    assert np.array_equal(loaded.added.codebook.entries.data, prompts.added.codebook.entries.data)
    assert hist.records == history.records
    assert hist.best == history.best


def test_save_checkpoint_rejects_direct_prompts(tmp_path):
    ps = PromptSet(prepended=DirectPrompt(Tensor(np.zeros((2, 16), np.float32), trainable=True)))
    with pytest.raises(ContractError, match="direct"):
        save_checkpoint(tmp_path, ps)


# -- evaluation -------------------------------------------------------------------------------


def test_evaluate_regression_head():
    cfg = BackboneConfig(d=16, layers=1, heads=2, vocab_size=16, max_len=8, num_classes=1)
    model = BackboneModel.random_init(cfg, seed=0)
    model.freeze()
    data = gen_task("count-regression", n=32, length=6, vocab_size=16, seed=1)
    prompts = PromptSet(
        prepended=FactorizedPrompt(*init_random(PromptDims(2, 16, 2, 2), seed=0))
    )
    score = evaluate(model, prompts, data, "pearson")
    assert np.isfinite(score)


def test_evaluate_rejects_dataset_the_model_cannot_read():
    model = frozen_model()  # 2 classes, vocab 16
    prompts = fresh_prompts()
    with pytest.raises(ContractError, match="classes"):
        evaluate(model, prompts, gen_task("count-regression", n=8, length=6, vocab_size=16, seed=1))
    with pytest.raises(ContractError, match="vocab_size"):
        evaluate(model, prompts, gen_task("majority", n=8, length=6, vocab_size=32, seed=1))


def test_evaluate_is_deterministic():
    model = frozen_model()
    prompts = fresh_prompts()
    data = tiny_task(seed=3)
    assert evaluate(model, prompts, data) == evaluate(model, prompts, data)


def test_evaluate_builds_no_graph_and_matches_the_trainable_forward(monkeypatch):
    model = frozen_model()
    prompts = fresh_prompts()
    data = tiny_task(seed=3, n=2 * EVAL_BATCH + 2)  # two full batches and a short one
    outputs = []
    forward = BackboneModel.forward

    def recording_forward(self, assembled):
        out = forward(self, assembled)
        outputs.append(out)
        return out

    monkeypatch.setattr(BackboneModel, "forward", recording_forward)
    evaluate(model, prompts, data)
    monkeypatch.undo()

    assert len(outputs) == 3
    for start, logits in zip(range(0, len(data), EVAL_BATCH), outputs):
        assert logits.needs_grad is False and logits._parents == ()
        chunk = data.examples[start : start + EVAL_BATCH]
        with_tape = model.logits([ex.tokens for ex in chunk], *prompts.rows())
        assert with_tape.needs_grad
        assert logits.data.tobytes() == with_tape.data.tobytes()
