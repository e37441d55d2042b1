"""Acceptance suite: one test per release criterion, pinned tolerances.

Each test prints a single machine-greppable verdict line of the form

    criterion N: PASS|FAIL - detail

(visible with pytest -s, and on failure in the captured output).  The
numeric tolerances and time bounds here are contractual; loosening them
is a release decision, not a test fix.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest

import accept.tensor as T
from accept.backbone import BackboneConfig, BackboneModel, PretrainConfig
from accept.cli import main as cli_main
from accept.experiments import (
    read_csv_rows,
    run_fewshot,
    sweep_granularity_rows,
)
from accept.factorization import (
    Codebook,
    PromptDims,
    WeightSet,
    compose,
    init_random,
    one_hot_weights,
    param_count,
    solve_rank,
)
from accept.tasks import gen_task
from accept.tensor import Tensor, grad_check
from accept.training import (
    DirectPrompt,
    FactorizedPrompt,
    InitStrategy,
    PromptSet,
    RunConfig,
    apply_init,
    train,
)
from accept.training import _batch_loss  # the exact loss path the trainer runs


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: parameter-table reproduction (exact, counting only, < 1 s) --------

REFERENCE = {
    # component: (positions, complement, {t: (r, total_params)})
    "prepended": (60, 30720, {
        16: (12, 74496), 32: (20, 74880), 64: (30, 75360), 96: (36, 75648),
        128: (40, 75840), 192: (45, 76080), 256: (48, 76224), 384: (51, 76008),
        768: (55, 76260),
    }),
    "added": (256, 46080, {
        16: (2, 72192), 32: (4, 73728), 64: (8, 76800), 96: (10, 74240),
        128: (13, 76032), 192: (17, 76544), 256: (20, 76800), 384: (24, 76800),
        768: (30, 76800),
    }),
}


def test_criterion_1_parameter_table_exact():
    budget, d = 76800, 768
    t_values = sorted(REFERENCE["prepended"][2])

    # Independent recount in plain big-int arithmetic before touching the
    # library: r = floor(effective / (d + positions*K)), total = r*d +
    # r*positions*K + complement.
    for positions, complement, table in REFERENCE.values():
        for t, (r_want, total_want) in table.items():
            K = d // t
            r = (budget - complement) // (d + positions * K)
            assert r == r_want
            assert r * d + r * positions * K + complement == total_want

    started = time.perf_counter()
    checked = 0
    for positions, complement, table in REFERENCE.values():
        rows, notes = sweep_granularity_rows(
            budget=budget, d=d, positions=positions,
            t_values=t_values, complement=complement,
        )
        assert notes == []
        for t, K, r, params, total in rows:
            r_want, total_want = table[t]
            assert isinstance(r, int) and isinstance(total, int)
            assert (r, total) == (r_want, total_want), (t, r, total)
            checked += 1
    elapsed = time.perf_counter() - started
    _verdict(
        1, checked == 18 and elapsed < 1.0,
        f"18/18 (t, r, params) triples exact, counting-only in {elapsed:.4f}s (< 1s)",
    )


# -- criterion 2: combined default budget (exact) -----------------------------------


def test_criterion_2_combined_budget_exact():
    prepended = param_count(r=20, d=768, positions=60, K=24)
    added = param_count(r=24, d=768, positions=256, K=2)
    total = prepended + added
    # Cross-check through the dimension objects used by real runs.
    via_dims = (
        PromptDims(positions=60, d=768, K=24, r=20).param_count()
        + PromptDims(positions=256, d=768, K=2, r=24).param_count()
    )
    # And confirm both ranks are what the budget solver picks.
    assert solve_rank(46080, 768, 60, 24) == 20
    assert solve_rank(30720, 768, 256, 2) == 24
    _verdict(
        2, prepended == 44160 and added == 30720 and total == 74880 == via_dims,
        f"44160 + 30720 = {total} (expected 74880, exact)",
    )


# -- criterion 3: end-to-end gradients vs central finite differences -----------------


def test_criterion_3_gradient_correctness():
    config = BackboneConfig(
        d=16, layers=2, heads=2, vocab_size=32, max_len=8, num_classes=2, dtype="f64"
    )
    grid = [(K, r) for K in (1, 2, 4) for r in (1, 2, 3)]
    dataset = gen_task("majority", n=8, length=6, vocab_size=32, seed=77)
    batch = dataset.examples[:4]

    started = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        K, r = grid[seed % len(grid)]
        model = BackboneModel.random_init(config, seed=seed)
        model.freeze()
        dims_p = PromptDims(positions=4, d=16, K=K, r=r)
        dims_a = PromptDims(positions=8, d=16, K=K, r=r)
        cb_p, w_p = init_random(dims_p, seed=(seed, 0), dtype=np.float64)
        cb_a, w_a = init_random(dims_a, seed=(seed, 1), dtype=np.float64)
        fixed = {
            "C": cb_p.entries.data, "W": w_p.entries.data,
            "C2": cb_a.entries.data, "W2": w_a.entries.data,
        }

        def loss_with(**replace):
            vals = dict(fixed)
            vals.update(replace)
            prompts = PromptSet(
                prepended=FactorizedPrompt(
                    Codebook(_as_leaf(vals["C"])), WeightSet(_as_leaf(vals["W"]))
                ),
                added=FactorizedPrompt(
                    Codebook(_as_leaf(vals["C2"])), WeightSet(_as_leaf(vals["W2"]))
                ),
            )
            return _batch_loss(model, prompts, batch, dataset.num_classes)

        for name in ("C", "W", "C2", "W2"):
            report = grad_check(
                lambda x, _n=name: loss_with(**{_n: x}),
                Tensor(fixed[name], trainable=True),
                step=1e-6,
            )
            worst = max(worst, report.max_rel_err)
    elapsed = time.perf_counter() - started
    _verdict(
        3, worst < 1e-4 and elapsed < 60.0,
        f"max rel err {worst:.3e} (< 1e-4) over 20 seeds x 4 leaves, "
        f"K x r grid covered, {elapsed:.1f}s (< 60s)",
    )


def _as_leaf(arr):
    if isinstance(arr, Tensor):
        return arr
    return Tensor(np.array(arr, dtype=np.float64), trainable=True)


# -- criterion 4: composition vs naive triple loop ----------------------------------


def test_criterion_4_composition_oracle():
    rng = np.random.default_rng(42)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        K = int(rng.integers(1, 5))
        t = int(rng.integers(1, 6))
        r = int(rng.integers(1, 5))
        positions = int(rng.integers(1, 7))
        d = K * t
        C = rng.normal(size=(K, r, t))
        W = rng.normal(size=(positions, K, r))

        # Oracle: the definition, one scalar accumulation at a time.
        naive = np.zeros((positions, d))
        for i in range(positions):
            for k in range(K):
                for j in range(r):
                    naive[i, k * t:(k + 1) * t] += W[i, k, j] * C[k, j]

        got = compose(
            Codebook(Tensor(C, trainable=True)), WeightSet(Tensor(W, trainable=True))
        ).data
        worst = max(worst, float(np.max(np.abs(got - naive))))
    elapsed = time.perf_counter() - started
    _verdict(
        4, worst <= 1e-12 and elapsed < 10.0,
        f"max |compose - loop| = {worst:.2e} (<= 1e-12) on 200 instances, "
        f"{elapsed:.2f}s (< 10s)",
    )


# -- criterion 5: degeneracy to vanilla prompt tuning -------------------------------


def test_criterion_5_pt_degeneracy():
    config = BackboneConfig(
        d=16, layers=2, heads=2, vocab_size=16, max_len=8, num_classes=2, dtype="f64"
    )
    model = BackboneModel.random_init(config, seed=9)
    model.freeze()
    train_set = gen_task("majority", n=64, length=6, vocab_size=16, seed=21)
    eval_set = gen_task("majority", n=32, length=6, vocab_size=16, seed=22, split="test")

    m = 3
    dims = PromptDims(positions=m, d=16, K=1, r=m)
    cb, _ = init_random(dims, seed=(5, 0), dtype=np.float64)
    frozen_w = one_hot_weights(dims, dtype=np.float64, trainable=False)
    factorized = PromptSet(prepended=FactorizedPrompt(cb, frozen_w))

    p0 = compose(
        Codebook(Tensor(cb.entries.data, trainable=True)), frozen_w
    ).data.copy()
    direct = PromptSet(
        prepended=DirectPrompt(Tensor(p0, trainable=True, name="pt_rows"))
    )

    cfg = RunConfig(
        steps=200, batch_size=8, warmup_steps=20, eval_interval=50,
        lr_scpp=0.1, seed=3,
    )
    _, hist_f = train(cfg, model, factorized, train_set, eval_set)
    _, hist_d = train(cfg, model, direct, train_set, eval_set)

    assert len(hist_f.step_losses) == len(hist_d.step_losses) == 200
    divergence = max(
        abs(a - b) for a, b in zip(hist_f.step_losses, hist_d.step_losses)
    )
    _verdict(
        5, divergence <= 1e-8,
        f"per-step loss divergence over 200 steps = {divergence:.2e} (<= 1e-8 at 64-bit)",
    )


# -- criterion 6: backbone untouched by adaptation -----------------------------------


def test_criterion_6_frozen_backbone_hash():
    config = BackboneConfig(
        d=16, layers=2, heads=2, vocab_size=16, max_len=8, num_classes=2, dtype="f32"
    )
    model = BackboneModel.random_init(config, seed=4)
    model.freeze()
    before = model.hash_params()

    train_set = gen_task("majority", n=64, length=6, vocab_size=16, seed=31)
    eval_set = gen_task("majority", n=32, length=6, vocab_size=16, seed=32, split="test")
    prompts = apply_init(
        InitStrategy(),
        PromptDims(positions=2, d=16, K=2, r=2),
        PromptDims(positions=8, d=16, K=2, r=2),
        seed=1,
    )
    cfg = RunConfig(steps=1000, batch_size=8, warmup_steps=50, eval_interval=100, seed=1)
    train(cfg, model, prompts, train_set, eval_set)
    after = model.hash_params()
    _verdict(
        6, before == after,
        f"theta sha256 {before[:12]}... identical after 1000-step adaptation",
    )


# -- criterion 7: desk-scale learning at matched budget ------------------------------


def test_criterion_7_desk_scale_learning(desk_backbone, desk_task):
    model, source_report = desk_backbone
    train_set, test_set = desk_task
    assert min(source_report.values()) >= 0.9, source_report

    d = model.config.d
    pt_rows = 16
    pt_budget = pt_rows * d  # 1024
    dims_p = PromptDims(positions=16, d=d, K=4, r=4)
    dims_a = PromptDims(positions=model.config.max_len, d=d, K=2, r=4)
    accept_budget = dims_p.param_count() + dims_a.param_count()
    assert accept_budget <= pt_budget

    def run_accept(seed):
        cfg = RunConfig(
            steps=2000, batch_size=16, warmup_steps=120, eval_interval=100,
            lr_scpp=0.4, lr_scap=1e-3, seed=seed, stop_at_metric=0.95,
        )
        prompts = apply_init(InitStrategy(), dims_p, dims_a, seed=seed)
        _, hist = train(cfg, model, prompts, train_set, test_set)
        return hist.best.metric

    def run_vanilla(seed):
        cfg = RunConfig(
            steps=2000, batch_size=16, warmup_steps=120, eval_interval=100,
            lr_scpp=0.4, seed=seed, stop_at_metric=0.95,
        )
        rng = np.random.default_rng((seed, 2))
        rows = rng.normal(0.0, 0.1, size=(pt_rows, d)).astype(np.float32)
        prompts = PromptSet(
            prepended=DirectPrompt(Tensor(rows, trainable=True, name="pt_rows"))
        )
        _, hist = train(cfg, model, prompts, train_set, test_set)
        return hist.best.metric

    seeds = (0, 1, 2)
    accept_scores = [run_accept(s) for s in seeds]
    vanilla_scores = [run_vanilla(s) for s in seeds]
    wins = sum(sc >= 0.95 for sc in accept_scores)
    side_by_side = ", ".join(
        f"seed {s}: factorized {a:.4f} / vanilla {v:.4f}"
        for s, a, v in zip(seeds, accept_scores, vanilla_scores)
    )
    _verdict(
        7, wins >= 2,
        f"factorized @{accept_budget} params >= 0.95 on {wins}/3 seeds "
        f"(vanilla @{pt_budget} side-by-side) [{side_by_side}]",
    )


# -- criterion 8: few-shot aggregation matches the files ------------------------------


@pytest.fixture(scope="module")
def fewshot_env(tmp_path_factory):
    from accept.backbone import pretrain_backbone

    root = tmp_path_factory.mktemp("fewshot")
    config = BackboneConfig(
        d=16, layers=1, heads=2, vocab_size=32, max_len=8, num_classes=2, dtype="f32"
    )
    task = gen_task("majority", n=64, length=6, vocab_size=32, seed=3)
    model, _ = pretrain_backbone(
        config, [task], PretrainConfig(steps=20, batch_size=8, lr=2e-3, warmup=5, seed=0)
    )
    bb_dir = root / "backbone"
    model.save(bb_dir)
    spec = {
        "name": "fewshot-acceptance",
        "backbone": {"path": str(bb_dir)},
        "train_set": {"kind": "majority", "n": 64, "length": 6, "vocab_size": 32, "seed": 5},
        "eval_set": {"kind": "majority", "n": 32, "length": 6, "vocab_size": 32, "seed": 6},
        "scpp": {"m": 2, "K": 2, "budget": 100},
        "run": {"steps": 20, "batch_size": 8, "warmup_steps": 5,
                "eval_interval": 10, "seed": 1},
    }
    return root, spec


def test_criterion_8_fewshot_protocol(fewshot_env):
    root, spec = fewshot_env
    gammas = [4, 16, 32]
    result = run_fewshot(spec, gammas=gammas, num_seeds=3, runs_root=root / "runs")

    # Independent recomputation straight from the per-run files.
    exact = True
    for gamma, mean_got, std_got, n_got in result["rows"]:
        _, rows = read_csv_rows(result["per_gamma"][gamma])
        vals = [float(r[1]) for r in rows]
        seeds = [int(r[2]) for r in rows]
        exact &= seeds == [0, 1, 2] and n_got == 3
        mean_want = sum(vals) / len(vals)
        var_want = sum((v - mean_want) ** 2 for v in vals) / len(vals)
        exact &= mean_got == mean_want and std_got == var_want ** 0.5

    # Bit-reproducibility: rerunning the whole protocol yields identical bytes.
    first = {g: result["per_gamma"][g].read_bytes() for g in gammas}
    first_summary = result["summary"].read_bytes()
    again = run_fewshot(spec, gammas=gammas, num_seeds=3, runs_root=root / "runs")
    reproducible = all(
        again["per_gamma"][g].read_bytes() == first[g] for g in gammas
    ) and again["summary"].read_bytes() == first_summary

    _verdict(
        8, exact and reproducible,
        f"mean/std for gamma {gammas} match per-run CSV recomputation exactly; "
        f"reruns byte-identical",
    )


# -- criterion 9: byte-identical training history --------------------------------------


def test_criterion_9_train_determinism(fewshot_env, tmp_path, capsys):
    _, spec = fewshot_env
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(spec), encoding="utf-8")

    digests = []
    for runs_dir in (tmp_path / "runs_a", tmp_path / "runs_b"):
        assert cli_main(["train", str(cfg_path), "--runs-dir", str(runs_dir)]) == 0
        history = next(Path(runs_dir).glob("*/history.csv")).read_bytes()
        digests.append(history)
    capsys.readouterr()
    _verdict(
        9, digests[0] == digests[1] and len(digests[0]) > 0,
        f"two cmd_train invocations, identical config+seed -> byte-identical "
        f"history.csv ({len(digests[0])} bytes)",
    )
