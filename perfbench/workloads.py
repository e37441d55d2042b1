"""The three benchmark workloads and the measurement loop around them.

Every workload uses the default desk `BackboneConfig` (d=64, 2 layers,
4 heads, vocab 128, max_len 32, f32) with a backbone that is randomly
initialised from the workload seed and frozen: it costs the same compute
as a pretrained one and skips the three-minute pretrain.  The workload
seed fixes every input (backbone, datasets, prompt init, run seed); the
program only ever sees the generated inputs.

A run sets up `Sizes.setup_reps` times, then repeats the workload's work
unit while the next unit still fits in the time budget (at least
`min_units` times), then checks the outputs of every unit.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from probes import Probe, Tracer

LAYERS = (
    "tensor",
    "factorization",
    "backbone",
    "optim",
    "training",
    "tasks",
    "metrics",
    "checkpoint",
    "experiments",
    "cli",
)

# The README's combined configuration: 512 + 512 = 1,024 prompt parameters.
SCPP_M, SCPP_K, SCPP_BUDGET = 16, 4, 512
SCAP_K, SCAP_BUDGET = 2, 512
PAIR_MATCH = {"kind": "pair-match", "length": 7, "vocab_size": 16}
MAJORITY = {"kind": "majority", "length": 12, "vocab_size": 128}


@dataclass(frozen=True)
class Sizes:
    """How much work one run does.  `FULL` is the benchmark; tests shrink it."""

    setup_reps: int = 15
    adapt_steps: int = 100
    adapt_eval_interval: int = 100
    adapt_train_n: int = 1024
    adapt_eval_n: int = 512
    eval_n: int = 512
    eval_prompt_lengths: tuple[int, ...] = (4, 16, 64)
    pretrain_steps: int = 150
    pretrain_source_n: int = 2048
    # Mean loss over this many steps is the first and last window; even, so
    # both windows hold the same number of steps of each alternating source.
    pretrain_window: int = 30


FULL = Sizes()


def import_accept() -> SimpleNamespace:
    """Import the `accept` package afresh and return its layer modules.

    Dropping the package from `sys.modules` first makes every set-up
    repetition pay the package's import cost (numpy stays loaded).
    """
    for name in [n for n in sys.modules if n == "accept" or n.startswith("accept.")]:
        del sys.modules[name]
    importlib.import_module("accept")
    return SimpleNamespace(**{n: importlib.import_module(f"accept.{n}") for n in LAYERS})


def sub_seeds(seed: int, n: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n)]


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class Unit:
    wall_s: float
    examples: int
    losses: list[float]
    eval_logits: list[list[np.ndarray]]
    output: object


def _dataset(acc, spec: dict, n: int, seed: int, split: str):
    return acc.tasks.gen_task(
        spec["kind"], n=n, length=spec["length"], vocab_size=spec["vocab_size"],
        seed=seed, split=split,
    )


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


# -- adapt ----------------------------------------------------------------------


class Adapt:
    """One in-process `accept train` of the README's combined config."""

    name = "adapt"
    step_on = "optim"
    min_units = 2  # 2 x 99 timed steps, so p90 has at least 10 samples beyond it

    def setup(self, acc, seed: int, sizes: Sizes, workdir: Path) -> SimpleNamespace:
        s_backbone, s_train, s_eval, s_run = sub_seeds(seed, 4)
        model = acc.backbone.BackboneModel.random_init(acc.backbone.BackboneConfig(), s_backbone)
        model.freeze()
        backbone_dir = workdir / "backbone"
        model.save(backbone_dir)
        steps = sizes.adapt_steps
        spec = {
            "name": "perfbench-adapt",
            "backbone": {"path": str(backbone_dir)},
            "train_set": {**PAIR_MATCH, "n": sizes.adapt_train_n, "seed": s_train},
            "eval_set": {**PAIR_MATCH, "n": sizes.adapt_eval_n, "seed": s_eval},
            "scpp": {"m": SCPP_M, "K": SCPP_K, "budget": SCPP_BUDGET},
            "scap": {"K": SCAP_K, "budget": SCAP_BUDGET},
            "run": {
                "steps": steps,
                "batch_size": 16,
                "warmup_steps": min(120, steps),
                "eval_interval": sizes.adapt_eval_interval,
                "lr_scpp": 0.4,
                "lr_scap": 1e-3,
                "seed": s_run,
            },
        }
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(spec, indent=2) + "\n", encoding="utf-8")
        return SimpleNamespace(
            acc=acc,
            workdir=workdir,
            spec=spec,
            config_path=config_path,
            backbone_dir=backbone_dir,
            backbone_hash=model.hash_params(),
            eval_interval=sizes.adapt_eval_interval,
        )

    def unit(self, ctx, probe: Probe, index: int):
        runs_dir = ctx.workdir / f"runs{index}"
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
            rc = ctx.acc.cli.main(["train", str(ctx.config_path), "--runs-dir", str(runs_dir)])
        return SimpleNamespace(rc=rc, runs_dir=runs_dir, stderr=err.getvalue())

    def checks(self, ctx, units: list[Unit]) -> list[Check]:
        acc = ctx.acc
        d = acc.backbone.BackboneConfig().d
        max_len = acc.backbone.BackboneConfig().max_len
        r_p = acc.factorization.solve_rank(SCPP_BUDGET, d, SCPP_M, SCPP_K)
        r_a = acc.factorization.solve_rank(SCAP_BUDGET, d, max_len, SCAP_K)
        want = {
            "scpp": acc.factorization.param_count(r_p, d, SCPP_M, SCPP_K),
            "scap": acc.factorization.param_count(r_a, d, max_len, SCAP_K),
            "direct_prepend": 0,
        }
        want["total"] = want["scpp"] + want["scap"]
        eval_spec = ctx.spec["eval_set"]
        eval_set = _dataset(acc, eval_spec, eval_spec["n"], eval_spec["seed"], "eval")
        out: list[Check] = []
        first_outputs = None
        for i, unit in enumerate(units):
            res = unit.output
            out.append(Check(f"unit{i}.exit_code", res.rc == 0, res.stderr.strip()))
            if res.rc != 0:
                continue
            (run_dir,) = res.runs_dir.iterdir()
            summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
            out.append(Check(
                f"unit{i}.backbone_hash",
                summary["backbone_hash"] == ctx.backbone_hash,
                "frozen backbone changed during the run",
            ))
            out.append(Check(
                f"unit{i}.param_counts",
                summary["params"] == want and summary["trainable_params"] == want["total"],
                f"summary {summary['params']} vs param_count {want}",
            ))
            history = (run_dir / "history.csv").read_text(encoding="utf-8")
            rows = [line.split(",") for line in history.strip().split("\n")[1:]]
            csv_losses = [float(row[1]) for row in rows]
            window = unit.losses[-ctx.eval_interval:]
            out.append(Check(
                f"unit{i}.losses_finite",
                len(unit.losses) == ctx.spec["run"]["steps"]
                and _finite(unit.losses)
                and _finite(csv_losses)
                and bool(csv_losses)
                and float(np.mean(window)) == csv_losses[-1],
                "step losses must be finite and the last window must match history.csv",
            ))
            # Units repeat one deterministic run, so the best prompts are
            # re-evaluated once and later units must match those bytes.
            outputs = [history] + [p.read_bytes() for p in sorted((run_dir / "best").iterdir())]
            if first_outputs is None:
                first_outputs = outputs
                model = acc.backbone.BackboneModel.load(ctx.backbone_dir)
                prompts, _ = acc.training.load_checkpoint(run_dir / "best")
                again = acc.training.evaluate(model, prompts, eval_set)
                out.append(Check(
                    f"unit{i}.best_reevaluated",
                    again == summary["best_metric"],
                    f"re-evaluated {again!r} vs best_metric {summary['best_metric']!r}",
                ))
            else:
                out.append(Check(f"unit{i}.repeats", outputs == first_outputs,
                                 "history.csv or best/ differs from the first unit"))
        return out

    def final_loss(self, ctx, unit: Unit) -> float:
        return float(np.mean(unit.losses[-ctx.eval_interval:]))


# -- eval -----------------------------------------------------------------------


class Eval:
    """Repeated 512-example `evaluate` calls over prompt lengths and tasks."""

    name = "eval"
    step_on = "forward"
    min_units = 3  # 3 x 48 timed batches, so p90 has at least 10 samples beyond it

    def setup(self, acc, seed: int, sizes: Sizes, workdir: Path) -> SimpleNamespace:
        s_backbone, s_pm, s_maj, s_prompts = sub_seeds(seed, 4)
        config = acc.backbone.BackboneConfig()
        model = acc.backbone.BackboneModel.random_init(config, s_backbone)
        model.freeze()
        datasets = [
            _dataset(acc, PAIR_MATCH, sizes.eval_n, s_pm, "eval"),
            _dataset(acc, MAJORITY, sizes.eval_n, s_maj, "eval"),
        ]
        fz = acc.factorization
        r_a = fz.solve_rank(SCAP_BUDGET, config.d, config.max_len, SCAP_K)
        dims_a = fz.PromptDims(positions=config.max_len, d=config.d, K=SCAP_K, r=r_a)
        checkpoints = []
        for i, m in enumerate(sizes.eval_prompt_lengths):
            r_p = fz.solve_rank(SCPP_BUDGET, config.d, m, SCPP_K)
            dims_p = fz.PromptDims(positions=m, d=config.d, K=SCPP_K, r=r_p)
            prompts = acc.training.apply_init(
                acc.training.InitStrategy(), dims_p, dims_a, seed=(s_prompts, i)
            )
            path = workdir / f"prompts_m{m}"
            acc.training.save_checkpoint(path, prompts)
            checkpoints.append((m, path, _prompt_bytes(prompts)))
        return SimpleNamespace(acc=acc, model=model, datasets=datasets, checkpoints=checkpoints)

    def unit(self, ctx, probe: Probe, index: int):
        scores, loaded = [], []
        for m, path, _ in ctx.checkpoints:
            prompts, _ = ctx.acc.training.load_checkpoint(path)
            loaded.append(_prompt_bytes(prompts))
            for ds in ctx.datasets:
                scores.append(ctx.acc.training.evaluate(ctx.model, prompts, ds))
        return SimpleNamespace(scores=scores, loaded=loaded)

    def _calls(self, ctx):
        """(m, dataset) of each evaluate call of a unit, in call order."""
        return [(m, ds) for m, _, _ in ctx.checkpoints for ds in ctx.datasets]

    def checks(self, ctx, units: list[Unit]) -> list[Check]:
        out: list[Check] = []
        calls = self._calls(ctx)
        for i, unit in enumerate(units):
            res = unit.output
            for (m, _, saved), got in zip(ctx.checkpoints, res.loaded):
                out.append(Check(f"unit{i}.m{m}.checkpoint_roundtrip", got == saved))
            for (m, ds), score, logits in zip(calls, res.scores, unit.eval_logits):
                name = f"unit{i}.m{m}.{ds.kind}"
                rows = np.concatenate(logits) if logits else np.zeros((0, 2))
                out.append(Check(f"{name}.prediction_count", len(rows) == len(ds),
                                 f"{len(rows)} predictions for {len(ds)} examples"))
                if len(rows) == len(ds):
                    acc = float(np.mean(np.argmax(rows, axis=-1) == ds.labels()))
                    out.append(Check(f"{name}.metric_matches_logits", acc == score,
                                     f"evaluate gave {score!r}, logits give {acc!r}"))
            if i > 0:
                out.append(Check(f"unit{i}.repeats", res.scores == units[0].output.scores,
                                 f"{res.scores} vs {units[0].output.scores}"))
        return out

    def final_loss(self, ctx, unit: Unit) -> float:
        """Mean cross entropy of the evaluated logits, all calls of the unit."""
        losses = []
        for (_, ds), logits in zip(self._calls(ctx), unit.eval_logits):
            z = np.concatenate(logits).astype(np.float64)
            z -= z.max(axis=1, keepdims=True)
            logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
            losses.append(-logp[np.arange(len(ds)), ds.labels()])
        return float(np.mean(np.concatenate(losses)))


def _prompt_bytes(prompts) -> list[bytes]:
    return [
        t.data.tobytes()
        for _, comp in prompts.components()
        for t in (comp.codebook.entries, comp.weights.entries)
    ]


# -- pretrain -------------------------------------------------------------------


class Pretrain:
    """`pretrain_backbone` on the README's two sources, then freeze and report."""

    name = "pretrain"
    step_on = "optim"
    min_units = 1

    def setup(self, acc, seed: int, sizes: Sizes, workdir: Path) -> SimpleNamespace:
        s_maj, s_pm, s_init = sub_seeds(seed, 3)
        sources = [
            _dataset(acc, MAJORITY, sizes.pretrain_source_n, s_maj, "pretrain"),
            _dataset(acc, PAIR_MATCH, sizes.pretrain_source_n, s_pm, "pretrain"),
        ]
        pre = acc.backbone.PretrainConfig(
            steps=sizes.pretrain_steps, batch_size=32, lr=5e-3,
            warmup=min(100, sizes.pretrain_steps), seed=s_init,
        )
        return SimpleNamespace(acc=acc, sources=sources, pre=pre, window=sizes.pretrain_window)

    def unit(self, ctx, probe: Probe, index: int):
        config = ctx.acc.backbone.BackboneConfig()
        model, report = ctx.acc.backbone.pretrain_backbone(config, ctx.sources, ctx.pre)
        # The slot-accuracy report over both sources runs after the last step.
        probe.eval_s.append(time.perf_counter() - probe.last_step_end)
        return SimpleNamespace(frozen=model.frozen, report=report)

    def checks(self, ctx, units: list[Unit]) -> list[Check]:
        out: list[Check] = []
        w = ctx.window
        for i, unit in enumerate(units):
            res, losses = unit.output, unit.losses
            out.append(Check(f"unit{i}.frozen", res.frozen))
            out.append(Check(f"unit{i}.losses_finite",
                             len(losses) == ctx.pre.steps and _finite(losses)))
            first, last = float(np.mean(losses[:w])), float(np.mean(losses[-w:]))
            out.append(Check(f"unit{i}.loss_decreased", last < first,
                             f"first window {first:.6f}, last window {last:.6f}"))
            out.append(Check(
                f"unit{i}.report",
                sorted(res.report) == sorted(ds.kind for ds in ctx.sources)
                and all(0.0 <= v <= 1.0 for v in res.report.values()),
                f"report {res.report}",
            ))
            if i > 0:
                out.append(Check(f"unit{i}.repeats", losses == units[0].losses))
        return out

    def final_loss(self, ctx, unit: Unit) -> float:
        return float(np.mean(unit.losses[-ctx.window:]))


WORKLOADS = {w.name: w for w in (Adapt(), Eval(), Pretrain())}


# -- the run --------------------------------------------------------------------


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    # name -> (value, unit, sample count)
    metrics: dict[str, tuple[float, str, int]]
    checks: list[Check]
    notes: dict


def _run_units(wl, ctx, probe: Probe, start_index: int, budget_s: float, min_units: int,
               errors: list[str]) -> list[Unit]:
    """Repeat the work unit while the next one is expected to end in budget."""
    units: list[Unit] = []
    t_start = time.perf_counter()
    while True:
        probe.begin_unit()
        t0 = time.perf_counter()
        try:
            output = wl.unit(ctx, probe, start_index + len(units))
        except Exception as err:  # a failed unit is a failed operation, not a crash
            errors.append(f"unit {start_index + len(units)}: {type(err).__name__}: {err}")
            break
        wall = time.perf_counter() - t0
        units.append(Unit(wall, probe.unit_examples, probe.unit_losses,
                          probe.unit_eval_logits, output))
        typical = statistics.median(u.wall_s for u in units)
        if len(units) >= min_units and time.perf_counter() - t_start + typical > budget_s:
            return units
    return units


def run(workload: str, seed: int, seconds: float, trace: bool, workdir: Path,
        sizes: Sizes = FULL) -> Result:
    """Set up, measure and check one workload.

    Untraced, the metrics are the end-to-end ones.  Traced, one untraced
    unit is run first as the reference, then the traced units; the metrics
    are the per-layer ones plus the tracing overhead.
    """
    wl = WORKLOADS[workload]
    setup_s = []
    for rep in range(sizes.setup_reps):
        t0 = time.perf_counter()
        acc = import_accept()
        ctx = wl.setup(acc, seed, sizes, workdir / f"setup{rep}")
        setup_s.append(time.perf_counter() - t0)

    errors: list[str] = []
    t_body = time.perf_counter()
    with Probe(acc, wl.step_on) as probe:
        if not trace:
            units = _run_units(wl, ctx, probe, 0, seconds, wl.min_units, errors)
            traced = []
        else:
            units = _run_units(wl, ctx, probe, 0, 0.0, 1, errors)
            traced = []
            if units:
                with Tracer(acc) as tracer:
                    remaining = seconds - (time.perf_counter() - t_body)
                    traced = _run_units(wl, ctx, probe, len(units), remaining, 1, errors)
    all_units = units + traced
    checks = wl.checks(ctx, all_units)
    failed_checks = [c for c in checks if not c.ok]
    attempted = probe.optim_steps + probe.eval_calls + len(all_units) + len(errors) + len(checks)
    failed = len(errors) + len(failed_checks)
    final_loss = wl.final_loss(ctx, all_units[-1]) if all_units else None
    notes = {
        "unit_wall_s": [round(u.wall_s, 4) for u in units],
        "traced_unit_wall_s": [round(u.wall_s, 4) for u in traced],
        "final_loss": final_loss,
        "errors": errors,
    }

    metrics: dict[str, tuple[float, str, int]] = {}
    if trace and traced:
        ref = statistics.median(u.wall_s for u in units)
        for name, (value, unit) in tracer.metrics(len(traced)).items():
            metrics[name] = (value, unit, len(traced))
        metrics["training.final_loss"] = (final_loss, "nats", 1)
        overhead = statistics.median(u.wall_s for u in traced) / ref
        metrics["trace.overhead_ratio"] = (overhead, "ratio", len(traced))
    elif not trace and units:
        walls = [u.wall_s for u in units]
        steps = probe.step_ms
        metrics = {
            "setup_s": (statistics.median(setup_s), "s", len(setup_s)),
            "wall_s": (statistics.median(walls), "s", len(walls)),
            "examples_per_s": (
                statistics.median(u.examples / u.wall_s for u in units), "examples/s", len(units)
            ),
            "step_ms_p50": (statistics.median(steps), "ms", len(steps)),
            "step_ms_p90": (statistics.quantiles(steps, n=10)[8], "ms", len(steps)),
            "eval_s_p50": (statistics.median(probe.eval_s), "s", len(probe.eval_s)),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
        }
    return Result(
        correct=failed == 0 and bool(metrics),
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        checks=checks,
        notes=notes,
    )
