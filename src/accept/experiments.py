"""Experiment orchestration: config resolution, run directories, sweeps.

A JSON experiment config names a backbone (checkpoint path or an inline
pretraining recipe), train/eval datasets (generator parameters or JSONL
paths), the prompt components with their parameter budgets, the run
schedule, the initialization strategy, and optionally a few-shot subset
of the train set.  Every run lands in its own directory keyed by a hash
of the resolved config, holding config.json, history.csv, a best/ prompt
checkpoint, and summary.json.

The multi-run verbs (granularity sweep, ablation grid, few-shot protocol,
length sweep) resolve the backbone and datasets once, write each cell as
an ordinary config (`_cell_spec`), resolve every cell before the first
one trains, and then train the cells one after another in this process
(`_run_cells` -> `_run_resolved`).  `accept train` on a cell's
config.json reproduces that cell.

CSV bodies are byte-reproducible for a fixed config and seed: floats are
written with repr (shortest round-trip form), rows end with LF, and
wall-clock values stay out of CSVs except in the length sweep, where the
time column is inherently host-dependent and documented as such.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
import typing
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .backbone import (
    BackboneConfig,
    BackboneModel,
    PretrainConfig,
    numerics_fingerprint,
    pretrain_backbone,
)
from .factorization import (
    PromptDims,
    param_count,
    solve_rank,
    validate_partition,
)
from .metrics import fewshot_report
from .tasks import Dataset, fewshot_sample, gen_task, load_jsonl
from .tensor import Tensor
from .training import (
    DirectPrompt,
    FactorizedPrompt,
    InitStrategy,
    PromptSet,
    RunConfig,
    RunHistory,
    apply_init,
    evaluate,
    save_checkpoint,
    train,
)

__all__ = [
    "ConfigError",
    "run_experiment",
    "run_sweep_granularity",
    "sweep_granularity_rows",
    "run_ablate",
    "run_fewshot",
    "run_length_sweep",
    "load_config",
    "canonical_json",
    "run_id_for",
    "write_csv",
    "read_csv_rows",
    "runs_root_from_env",
    "finished_summaries",
]


class ConfigError(ValueError):
    """An experiment config is malformed or inconsistent."""


# -- primitives -----------------------------------------------------------------


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def run_id_for(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode("utf-8")).hexdigest()[:12]


def runs_root_from_env(explicit: str | None = None) -> Path:
    if explicit:
        return Path(explicit)
    return Path(os.environ.get("ACCEPT_RUNS_DIR", "runs"))


def _fmt(v) -> str:
    if isinstance(v, bool):
        raise ConfigError(f"boolean {v!r} has no CSV representation")
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def write_csv(path, header: list[str], rows: list[tuple]) -> None:
    """Comma-separated, LF endings, repr-formatted floats: byte-stable."""
    lines = [",".join(header)]
    for row in rows:
        if len(row) != len(header):
            raise ConfigError(f"row {row} does not match header {header}")
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv_rows(path) -> tuple[list[str], list[list[str]]]:
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def load_config(path) -> dict:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {p} does not exist")
    try:
        obj = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {p} is not valid JSON: {err}") from None
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {p} must hold a JSON object")
    return obj


# -- config resolution -------------------------------------------------------------


def _require(obj: dict, key: str, where: str):
    if key not in obj:
        raise ConfigError(f"{where}: missing required field {key!r}")
    return obj[key]


def _check_types(obj, types: dict, where: str) -> None:
    """obj must be an object whose keys named in `types` hold values of that type.

    A type may be a union such as ``int | None``.  An int passes where a
    float is declared; a bool passes only where bool is declared.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be an object")
    for key, tp in types.items():
        if key not in obj:
            continue
        value = obj[key]
        kinds = typing.get_args(tp) or (tp,)
        if float in kinds:
            kinds += (int,)
        if (isinstance(value, bool) and bool not in kinds) or not isinstance(value, kinds):
            raise ConfigError(f"{where}.{key} must be {getattr(tp, '__name__', tp)}, got {value!r}")


def _build(cls, obj, where: str):
    """cls(**obj), once obj's values match the annotations of cls's fields."""
    _check_types(obj, typing.get_type_hints(cls), where)
    try:
        return cls(**obj)
    except TypeError as err:
        raise ConfigError(f"{where}: {err}") from None


_BLOCK_TYPES = {"m": int, "K": int, "budget": int | None, "r": int | None}


def parse_dataset(obj, where: str, split: str) -> Dataset:
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: dataset spec must be an object")
    if "jsonl" in obj:
        _check_types(obj, {"num_classes": int | None, "vocab_size": int | None}, where)
        return load_jsonl(
            obj["jsonl"],
            num_classes=obj.get("num_classes"),
            vocab_size=obj.get("vocab_size"),
            split=split,
        )
    kind = _require(obj, "kind", where)
    _check_types(obj, dict.fromkeys(("n", "length", "vocab_size"), int), where)
    return gen_task(
        kind,
        n=_require(obj, "n", where),
        length=_require(obj, "length", where),
        vocab_size=_require(obj, "vocab_size", where),
        seed=_require(obj, "seed", where),
        split=split,
    )


def parse_backbone(obj, where: str = "backbone") -> BackboneModel:
    """Load a saved backbone, or pretrain an inline recipe.

    An inline recipe's cache_dir is reused only when its recipe.json holds
    this recipe and this code's numerics fingerprint; otherwise the recipe
    is pretrained afresh and overwrites the cache.
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: must be an object with 'path' or 'config'+'pretrain'")
    if "path" in obj:
        return BackboneModel.load(obj["path"])
    cfg_obj = _require(obj, "config", where)
    pre_obj = _require(obj, "pretrain", where)
    config = _build(BackboneConfig, cfg_obj, f"{where}.config")
    task_specs = _require(pre_obj, "tasks", f"{where}.pretrain")
    pre_fields = {k: v for k, v in pre_obj.items() if k != "tasks"}
    pre = _build(PretrainConfig, pre_fields, f"{where}.pretrain")
    cache = obj.get("cache_dir")
    if cache:
        recipe_path = Path(cache, "recipe.json")
        recipe = {
            "config": asdict(config),
            "pretrain": {**asdict(pre), "tasks": task_specs},
            "numerics": numerics_fingerprint(),
        }
        recipe_text = json.dumps(recipe, sort_keys=True, indent=2) + "\n"
        if recipe_path.exists() and recipe_path.read_text(encoding="utf-8") == recipe_text:
            return BackboneModel.load(cache)
    tasks = [
        parse_dataset(t, f"{where}.pretrain.tasks[{i}]", split="pretrain")
        for i, t in enumerate(task_specs)
    ]
    model, _ = pretrain_backbone(config, tasks, pre)
    if cache:
        # Replace the cache whole, so no fragment of an earlier model survives.
        tmp = _fresh_tmp_dir(Path(cache))
        model.save(tmp)
        (tmp / "recipe.json").write_text(recipe_text, encoding="utf-8")
        _replace_dir(tmp, Path(cache))
    return model


@dataclass(frozen=True)
class PromptPlan:
    """One component's resolved dimensions plus its declared budget."""

    dims: PromptDims
    budget: int | None

    @property
    def params(self) -> int:
        return self.dims.param_count()


def parse_prompt_block(obj, d: int, component: str, positions: int | None = None) -> PromptPlan:
    """Resolve {m?, K, budget?, r?} into concrete dimensions.

    positions comes from the block's 'm' for prepended prompts and from
    the model grid for added prompts.  When r is omitted it is solved
    from the budget; an explicit r is still checked against the budget.
    """
    _check_types(obj, _BLOCK_TYPES, component)
    K = _require(obj, "K", component)
    validate_partition(d, K)
    if positions is None:
        positions = _require(obj, "m", component)
    budget = obj.get("budget")
    r = obj.get("r")
    if r is None:
        if budget is None:
            raise ConfigError(f"{component}: need 'r' or 'budget'")
        r = solve_rank(budget, d, positions, K)
        if r < 1:
            raise ConfigError(
                f"{component}: budget {budget} cannot afford rank 1 "
                f"(one codeword set costs {d + positions * K})"
            )
    dims = PromptDims(positions=positions, d=d, K=K, r=r)
    return PromptPlan(dims=dims, budget=budget)


def check_budget(plan: PromptPlan, component: str, allow_over: bool) -> None:
    if plan.budget is not None and plan.params > plan.budget and not allow_over:
        raise ConfigError(
            f"{component}: param count {plan.params} exceeds budget {plan.budget} "
            f"(pass --allow-over-budget to run anyway)"
        )


@dataclass(frozen=True)
class SharedInputs:
    """What every cell of a multi-run verb shares: the backbone and the data."""

    model: BackboneModel
    train_set: Dataset
    eval_set: Dataset


@dataclass(frozen=True)
class ResolvedExperiment(SharedInputs):
    run_config: RunConfig
    init: InitStrategy
    scpp: PromptPlan | None
    scap: PromptPlan | None
    direct_prepend: int | None  # row count for a plain prompt-tuning component


def resolve_shared(spec: dict) -> SharedInputs:
    """Check spec's schedule and prompt-block numbers, then resolve its
    backbone and datasets."""
    # Checked before any pretraining, and even when a verb ends up with
    # no cells to resolve.
    _schedule(spec)
    for key in _PROMPT_KEYS:
        if key in spec:
            _check_types(spec[key], _BLOCK_TYPES, key)
    model = parse_backbone(_require(spec, "backbone", "experiment"))
    train_set = parse_dataset(_require(spec, "train_set", "experiment"), "train_set", "train")
    eval_set = parse_dataset(_require(spec, "eval_set", "experiment"), "eval_set", "eval")
    if train_set.num_classes != eval_set.num_classes:
        raise ConfigError(
            f"train/eval class counts differ: {train_set.num_classes} vs {eval_set.num_classes}"
        )
    return SharedInputs(model, train_set, eval_set)


def _schedule(spec: dict) -> tuple[RunConfig, InitStrategy]:
    run_config = _build(RunConfig, spec.get("run", {}), "run")
    init = _build(InitStrategy, spec.get("init", {"kind": "random"}), "init")
    return run_config, init


def resolve_prompts(
    spec: dict, shared: SharedInputs, allow_over_budget: bool = False
) -> ResolvedExperiment:
    """Resolve spec's schedule, init, few-shot subset and prompt blocks against `shared`."""
    run_config, init = _schedule(spec)
    train_set = shared.train_set
    if "fewshot" in spec:
        fewshot = spec["fewshot"]
        _check_types(fewshot, dict.fromkeys(("gamma", "base_seed", "seed_index"), int), "fewshot")
        try:
            train_set = fewshot_sample(train_set, **fewshot)
        except TypeError as err:
            raise ConfigError(f"fewshot: {err}") from None
    d = shared.model.config.d
    scpp = scap = None
    direct = None
    if "scpp" in spec:
        scpp = parse_prompt_block(spec["scpp"], d, "scpp")
        check_budget(scpp, "scpp", allow_over_budget)
    if "scap" in spec:
        scap = parse_prompt_block(spec["scap"], d, "scap", positions=shared.model.config.max_len)
        check_budget(scap, "scap", allow_over_budget)
    if "direct_prepend" in spec:
        if scpp is not None:
            raise ConfigError("direct_prepend and scpp are mutually exclusive")
        direct = _require(spec["direct_prepend"], "m", "direct_prepend")
        if direct < 1:
            raise ConfigError(f"direct_prepend.m must be >= 1, got {direct}")
    if scpp is None and scap is None and direct is None:
        raise ConfigError("experiment needs at least one of scpp, scap, direct_prepend")
    return ResolvedExperiment(
        shared.model, train_set, shared.eval_set, run_config, init, scpp, scap, direct
    )


def resolve_experiment(spec: dict, allow_over_budget: bool = False) -> ResolvedExperiment:
    return resolve_prompts(spec, resolve_shared(spec), allow_over_budget)


def build_prompts(resolved: ResolvedExperiment) -> PromptSet:
    dims_p = resolved.scpp.dims if resolved.scpp else None
    dims_a = resolved.scap.dims if resolved.scap else None
    dtype = resolved.model.config.np_dtype
    seed = resolved.run_config.seed
    if dims_p is not None or dims_a is not None:
        prompts = apply_init(resolved.init, dims_p, dims_a, seed=seed, dtype=dtype)
    else:
        prompts = None
    if resolved.direct_prepend is not None:
        rng = np.random.default_rng((seed, 2))
        rows = rng.normal(0.0, 0.1, size=(resolved.direct_prepend, resolved.model.config.d))
        direct = DirectPrompt(Tensor(rows.astype(dtype), trainable=True, name="pt_rows"))
        prompts = PromptSet(prepended=direct, added=prompts.added if prompts else None)
    return prompts


# -- single run --------------------------------------------------------------------


@dataclass
class RunResult:
    run_id: str
    run_dir: Path
    history: RunHistory
    summary: dict


def run_experiment(
    spec: dict,
    runs_root,
    allow_over_budget: bool = False,
) -> RunResult:
    """Resolve, train, evaluate, and persist one experiment run."""
    return _run_resolved(spec, resolve_experiment(spec, allow_over_budget), runs_root)


def _run_resolved(spec: dict, resolved: ResolvedExperiment, runs_root) -> RunResult:
    run_id = run_id_for(spec)
    run_dir = Path(runs_root) / run_id
    prompts = build_prompts(resolved)

    started = time.perf_counter()
    prompts, history = train(
        resolved.run_config, resolved.model, prompts, resolved.train_set, resolved.eval_set
    )
    wall = time.perf_counter() - started
    final_metric = evaluate(
        resolved.model, prompts, resolved.eval_set, resolved.run_config.metric
    )

    # Write into a hidden sibling and move it over run_dir only once
    # summary.json exists, so an interrupted run never looks finished.
    tmp_dir = _fresh_tmp_dir(run_dir)
    (tmp_dir / "config.json").write_text(
        json.dumps(spec, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    write_csv(
        tmp_dir / "history.csv",
        ["step", "train_loss", "eval_metric"],
        [(r.step, r.train_loss, r.eval_metric) for r in history.records],
    )
    # Persist the best prompts when the run is factorized end to end;
    # a direct component exists only for baseline comparisons.
    best_dir = tmp_dir / "best"
    can_persist = all(
        isinstance(comp, FactorizedPrompt) for _, comp in prompts.components()
    )
    if can_persist and history.best_snapshot is not None:
        final_state = prompts.snapshot()
        prompts.load_snapshot(history.best_snapshot)
        save_checkpoint(best_dir, prompts, history)
        prompts.load_snapshot(final_state)

    counts = {
        "scpp": resolved.scpp.params if resolved.scpp else 0,
        "scap": resolved.scap.params if resolved.scap else 0,
        "direct_prepend": (
            resolved.direct_prepend * resolved.model.config.d if resolved.direct_prepend else 0
        ),
    }
    counts["total"] = sum(counts.values())
    trainable = prompts.trainable_count()
    summary = {
        "run_id": run_id,
        "config_hash": hashlib.sha256(canonical_json(spec).encode()).hexdigest(),
        "name": spec.get("name", ""),
        "metric_name": resolved.run_config.metric,
        "best_metric": history.best.metric if history.best else None,
        "best_step": history.best.step if history.best else None,
        "final_metric": float(final_metric),
        "params": counts,
        "trainable_params": trainable,
        "backbone_hash": resolved.model.hash_params(),
        "wall_time_s": wall,
        "created_unix": time.time(),
    }
    (tmp_dir / "summary.json").write_text(
        json.dumps(summary, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )
    _replace_dir(tmp_dir, run_dir)
    return RunResult(run_id=run_id, run_dir=run_dir, history=history, summary=summary)


def finished_summaries(runs_root) -> list[Path]:
    """summary.json of every finished run under runs_root, in run_id order.

    Hidden directories are the temporary siblings of unfinished runs.
    """
    paths = sorted(Path(runs_root).glob("*/summary.json"))
    return [p for p in paths if not p.parent.name.startswith(".")]


def _fresh_tmp_dir(dest: Path) -> Path:
    """An empty hidden sibling of dest, to be moved over it by _replace_dir."""
    tmp = dest.with_name(f".{dest.name}.tmp-{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    return tmp


def _replace_dir(src: Path, dest: Path) -> None:
    """Rename src to dest; an existing dest is first renamed aside, then deleted."""
    old = dest.with_name(f".{dest.name}.old-{os.getpid()}")
    shutil.rmtree(old, ignore_errors=True)
    if dest.exists():
        dest.rename(old)
    src.rename(dest)
    shutil.rmtree(old, ignore_errors=True)


# -- granularity sweep ----------------------------------------------------------------


def sweep_granularity_rows(
    budget: int,
    d: int,
    positions: int,
    t_values: list[int] | None,
    complement: int = 0,
) -> tuple[list[tuple], list[str]]:
    """Pure arithmetic of the granularity sweep: one row per subspace width.

    t_values None means every divisor of d.  The component under sweep
    gets budget - complement; the complement is the fixed cost of the
    other (non-swept) part and is added back into the reported total so
    totals stay comparable across configurations.

    Returns (rows, notes): rows are (t, K, r, params, total_params) and
    notes describe skipped widths that do not divide d.
    """
    if complement < 0 or complement >= budget:
        raise ConfigError(f"complement {complement} must lie in [0, budget {budget})")
    if t_values is None:
        t_values = [t for t in range(1, d + 1) if d % t == 0]
    effective = budget - complement
    rows = []
    notes = []
    for t in t_values:
        if t < 1 or d % t != 0:
            notes.append(f"t={t} skipped: does not divide d={d}")
            continue
        K = d // t
        r = solve_rank(effective, d, positions, K)
        if r < 1:
            notes.append(f"t={t} skipped: effective budget {effective} affords no codewords")
            continue
        params = param_count(r, d, positions, K)
        rows.append((t, K, r, params, params + complement))
    return rows, notes


def run_sweep_granularity(
    base_spec: dict,
    component: str,
    budget: int,
    t_values: list[int] | None,
    runs_root,
    complement: int = 0,
    positions: int | None = None,
) -> tuple[list[tuple], list[str]]:
    """Train one run per granularity; returns (rows, notes).

    Rows are (t, K, r, params, total_params, metric), metric being the
    run's best eval value.  t_values None sweeps every divisor of d.
    """
    if component not in ("scpp", "scap"):
        raise ConfigError(f"component must be scpp or scap, got {component!r}")
    shared = resolve_shared(base_spec)
    d = shared.model.config.d
    if component == "scpp":
        if positions is None:
            positions = _require(_require(base_spec, "scpp", "experiment"), "m", "scpp")
    else:
        positions = shared.model.config.max_len
    plan_rows, notes = sweep_granularity_rows(budget, d, positions, t_values, complement)

    cell_specs = []
    for t, K, r, _, _ in plan_rows:
        block = {"m": positions, "K": K, "r": r} if component == "scpp" else {"K": K, "r": r}
        cell_specs.append(
            _cell_spec(base_spec, f"granularity-{component}-t{t}", {component: block})
        )

    results = _run_cells(cell_specs, shared, runs_root)
    rows = [
        plan + (res.summary["best_metric"],) for plan, res in zip(plan_rows, results)
    ]
    return rows, notes


_PROMPT_KEYS = ("scpp", "scap", "direct_prepend")


def _cell_spec(base_spec: dict, name: str, fields: dict) -> dict:
    """A deep copy of base_spec whose prompt components are exactly those in
    `fields`; the other entries of `fields` replace base_spec's."""
    spec = {k: v for k, v in base_spec.items() if k not in _PROMPT_KEYS}
    spec.update(fields)
    spec["name"] = name
    return json.loads(json.dumps(spec))


def _run_cells(cell_specs: list[dict], shared: SharedInputs, runs_root) -> list[RunResult]:
    """Resolve every cell against `shared`, so a bad cell fails before any
    trains, then train them in order."""
    resolved = [resolve_prompts(spec, shared) for spec in cell_specs]
    return [_run_resolved(spec, res, runs_root) for spec, res in zip(cell_specs, resolved)]


# -- ablation grid ------------------------------------------------------------------------


ABLATION_CELLS = ("pp", "pp+lc", "pp+lc+ps", "pp+ap", "pp+lc+ap", "pp+lc+ps+ap")


def run_ablate(
    base_spec: dict,
    axes: list[str],
    runs_root,
) -> tuple[list[tuple], list[str]]:
    """Toggle grid over {learnable codebook, subdivision, added prompts}.

    Every cell spends the same total budget (scpp budget + scap budget
    from the base spec).  pp alone is plain prompt tuning; lc swaps in a
    K=1 codebook; ps restores the configured K; ap adds the second
    component at its own budget.  Cells whose toggles are outside the
    requested axes are omitted; infeasible cells are skipped with a note.
    """
    allowed = {"pp", "lc", "ps", "ap"}
    bad = set(axes) - allowed
    if bad:
        raise ConfigError(f"unknown ablation axes {sorted(bad)}; choose from {sorted(allowed)}")
    if "pp" not in axes:
        raise ConfigError("ablation grid is anchored on prepended prompts; include 'pp'")
    shared = resolve_shared(base_spec)
    d = shared.model.config.d
    scpp_block = _require(base_spec, "scpp", "ablate")
    scap_block = _require(base_spec, "scap", "ablate")
    m = _require(scpp_block, "m", "scpp")
    full_k = _require(scpp_block, "K", "scpp")
    scpp_budget = _require(scpp_block, "budget", "scpp")
    scap_budget = _require(scap_block, "budget", "scap")
    total_budget = scpp_budget + scap_budget

    cell_specs = []
    plan = []
    notes = []
    for cell in ABLATION_CELLS:
        toggles = set(cell.split("+"))
        if not toggles <= set(axes):
            continue
        budget_pp = total_budget if "ap" not in toggles else scpp_budget
        if "lc" in toggles:
            K = full_k if "ps" in toggles else 1
            r = solve_rank(budget_pp, d, m, K)
            if r < 1:
                notes.append(f"{cell} skipped: budget {budget_pp} affords no codewords at K={K}")
                continue
            blocks = {"scpp": {"m": m, "K": K, "r": r, "budget": budget_pp}}
            params_pp = param_count(r, d, m, K)
        else:
            rows = budget_pp // d
            if rows < 1:
                notes.append(f"{cell} skipped: budget {budget_pp} affords no prompt rows")
                continue
            blocks = {"direct_prepend": {"m": rows}}
            params_pp = rows * d
        params_ap = 0
        if "ap" in toggles:
            blocks["scap"] = scap_block
            params_ap = parse_prompt_block(
                scap_block, d, "scap", positions=shared.model.config.max_len
            ).params
        plan.append((cell, params_pp, params_ap, params_pp + params_ap))
        cell_specs.append(_cell_spec(base_spec, f"ablate-{cell}", blocks))

    results = _run_cells(cell_specs, shared, runs_root)
    rows = [
        (cell, pp_params, ap_params, total, res.summary["best_metric"])
        for (cell, pp_params, ap_params, total), res in zip(plan, results)
    ]
    return rows, notes


# -- few-shot protocol ----------------------------------------------------------------------


def run_fewshot(
    base_spec: dict,
    gammas: list[int],
    num_seeds: int,
    runs_root,
) -> dict:
    """Per-gamma few-shot runs plus mean/std aggregation.

    Each (gamma, seed index i) is one cell: base_spec with run.seed =
    base seed + i and a `fewshot` field that names its training subset.
    A cell's value is its best eval metric, or its final one when it has
    no best.  Every value is re-read out of the written CSV before
    aggregating, so the summary provably matches the files.  The CSVs go
    into a hidden sibling that replaces fewshot-<id>/ once summary.csv
    exists.
    """
    if num_seeds < 1:
        raise ConfigError(f"need at least one seed, got {num_seeds}")
    if any(g < 1 for g in gammas):
        raise ConfigError(f"gammas must be positive, got {gammas}")
    if len(set(gammas)) != len(gammas):
        raise ConfigError(f"duplicate gammas in {gammas}")
    shared = resolve_shared(base_spec)
    base_seed = _schedule(base_spec)[0].seed
    prompts = {k: v for k, v in base_spec.items() if k in _PROMPT_KEYS}
    cell_specs = [
        _cell_spec(base_spec, f"fewshot-gamma{gamma}-seed{i}", {
            **prompts,
            "run": {**base_spec.get("run", {}), "seed": base_seed + i},
            "fewshot": {"gamma": gamma, "base_seed": base_seed, "seed_index": i},
        })
        for gamma in gammas
        for i in range(num_seeds)
    ]
    results = _run_cells(cell_specs, shared, runs_root)

    sweep_dir = Path(runs_root) / f"fewshot-{run_id_for(base_spec)}"
    tmp_dir = _fresh_tmp_dir(sweep_dir)
    for k, gamma in enumerate(gammas):
        rows = []
        for i, res in enumerate(results[k * num_seeds:(k + 1) * num_seeds]):
            best = res.summary["best_metric"]
            value = best if best is not None else res.summary["final_metric"]
            rows.append((res.summary["metric_name"], value, i))
        write_csv(tmp_dir / f"gamma{gamma}.csv", ["metric", "value", "seed"], rows)

    # Aggregate strictly from what the per-run files say.
    agg_rows = []
    for gamma in gammas:
        _, raw_rows = read_csv_rows(tmp_dir / f"gamma{gamma}.csv")
        values = [float(row[1]) for row in raw_rows]
        mean, std = fewshot_report(values)
        agg_rows.append((gamma, mean, std, len(values)))
    write_csv(tmp_dir / "summary.csv", ["gamma", "mean", "std", "n_seeds"], agg_rows)
    _replace_dir(tmp_dir, sweep_dir)
    return {
        "dir": sweep_dir,
        "per_gamma": {gamma: sweep_dir / f"gamma{gamma}.csv" for gamma in gammas},
        "summary": sweep_dir / "summary.csv",
        "rows": agg_rows,
    }


# -- prompt-length sweep -----------------------------------------------------------------------


def run_length_sweep(
    base_spec: dict,
    lengths: list[int],
    runs_root,
) -> list[tuple]:
    """Metric and relative wall time per prompt length at a fixed budget.

    The rank is re-solved per length; length 0 drops the prepended
    component entirely.  Wall times are normalized to the largest
    requested length, whose entry is exactly 1.0.  The time column is the
    one deliberately non-reproducible output: it measures this host.
    """
    if not lengths:
        raise ConfigError("need at least one length")
    if any(m < 0 for m in lengths):
        raise ConfigError(f"lengths must be >= 0, got {lengths}")
    if len(set(lengths)) != len(lengths):
        raise ConfigError(f"duplicate lengths in {lengths}")
    shared = resolve_shared(base_spec)
    d = shared.model.config.d
    scpp_block = _require(base_spec, "scpp", "length sweep")
    K = _require(scpp_block, "K", "scpp")
    budget = _require(scpp_block, "budget", "scpp")
    added = {"scap": base_spec["scap"]} if "scap" in base_spec else {}

    cell_specs = []
    for m in lengths:
        blocks = dict(added)
        if m == 0:
            if not added:
                raise ConfigError("length 0 needs a scap block to train")
        else:
            r = solve_rank(budget, d, m, K)
            if r < 1:
                raise ConfigError(f"budget {budget} affords no codewords at m={m}")
            blocks["scpp"] = {"m": m, "K": K, "r": r, "budget": budget}
        cell_specs.append(_cell_spec(base_spec, f"length-m{m}", blocks))

    results = _run_cells(cell_specs, shared, runs_root)
    ref_time = results[lengths.index(max(lengths))].summary["wall_time_s"]
    return [
        (m, res.summary["best_metric"], res.summary["wall_time_s"] / ref_time)
        for m, res in zip(lengths, results)
    ]
