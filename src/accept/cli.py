"""Command-line surface: budget arithmetic, training runs, sweeps, reports.

Exit codes are a stable scripting contract: 0 success, 1 runtime failure
(diverged training, unreadable data, sampling errors), 2 usage or config
error (bad flags, malformed config, infeasible budgets).
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .backbone import ArchitectureError, VocabError
from .checkpoint import CheckpointFormatError
from .experiments import (
    ConfigError,
    finished_summaries,
    load_config,
    parse_dataset,
    resolve_experiment,
    run_ablate,
    run_experiment,
    run_fewshot,
    run_length_sweep,
    run_sweep_granularity,
    runs_root_from_env,
    sweep_granularity_rows,
    write_csv,
)
from .factorization import (
    DimensionError,
    InitError,
    PartitionError,
    codeword_capacity,
    param_count,
    solve_rank,
    validate_partition,
)
from .metrics import MetricError
from .optim import TrainingError
from .tasks import DatasetError, SamplingError, TaskConfigError
from .tensor import NonFiniteError
from .training import ContractError, evaluate, load_checkpoint

__all__ = ["main"]

# Misconfiguration the operator must fix before the run can start.
_CONFIG_ERRORS = (
    ConfigError,
    TaskConfigError,
    PartitionError,
    DimensionError,
    InitError,
    ContractError,
    ArchitectureError,
    MetricError,
)
# Failures of the run itself or of its inputs.
_RUNTIME_ERRORS = (
    TrainingError,
    SamplingError,
    NonFiniteError,
    DatasetError,
    VocabError,
    CheckpointFormatError,
    OSError,
)


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _print_rows(header: list[str], rows: list[tuple]) -> None:
    print(",".join(header))
    for row in rows:
        print(",".join(str(v) if not isinstance(v, float) else repr(v) for v in row))


def _emit(header, rows, out: str | None) -> None:
    if out:
        write_csv(out, header, rows)
        print(f"wrote {out}")
    else:
        _print_rows(header, rows)


def _notes(notes: list[str]) -> None:
    for note in notes:
        print(f"note: {note}", file=sys.stderr)


# -- verbs ----------------------------------------------------------------------


def cmd_budget(args) -> int:
    validate_partition(args.d, args.K)
    if args.r is not None:
        r = args.r
    else:
        if args.budget is None:
            raise ConfigError("need --budget or --r")
        r = solve_rank(args.budget, args.d, args.positions, args.K)
    params = param_count(r, args.d, args.positions, args.K) if r >= 1 else 0
    capacity = codeword_capacity(r, args.K) if r >= 1 else 0
    print(f"d={args.d} positions={args.positions} K={args.K} t={args.d // args.K}")
    print(f"r={r}")
    print(f"params={params}")
    print(f"capacity={capacity}")
    if args.budget is not None and params > args.budget:
        print(f"over budget by {params - args.budget}", file=sys.stderr)
        return 2
    return 0


def cmd_train(args) -> int:
    spec = load_config(args.config)
    result = run_experiment(
        spec,
        runs_root_from_env(args.runs_dir),
        allow_over_budget=args.allow_over_budget,
    )
    print(f"run {result.run_id} -> {result.run_dir}")
    best = result.summary["best_metric"]
    print(f"best={best} final={result.summary['final_metric']}")
    print(f"params={result.summary['params']['total']}")
    return 0


def cmd_eval(args) -> int:
    run_dir = Path(args.run_dir)
    spec = load_config(run_dir / "config.json")
    resolved = resolve_experiment(spec, allow_over_budget=True)
    best_dir = run_dir / "best"
    if not best_dir.exists():
        raise ConfigError(f"{run_dir} has no best/ checkpoint to evaluate")
    trained_on = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))["backbone_hash"]
    current = resolved.model.hash_params()
    if trained_on != current:
        raise ConfigError(f"{run_dir} was trained on backbone {trained_on}, config gives {current}")
    prompts, _ = load_checkpoint(best_dir, trainable=False)
    if args.dataset:
        dataset = parse_dataset(json.loads(args.dataset), "dataset", split="eval")
    else:
        dataset = resolved.eval_set
    score = evaluate(resolved.model, prompts, dataset, resolved.run_config.metric)
    print(f"{resolved.run_config.metric}={score!r}")
    return 0


def cmd_sweep_granularity(args) -> int:
    if args.no_train:
        if args.d is None or args.positions is None:
            raise ConfigError("--no-train needs explicit --d and --positions")
        rows, notes = sweep_granularity_rows(
            args.budget, args.d, args.positions, args.t_values, complement=args.complement
        )
        _notes(notes)
        _emit(["t", "K", "r", "params", "total_params"], rows, args.out)
        return 0
    if args.config is None:
        raise ConfigError("training sweep needs --config (or pass --no-train)")
    rows, notes = run_sweep_granularity(
        load_config(args.config),
        component=args.component,
        budget=args.budget,
        t_values=args.t_values,
        runs_root=runs_root_from_env(args.runs_dir),
        complement=args.complement,
        positions=args.positions,
        jobs=args.jobs,
    )
    _notes(notes)
    _emit(["t", "K", "r", "params", "total_params", "metric"], rows, args.out)
    return 0


def cmd_ablate(args) -> int:
    spec = load_config(args.config)
    rows, notes = run_ablate(
        spec,
        axes=args.axes,
        runs_root=runs_root_from_env(args.runs_dir),
        jobs=args.jobs,
    )
    _notes(notes)
    _emit(["cell", "params_prepended", "params_added", "params_total", "metric"], rows, args.out)
    return 0


def cmd_fewshot(args) -> int:
    spec = load_config(args.config)
    result = run_fewshot(
        spec,
        gammas=args.gamma,
        num_seeds=args.seeds,
        runs_root=runs_root_from_env(args.runs_dir),
    )
    print(f"wrote {result['summary']}")
    _print_rows(["gamma", "mean", "std", "n_seeds"], result["rows"])
    return 0


def cmd_length_sweep(args) -> int:
    spec = load_config(args.config)
    rows = run_length_sweep(
        spec,
        lengths=args.lengths,
        runs_root=runs_root_from_env(args.runs_dir),
        jobs=args.jobs,
    )
    _emit(["m", "metric", "relative_wall_time"], rows, args.out)
    return 0


def cmd_report(args) -> int:
    root = runs_root_from_env(args.runs_dir)
    if not root.exists():
        raise ConfigError(f"runs directory {root} does not exist")
    rows = []
    for summary_path in finished_summaries(root):
        data = json.loads(summary_path.read_text(encoding="utf-8"))
        rows.append(
            (
                data["run_id"],
                data.get("name", ""),
                data["metric_name"],
                data["best_metric"] if data["best_metric"] is not None else "",
                data["final_metric"],
                data["params"]["total"],
                data["trainable_params"],
            )
        )
    header = [
        "run_id",
        "name",
        "metric",
        "best_metric",
        "final_metric",
        "params_total",
        "trainable_params",
    ]
    _emit(header, rows, args.out)
    return 0


# -- parser ----------------------------------------------------------------------


def _add_runs_dir(p: argparse.ArgumentParser) -> None:
    p.add_argument("--runs-dir", default=None, help="output root (default $ACCEPT_RUNS_DIR or ./runs)")


def _add_jobs(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=1, help="parallel sweep cells")


def _add_out(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="write CSV here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="accept",
        description="Factorized soft-prompt adaptation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("budget", help="solve the codebook rank for a parameter budget")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--positions", type=int, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--r", type=int, default=None, help="explicit rank (skips solving)")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("train", help="run one experiment config")
    p.add_argument("config")
    p.add_argument("--allow-over-budget", action="store_true")
    _add_runs_dir(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="re-evaluate a finished run's best prompts")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--dataset", default=None, help="inline dataset spec JSON (default: config eval set)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-granularity", help="sweep subspace width t at fixed budget")
    p.add_argument("--component", choices=("scpp", "scap"), default="scpp")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--complement", type=int, default=0,
                   help="params reserved for the non-swept component")
    p.add_argument("--t-values", type=_int_list, default=None,
                   help="comma-separated widths (default: all divisors of d)")
    p.add_argument("--no-train", action="store_true",
                   help="emit the parameter table only (needs --d/--positions)")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--positions", type=int, default=None)
    p.add_argument("--config", default=None)
    _add_runs_dir(p)
    _add_jobs(p)
    _add_out(p)
    p.set_defaults(func=cmd_sweep_granularity)

    p = sub.add_parser("ablate", help="component toggle grid at matched budgets")
    p.add_argument("config")
    p.add_argument("--axes", type=lambda s: s.split(","), default=["pp", "lc", "ps", "ap"],
                   help="comma-separated toggles from pp,lc,ps,ap")
    _add_runs_dir(p)
    _add_jobs(p)
    _add_out(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("fewshot", help="gamma-shot runs with mean/std aggregation")
    p.add_argument("config")
    p.add_argument("--gamma", type=_int_list, default=[4, 16, 32])
    p.add_argument("--seeds", type=int, default=3)
    _add_runs_dir(p)
    p.set_defaults(func=cmd_fewshot)

    p = sub.add_parser("length-sweep", help="prompt length vs metric at fixed budget")
    p.add_argument("config")
    p.add_argument("--lengths", type=_int_list, required=True)
    _add_runs_dir(p)
    _add_jobs(p)
    _add_out(p)
    p.set_defaults(func=cmd_length_sweep)

    p = sub.add_parser("report", help="aggregate run summaries into one table")
    _add_runs_dir(p)
    _add_out(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _RUNTIME_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
