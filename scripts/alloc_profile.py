"""Wall time, minor page faults and peak RSS of desk evaluate and pretrain calls.

Each phase runs in a fresh child process, so its peak RSS is its own:

* ``eval``: a frozen, randomly initialised desk backbone (d=64, 2 layers)
  and the README's combined prompt (scpp K=4 at 512 params, scap K=2 at
  512 params, trainable, as during adaptation) evaluated on 512-example
  pair-match and majority sets at m = 4, 16 and 64, ``--repeats`` rounds;
* ``pretrain``: ``pretrain_backbone`` for ``--pretrain-steps`` desk steps
  (batch 32) on 2048-example majority and pair-match sources.

For every call it prints the wall time and the minor page faults
(``ru_minflt``) the call took; each phase ends with the process's peak RSS.
After its timed rounds the eval phase runs one more round under
``tracemalloc`` and prints each call's traced peak (numpy arrays and Python
objects, not the allocator's slack) next to its wall time, which tracing
slows.
BLAS runs one thread unless the environment says otherwise, as in
perfbench.  It gates nothing and always exits 0.

    PYTHONPATH=src python3 scripts/alloc_profile.py
    PYTHONPATH=src python3 scripts/alloc_profile.py --phase eval --repeats 2
"""
from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import time
import tracemalloc

PROMPT_LENGTHS = (4, 16, 64)
TASKS = (
    ("pair-match", {"length": 7, "vocab_size": 16}),
    ("majority", {"length": 12, "vocab_size": 128}),
)


def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed(fn) -> tuple[float, int]:
    """(wall seconds, minor page faults) of one call of fn."""
    f0, t0 = _minflt(), time.perf_counter()
    fn()
    return time.perf_counter() - t0, _minflt() - f0


def desk_eval_setup(m: int, seed: int = 0):
    """(frozen desk model, trainable combined prompts at length m)."""
    from accept.backbone import BackboneConfig, BackboneModel
    from accept.factorization import PromptDims, solve_rank
    from accept.training import InitStrategy, apply_init

    config = BackboneConfig()
    model = BackboneModel.random_init(config, seed)
    model.freeze()
    dims_p = PromptDims(positions=m, d=config.d, K=4, r=solve_rank(512, config.d, m, 4))
    dims_a = PromptDims(positions=config.max_len, d=config.d, K=2,
                        r=solve_rank(512, config.d, config.max_len, 2))
    return model, apply_init(InitStrategy(), dims_p, dims_a, seed=seed)


def desk_task(kind: str, n: int, seed: int, split: str = "eval"):
    from accept.tasks import gen_task

    return gen_task(kind, n=n, seed=seed, split=split, **dict(TASKS)[kind])


def phase_eval(repeats: int) -> None:
    from accept.training import evaluate

    datasets = [desk_task(kind, 512, seed=100 + i) for i, (kind, _) in enumerate(TASKS)]
    setups = {m: desk_eval_setup(m) for m in PROMPT_LENGTHS}
    print("round     m task        wall_ms  minflt")
    total = 0
    for rnd in range(repeats):
        for m in PROMPT_LENGTHS:
            model, prompts = setups[m]
            for ds in datasets:
                wall, flt = _timed(lambda: evaluate(model, prompts, ds))
                total += flt
                print(f"{rnd:5d} {m:5d} {ds.kind:11s} {wall * 1e3:8.1f} {flt:7d}", flush=True)
    calls = repeats * len(PROMPT_LENGTHS) * len(datasets)
    print(f"# eval: {calls} calls, {total} minor faults, peak_rss_mb {_peak_rss_mb():.1f}")
    print("traced    m task        wall_ms  peak_mb")
    tracemalloc.start()
    for m in PROMPT_LENGTHS:
        model, prompts = setups[m]
        for ds in datasets:
            tracemalloc.reset_peak()
            wall, _ = _timed(lambda: evaluate(model, prompts, ds))
            peak = tracemalloc.get_traced_memory()[1] / 1e6
            print(f"{'':5s} {m:5d} {ds.kind:11s} {wall * 1e3:8.1f} {peak:8.1f}", flush=True)
    tracemalloc.stop()


def phase_pretrain(steps: int) -> None:
    from accept.backbone import BackboneConfig, PretrainConfig, pretrain_backbone

    sources = [desk_task(kind, 2048, seed=200 + i, split="pretrain")
               for i, (kind, _) in enumerate(TASKS)]
    pre = PretrainConfig(steps=steps, batch_size=32, lr=5e-3, warmup=min(100, steps), seed=0)
    wall, flt = _timed(lambda: pretrain_backbone(BackboneConfig(), sources, pre))
    print(f"# pretrain: {steps} steps in {wall:.2f} s, {flt} minor faults, "
          f"peak_rss_mb {_peak_rss_mb():.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--phase", choices=("all", "eval", "pretrain"), default="all")
    parser.add_argument("--repeats", type=int, default=6,
                        help="rounds over every (m, task) evaluate call")
    parser.add_argument("--pretrain-steps", type=int, default=150)
    args = parser.parse_args(argv)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # read when numpy first loads
    if args.phase == "eval":
        phase_eval(args.repeats)
    elif args.phase == "pretrain":
        phase_pretrain(args.pretrain_steps)
    else:
        for phase in ("eval", "pretrain"):
            subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--phase", phase,
                 "--repeats", str(args.repeats), "--pretrain-steps", str(args.pretrain_steps)],
                check=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
