"""Criterion 7's margin over several backbone pretrain seeds.

Criterion 7 (tests/test_acceptance.py) pretrains the desk backbone once,
with pretrain seed 0, and asks the factorized prompt to reach 0.95 test
accuracy on at least 2 of 3 adaptation seeds.  This script runs the same
protocol (same recipe, data and runs, through the same helpers the test
uses) on backbones pretrained with other seeds, and prints the factorized
and plain prompt-tuning scores side by side.  It gates nothing and always
exits 0; it measures how much room the criterion has.

    PYTHONPATH=src python3 scripts/criterion7_margin.py --pretrain-seeds 0,1,2,3

Each pretrain seed costs one desk pretrain plus six desk adaptations.
"""
from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from conftest import desk_pair_match, pretrain_desk_backbone  # noqa: E402
from test_acceptance import criterion_7_scores  # noqa: E402

TARGET = 0.95  # criterion 7's accuracy bar
ADAPT_SEEDS = (0, 1, 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--pretrain-seeds", default="0,1,2,3",
                        help="comma-separated backbone pretrain seeds")
    args = parser.parse_args(argv)
    pretrain_seeds = [int(s) for s in args.pretrain_seeds.split(",")]

    train_set, test_set = desk_pair_match()
    print("pretrain_seed adapt_seed factorized plain_pt factorized-plain_pt")
    cells = []
    for ps in pretrain_seeds:
        t0 = time.perf_counter()
        model, report = pretrain_desk_backbone(ps)
        fact, plain, fact_budget, plain_budget = criterion_7_scores(
            model, train_set, test_set, ADAPT_SEEDS
        )
        for s, a, v in zip(ADAPT_SEEDS, fact, plain):
            print(f"{ps:13d} {s:10d} {a:10.4f} {v:8.4f} {a - v:+19.4f}")
            cells.append((a, v))
        wins = sum(a >= TARGET for a in fact)
        sources = ", ".join(f"{k} {v:.3f}" for k, v in sorted(report.items()))
        print(f"# pretrain seed {ps}: factorized >= {TARGET} on {wins}/{len(ADAPT_SEEDS)} "
              f"({'pass' if wins >= 2 else 'fail'}); source accuracy "
              f"{sources}; {time.perf_counter() - t0:.0f} s", flush=True)

    n = len(cells)
    print(f"# {n} cells, factorized @{fact_budget} params vs plain @{plain_budget}: "
          f"factorized >= {TARGET} in {sum(a >= TARGET for a, _ in cells)}/{n}, "
          f"plain >= {TARGET} in {sum(v >= TARGET for _, v in cells)}/{n}, "
          f"factorized below plain in {sum(a < v for a, v in cells)}/{n}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
