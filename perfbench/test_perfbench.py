"""Tests of the benchmark itself, on shrunken workloads.

Run from the repository root: ``python3 -m pytest perfbench``.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import probes  # noqa: E402
import workloads  # noqa: E402

SMALL = workloads.Sizes(
    setup_reps=2,
    adapt_steps=4,
    adapt_eval_interval=2,
    adapt_train_n=64,
    adapt_eval_n=64,
    eval_n=64,
    pretrain_steps=40,
    pretrain_source_n=128,
    pretrain_window=10,
)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_lists_the_workloads_the_harness_runs():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
def test_small_run_emits_every_declared_metric(workload, trace, tmp_path):
    result = workloads.run(workload, seed=3, seconds=0.0, trace=trace,
                           workdir=tmp_path, sizes=SMALL)
    assert result.correct, [c for c in result.checks if not c.ok] + result.notes["errors"]
    assert result.failed == 0 and result.attempted > 0
    got = {name: unit for name, (_, unit, _) in result.metrics.items()}
    assert got == _declared("per_layer" if trace else "end_to_end")
    if not trace:
        assert all(value > 0 for value, _, _ in result.metrics.values())


def test_backbone_mutated_mid_run_counts_as_failed(tmp_path, monkeypatch):
    real_import = workloads.import_accept

    def import_with_mutation():
        acc = real_import()
        model_cls = acc.backbone.BackboneModel
        forward = model_cls.forward
        calls = []

        def mutating_forward(self, assembled):
            calls.append(1)
            if len(calls) == 2:  # inside the training loop of the unit
                emb = self.params["emb"]
                self.params["emb"] = acc.tensor.Tensor(emb.data + 1e-3, name="emb", dtype=emb.dtype)
            return forward(self, assembled)

        monkeypatch.setattr(model_cls, "forward", mutating_forward)
        return acc

    monkeypatch.setattr(workloads, "import_accept", import_with_mutation)
    result = workloads.run("adapt", seed=3, seconds=0.0, trace=False,
                           workdir=tmp_path, sizes=SMALL)
    failed = {c.name for c in result.checks if not c.ok}
    assert "unit0.backbone_hash" in failed
    assert result.failed >= 1 and not result.correct


def _bindings(acc) -> dict:
    snap = {}
    for mod in probes.accept_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = value
    for cls in (acc.backbone.BackboneModel, acc.optim.AdamW):
        for attr, value in vars(cls).items():
            snap[(cls.__qualname__, attr)] = value
    return snap


def test_tracer_and_probe_restore_every_wrapped_attribute():
    acc = workloads.import_accept()
    before = _bindings(acc)
    with pytest.raises(RuntimeError):
        with probes.Probe(acc, "optim"):
            with probes.Tracer(acc):
                during = _bindings(acc)
                raise RuntimeError("unit failed")
    changed = {key for key in before if during[key] is not before[key]}
    # Every lookup site of a wrapped name is rebound, not just the defining module.
    for key in [("accept.tensor", "matmul"), ("accept.training", "compose"),
                ("accept.factorization", "compose"), ("accept.experiments", "evaluate"),
                ("accept.cli", "run_experiment"), ("accept.backbone", "write_fragment"),
                ("BackboneModel", "forward"), ("AdamW", "step")]:
        assert key in changed
    after = _bindings(acc)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    cmd = [sys.executable, *SPEC["command"][1:],
           "--workload", "adapt", "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
