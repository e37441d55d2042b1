"""CLI and experiment-orchestration tests.

Everything here runs against a deliberately tiny backbone (d=16, one
layer) so the full file stays in the seconds range.  The backbone is
pretrained once per module and cached on disk; configs reference the
cache through the inline-backbone path to exercise config resolution.
"""
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from accept.cli import main
from accept.experiments import (
    ConfigError,
    canonical_json,
    read_csv_rows,
    run_id_for,
    sweep_granularity_rows,
    write_csv,
)

TABLE_T = [16, 32, 64, 96, 128, 192, 256, 384, 768]
PREPEND_R = [12, 20, 30, 36, 40, 45, 48, 51, 55]
PREPEND_TOTAL = [74496, 74880, 75360, 75648, 75840, 76080, 76224, 76008, 76260]
ADDED_R = [2, 4, 8, 10, 13, 17, 20, 24, 30]
ADDED_TOTAL = [72192, 73728, 76800, 74240, 76032, 76544, 76800, 76800, 76800]


@pytest.fixture(scope="module")
def tiny_backbone_dir(tmp_path_factory):
    """Pretrain the d=16 test backbone once and reuse the saved copy."""
    from accept.backbone import BackboneConfig, PretrainConfig, pretrain_backbone
    from accept.tasks import gen_task

    cache = tmp_path_factory.mktemp("bb") / "tiny"
    cfg = BackboneConfig(
        d=16, layers=1, heads=2, vocab_size=32, max_len=8, num_classes=2, dtype="f32"
    )
    task = gen_task("majority", n=64, length=6, vocab_size=32, seed=3)
    model, _ = pretrain_backbone(
        cfg, [task], PretrainConfig(steps=20, batch_size=8, lr=2e-3, warmup=5, seed=0)
    )
    model.save(cache)
    return cache


def base_config(backbone_dir, **overrides):
    spec = {
        "name": "cli-test",
        "backbone": {"path": str(backbone_dir)},
        "train_set": {"kind": "majority", "n": 64, "length": 6, "vocab_size": 32, "seed": 5},
        "eval_set": {"kind": "majority", "n": 32, "length": 6, "vocab_size": 32, "seed": 6},
        "scpp": {"m": 2, "K": 2, "budget": 100},
        "run": {
            "steps": 20,
            "batch_size": 8,
            "warmup_steps": 5,
            "eval_interval": 10,
            "seed": 1,
        },
    }
    spec.update(overrides)
    return spec


def write_config(tmp_path, spec, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec), encoding="utf-8")
    return str(path)


# -- budget verb ------------------------------------------------------------------


def test_budget_solves_reference_prepended_cell(capsys):
    assert main(["budget", "--d", "768", "--positions", "60", "--K", "24",
                 "--budget", "46080"]) == 0
    out = capsys.readouterr().out
    assert "r=20" in out
    assert "params=44160" in out


def test_budget_solves_reference_added_cell(capsys):
    assert main(["budget", "--d", "768", "--positions", "256", "--K", "2",
                 "--budget", "30720"]) == 0
    out = capsys.readouterr().out
    assert "r=24" in out
    assert "params=30720" in out


def test_budget_zero_gives_rank_zero(capsys):
    assert main(["budget", "--d", "64", "--positions", "4", "--K", "2",
                 "--budget", "0"]) == 0
    out = capsys.readouterr().out
    assert "r=0" in out
    assert "params=0" in out


def test_budget_capacity_is_exact_bigint(capsys):
    assert main(["budget", "--d", "768", "--positions", "60", "--K", "24",
                 "--r", "20"]) == 0
    out = capsys.readouterr().out
    assert f"capacity={20 ** 24}" in out


def test_budget_rejects_bad_partition(capsys):
    assert main(["budget", "--d", "10", "--positions", "2", "--K", "3",
                 "--budget", "50"]) == 2


def test_budget_explicit_r_over_budget_exits_2(capsys):
    assert main(["budget", "--d", "64", "--positions", "4", "--K", "2",
                 "--r", "100", "--budget", "10"]) == 2


@pytest.mark.parametrize("flag,value", [("--positions", "-1"), ("--budget", "-5"), ("--r", "-2")])
def test_budget_rejects_a_negative_count_or_rank_below_one(flag, value, capsys):
    # The last of a repeated flag wins.
    assert main(["budget", "--d", "64", "--positions", "4", "--K", "2", "--budget", "100",
                 flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {flag} must be >= {1 if flag == '--r' else 0}, got {value}\n"
    assert captured.out == ""

def test_unknown_verb_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["nonsense"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["budget", "--d", "64"])
    assert exc.value.code == 2


# -- granularity sweep (counting) ------------------------------------------------------


def test_sweep_rows_reproduce_prepended_table():
    rows, notes = sweep_granularity_rows(
        budget=76800, d=768, positions=60, t_values=TABLE_T, complement=30720
    )
    assert notes == []
    assert [r for _, _, r, _, _ in rows] == PREPEND_R
    assert [tot for *_, tot in rows] == PREPEND_TOTAL


def test_sweep_rows_reproduce_added_table():
    rows, _ = sweep_granularity_rows(
        budget=76800, d=768, positions=256, t_values=TABLE_T, complement=46080
    )
    assert [r for _, _, r, _, _ in rows] == ADDED_R
    assert [tot for *_, tot in rows] == ADDED_TOTAL


def test_sweep_rows_skip_non_divisors_with_note():
    rows, notes = sweep_granularity_rows(budget=1000, d=64, positions=4, t_values=[7, 16])
    assert [t for t, *_ in rows] == [16]
    assert any("t=7" in n for n in notes)


def test_sweep_rows_reject_complement_at_or_over_budget():
    with pytest.raises(ConfigError):
        sweep_granularity_rows(budget=100, d=16, positions=2, t_values=[4], complement=100)


def test_sweep_no_train_cli_emits_table(capsys):
    argv = ["sweep-granularity", "--no-train", "--budget", "76800",
            "--complement", "30720", "--d", "768", "--positions", "60",
            "--t-values", ",".join(str(t) for t in TABLE_T)]
    assert main(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "t,K,r,params,total_params"
    got = [tuple(int(v) for v in ln.split(",")) for ln in lines[1:]]
    assert [g[2] for g in got] == PREPEND_R
    assert [g[4] for g in got] == PREPEND_TOTAL


def test_sweep_no_train_requires_dims(capsys):
    assert main(["sweep-granularity", "--no-train", "--budget", "100"]) == 2


# -- csv + run id plumbing ---------------------------------------------------------------


def test_write_csv_byte_stable(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    rows = [(1, 0.1, "x"), (2, 0.25, "y")]
    write_csv(p1, ["i", "v", "s"], rows)
    write_csv(p2, ["i", "v", "s"], rows)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")
    assert b"\r" not in p1.read_bytes()


def test_write_csv_floats_round_trip(tmp_path):
    vals = [0.1, 1 / 3, 2.5e-17, 1e300]
    write_csv(tmp_path / "f.csv", ["v"], [(v,) for v in vals])
    _, rows = read_csv_rows(tmp_path / "f.csv")
    assert [float(r[0]) for r in rows] == vals


def test_write_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ConfigError):
        write_csv(tmp_path / "r.csv", ["a", "b"], [(1,)])


def test_run_id_ignores_key_order():
    assert run_id_for({"a": 1, "b": [2, 3]}) == run_id_for({"b": [2, 3], "a": 1})


def test_run_id_sensitive_to_values():
    assert run_id_for({"a": 1}) != run_id_for({"a": 2})


def test_canonical_json_is_compact_and_sorted():
    assert canonical_json({"b": 1, "a": [1.5, None]}) == '{"a":[1.5,null],"b":1}'


# -- train verb ------------------------------------------------------------------------


def test_train_writes_run_directory(tmp_path, tiny_backbone_dir, capsys):
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir))
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 0
    run_dirs = list((tmp_path / "runs").iterdir())
    assert len(run_dirs) == 1
    rd = run_dirs[0]
    assert (rd / "config.json").exists()
    assert (rd / "history.csv").exists()
    assert (rd / "summary.json").exists()
    assert (rd / "best" / "history.json").exists()
    header, rows = read_csv_rows(rd / "history.csv")
    assert header == ["step", "train_loss", "eval_metric"]
    assert [int(r[0]) for r in rows] == [10, 20]


def test_train_reruns_byte_identical_history(tmp_path, tiny_backbone_dir, capsys):
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir))
    runs = str(tmp_path / "runs")
    assert main(["train", cfg, "--runs-dir", runs]) == 0
    rd = next((tmp_path / "runs").iterdir())
    first = (rd / "history.csv").read_bytes()
    assert main(["train", cfg, "--runs-dir", runs]) == 0
    assert (rd / "history.csv").read_bytes() == first


def test_train_summary_recomputes_param_counts(tmp_path, tiny_backbone_dir, capsys):
    spec = base_config(tiny_backbone_dir, scap={"K": 1, "r": 2})
    cfg = write_config(tmp_path, spec)
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 0
    rd = next((tmp_path / "runs").iterdir())
    summary = json.loads((rd / "summary.json").read_text())
    # scpp: solve_rank(100, 16, 2, 2) = 5 -> 5*16 + 5*2*2 = 100
    assert summary["params"]["scpp"] == 100
    # scap: r=2 explicit -> 2*16 + 2*8*1 = 48
    assert summary["params"]["scap"] == 48
    assert summary["params"]["total"] == 148
    assert summary["trainable_params"] == 148


def test_train_over_budget_refused_without_flag(tmp_path, tiny_backbone_dir, capsys):
    spec = base_config(tiny_backbone_dir)
    spec["scpp"] = {"m": 2, "K": 2, "r": 50, "budget": 100}
    cfg = write_config(tmp_path, spec)
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 2
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs"),
                 "--allow-over-budget"]) == 0


def test_train_missing_config_exits_2(tmp_path, capsys):
    assert main(["train", str(tmp_path / "nope.json")]) == 2


def test_train_invalid_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["train", str(bad)]) == 2


def test_train_infeasible_budget_exits_2(tmp_path, tiny_backbone_dir, capsys):
    spec = base_config(tiny_backbone_dir)
    spec["scpp"] = {"m": 2, "K": 2, "budget": 3}
    cfg = write_config(tmp_path, spec)
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 2


def test_train_respects_runs_dir_env(tmp_path, tiny_backbone_dir, capsys, monkeypatch):
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir))
    monkeypatch.setenv("ACCEPT_RUNS_DIR", str(tmp_path / "envruns"))
    assert main(["train", cfg]) == 0
    assert any((tmp_path / "envruns").iterdir())


# -- eval + report verbs --------------------------------------------------------------


def test_eval_reloads_best_checkpoint(tmp_path, tiny_backbone_dir, capsys):
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir))
    runs = str(tmp_path / "runs")
    assert main(["train", cfg, "--runs-dir", runs]) == 0
    rd = next((tmp_path / "runs").iterdir())
    summary = json.loads((rd / "summary.json").read_text())
    capsys.readouterr()
    assert main(["eval", "--run-dir", str(rd)]) == 0
    out = capsys.readouterr().out
    score = float(out.strip().split("=")[1])
    assert score == pytest.approx(summary["best_metric"])


def test_eval_needs_no_init_checkpoint(tmp_path, tiny_backbone_dir, capsys):
    assert main(["train", write_config(tmp_path, base_config(tiny_backbone_dir)),
                 "--runs-dir", str(tmp_path / "source")]) == 0
    source = tmp_path / "source-best"
    shutil.copytree(next((tmp_path / "source").iterdir()) / "best", source)
    spec = base_config(tiny_backbone_dir, init={"kind": "checkpoint", "path": str(source)})
    assert main(["train", write_config(tmp_path, spec, "warm.json"),
                 "--runs-dir", str(tmp_path / "runs")]) == 0
    shutil.rmtree(source)
    capsys.readouterr()
    assert main(["eval", "--run-dir", str(next((tmp_path / "runs").iterdir()))]) == 0
    assert capsys.readouterr().out.startswith("accuracy=")


def test_checkpoint_init_keys_the_run_id_on_the_checkpoint_bytes(
    tmp_path, tiny_backbone_dir, capsys
):
    sources = []
    for seed in (1, 2):
        spec = base_config(tiny_backbone_dir)
        spec["run"]["seed"] = seed
        runs = tmp_path / f"source{seed}"
        assert main(["train", write_config(tmp_path, spec), "--runs-dir", str(runs)]) == 0
        sources.append(next(runs.iterdir()) / "best")
    init = tmp_path / "init-best"
    shutil.copytree(sources[0], init)
    warm = write_config(
        tmp_path, base_config(tiny_backbone_dir, init={"kind": "checkpoint", "path": str(init)}),
        "warm.json",
    )
    runs, agg = tmp_path / "runs", tmp_path / "fewshot"
    fewshot = ["fewshot", warm, "--gamma", "4", "--seeds", "1", "--runs-dir", str(agg)]
    assert main(["train", warm, "--runs-dir", str(runs)]) == 0
    assert main(fewshot) == 0
    (first,) = runs.iterdir()
    first_files = {p: p.read_bytes() for p in first.rglob("*") if p.is_file()}
    (first_agg,) = agg.glob("fewshot-*")
    first_summary = (first_agg / "summary.csv").read_bytes()
    # The same config over a checkpoint replaced in place is a new run,
    # and the few-shot protocol over it a new aggregate.
    shutil.rmtree(init)
    shutil.copytree(sources[1], init)
    assert main(["train", warm, "--runs-dir", str(runs)]) == 0
    assert main(fewshot) == 0
    second = next(p for p in runs.iterdir() if p != first)
    assert {p: p.read_bytes() for p in first.rglob("*") if p.is_file()} == first_files
    assert len(list(agg.glob("fewshot-*"))) == 2
    assert (first_agg / "summary.csv").read_bytes() == first_summary
    shas = [json.loads((rd / "summary.json").read_text())["init_sha256"] for rd in (first, second)]
    assert shas[0] != shas[1]
    assert first.name != run_id_for(json.loads((first / "config.json").read_text()))


def test_checkpoint_init_that_misfits_one_cell_fails_before_any_cell_trains(
    tmp_path, tiny_backbone_dir, capsys
):
    spec = base_config(tiny_backbone_dir)  # scpp K=2, t=8
    source = tmp_path / "source"
    assert main(["train", write_config(tmp_path, spec), "--runs-dir", str(source)]) == 0
    best = next(source.iterdir()) / "best"
    spec["init"] = {"kind": "checkpoint", "path": str(best)}
    runs = tmp_path / "runs"
    assert main(["sweep-granularity", "--config", write_config(tmp_path, spec, "warm.json"),
                 "--component", "scpp", "--budget", "100", "--t-values", "8,16",
                 "--runs-dir", str(runs)]) == 2
    assert "do not match configured" in capsys.readouterr().err
    assert not runs.exists() or list(runs.iterdir()) == []


def test_checkpoint_init_from_another_backbone_fails_before_any_cell_trains(
    tmp_path, tiny_backbone_dir, capsys
):
    # The source run trains on the inline recipe's backbone, not on the tiny one.
    source = tmp_path / "source"
    assert main(["train", write_config(tmp_path, inline_config()), "--runs-dir", str(source)]) == 0
    best = first_run(source) / "best"
    spec = base_config(tiny_backbone_dir, init={"kind": "checkpoint", "path": str(best)})
    runs = tmp_path / "runs"
    assert main(["fewshot", write_config(tmp_path, spec, "warm.json"), "--gamma", "4",
                 "--seeds", "2", "--runs-dir", str(runs)]) == 2
    assert f"init.path {best} was trained on backbone" in capsys.readouterr().err
    assert no_entries(runs)
    # Moved out of its run, the checkpoint names no backbone and is taken as it is.
    shutil.copytree(best, tmp_path / "moved-best")
    spec["init"]["path"] = str(tmp_path / "moved-best")
    assert main(["train", write_config(tmp_path, spec, "moved.json"), "--runs-dir", str(runs)]) == 0


def test_eval_accepts_inline_dataset(tmp_path, tiny_backbone_dir, capsys):
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir))
    runs = str(tmp_path / "runs")
    assert main(["train", cfg, "--runs-dir", runs]) == 0
    rd = next((tmp_path / "runs").iterdir())
    ds = json.dumps({"kind": "majority", "n": 16, "length": 6, "vocab_size": 32, "seed": 9})
    assert main(["eval", "--run-dir", str(rd), "--dataset", ds]) == 0


@pytest.mark.parametrize("dataset,message", [
    ("{bad", "--dataset is not valid JSON"),
    ("[1, 2]", "dataset: dataset spec must be an object"),
])
def test_eval_checks_the_dataset_before_resolving_the_run(
    dataset, message, tmp_path, tiny_backbone_dir, capsys
):
    backbone = tmp_path / "backbone"
    shutil.copytree(tiny_backbone_dir, backbone)
    cfg = write_config(tmp_path, base_config(backbone))
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 0
    rd = next((tmp_path / "runs").iterdir())
    shutil.rmtree(backbone)
    capsys.readouterr()
    # Resolving the run would fail first, with exit 1 and "no arch.json".
    assert main(["eval", "--run-dir", str(rd), "--dataset", dataset]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {message}") and captured.out == ""

def test_eval_refuses_a_best_checkpoint_with_a_fragment_no_component_reads(
    tmp_path, tiny_backbone_dir, capsys
):
    spec = base_config(tiny_backbone_dir, scap={"K": 2, "budget": 64})
    assert main(["train", write_config(tmp_path, spec), "--runs-dir", str(tmp_path / "runs")]) == 0
    rd = next((tmp_path / "runs").iterdir())
    (rd / "best" / "scpp_codebook.json").unlink()
    capsys.readouterr()
    assert main(["eval", "--run-dir", str(rd)]) == 1
    captured = capsys.readouterr()
    assert "['scpp_codebook', 'scpp_weights']" in captured.err
    assert captured.out == ""


def test_eval_and_checkpoint_init_refuse_a_malformed_history(tmp_path, tiny_backbone_dir, capsys):
    assert main(["train", write_config(tmp_path, base_config(tiny_backbone_dir)),
                 "--runs-dir", str(tmp_path / "source")]) == 0
    rd = next((tmp_path / "source").iterdir())
    (rd / "best" / "history.json").write_text('{"best": null}')
    capsys.readouterr()
    assert main(["eval", "--run-dir", str(rd)]) == 1
    captured = capsys.readouterr()
    assert "malformed history" in captured.err and captured.out == ""
    spec = base_config(tiny_backbone_dir, init={"kind": "checkpoint", "path": str(rd / "best")})
    runs = tmp_path / "runs"
    assert main(["train", write_config(tmp_path, spec, "warm.json"), "--runs-dir", str(runs)]) == 1
    assert "malformed history" in capsys.readouterr().err
    assert no_entries(runs)


def test_eval_refuses_a_different_backbone(tmp_path, tiny_backbone_dir, capsys):
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir))
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 0
    rd = next((tmp_path / "runs").iterdir())
    capsys.readouterr()
    assert main(["eval", "--run-dir", str(rd)]) == 0
    untouched = capsys.readouterr().out
    assert main(["eval", "--run-dir", str(rd)]) == 0
    assert capsys.readouterr().out == untouched
    summary_path = rd / "summary.json"
    summary = json.loads(summary_path.read_text())
    summary["backbone_hash"] = "0" * 64
    summary_path.write_text(json.dumps(summary))
    assert main(["eval", "--run-dir", str(rd)]) == 2
    assert "backbone" in capsys.readouterr().err


def test_report_aggregates_summaries(tmp_path, tiny_backbone_dir, capsys):
    runs = str(tmp_path / "runs")
    for seed in (1, 2):
        spec = base_config(tiny_backbone_dir)
        spec["run"]["seed"] = seed
        cfg = write_config(tmp_path, spec, name=f"c{seed}.json")
        assert main(["train", cfg, "--runs-dir", runs]) == 0
    capsys.readouterr()
    assert main(["report", "--runs-dir", runs]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0].startswith("run_id,")
    assert len(lines) == 3


def test_interrupted_rerun_leaves_finished_run_intact(tmp_path, tiny_backbone_dir, capsys, monkeypatch):
    import accept.experiments as experiments

    runs = tmp_path / "runs"
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir))
    assert main(["train", cfg, "--runs-dir", str(runs)]) == 0
    run_dir = runs / run_id_for(base_config(tiny_backbone_dir))

    def snapshot():
        return {p.relative_to(run_dir): p.read_bytes() for p in run_dir.rglob("*") if p.is_file()}

    first = snapshot()
    # Mark the old run so that a file rewritten by the re-run would show.
    (run_dir / "history.csv").write_text("old run\n", encoding="utf-8")
    before = snapshot()
    capsys.readouterr()
    assert main(["report", "--runs-dir", str(runs)]) == 0
    report = capsys.readouterr().out

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(experiments, "save_checkpoint", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["train", cfg, "--runs-dir", str(runs)])
    assert snapshot() == before
    # A process killed after writing summary.json but before the rename.
    leftover = runs / f".{run_dir.name}.tmp-1"
    leftover.mkdir()
    (leftover / "summary.json").write_bytes(before[Path("summary.json")])
    capsys.readouterr()
    assert main(["report", "--runs-dir", str(runs)]) == 0
    assert capsys.readouterr().out == report

    monkeypatch.undo()
    assert main(["train", cfg, "--runs-dir", str(runs)]) == 0
    after = snapshot()
    assert after.keys() == first.keys()
    assert all(after[k] == first[k] for k in first if k != Path("summary.json"))
    assert not list(runs.glob(".*.old-*"))


def test_report_missing_root_exits_2(tmp_path, capsys):
    assert main(["report", "--runs-dir", str(tmp_path / "absent")]) == 2


# -- ablation grid ----------------------------------------------------------------------


def test_ablate_grid_budgets_and_cells(tmp_path, tiny_backbone_dir, capsys):
    spec = base_config(tiny_backbone_dir, scap={"K": 1, "r": 2, "budget": 48})
    cfg = write_config(tmp_path, spec)
    out_csv = tmp_path / "ablate.csv"
    assert main(["ablate", cfg, "--runs-dir", str(tmp_path / "runs"),
                 "--out", str(out_csv)]) == 0
    header, rows = read_csv_rows(out_csv)
    assert header == ["cell", "params_prepended", "params_added", "params_total", "metric"]
    table = {r[0]: [int(r[1]), int(r[2]), int(r[3])] for r in rows}
    # Plain prompt tuning spends the whole 148 budget on rows: 9*16.
    assert table["pp"] == [144, 0, 144]
    # One shared codebook at the full budget: r = 148 // (16+2) = 8.
    assert table["pp+lc"] == [144, 0, 144]
    # Subdivision restores K=2: r = 148 // (16+4) = 7.
    assert table["pp+lc+ps"] == [140, 0, 140]
    # Added prompts split the budget: prepended 100, added 48.
    assert table["pp+lc+ps+ap"] == [100, 48, 148]
    assert all(v[2] <= 148 for v in table.values())


def test_ablate_axes_filter(tmp_path, tiny_backbone_dir, capsys):
    spec = base_config(tiny_backbone_dir, scap={"K": 1, "r": 2, "budget": 48})
    cfg = write_config(tmp_path, spec)
    out_csv = tmp_path / "ablate.csv"
    assert main(["ablate", cfg, "--axes", "pp,lc", "--runs-dir",
                 str(tmp_path / "runs"), "--out", str(out_csv)]) == 0
    _, rows = read_csv_rows(out_csv)
    assert [r[0] for r in rows] == ["pp", "pp+lc"]


def test_ablate_unknown_axis_exits_2(tmp_path, tiny_backbone_dir, capsys):
    spec = base_config(tiny_backbone_dir, scap={"K": 1, "r": 2, "budget": 48})
    cfg = write_config(tmp_path, spec)
    assert main(["ablate", cfg, "--axes", "pp,bogus",
                 "--runs-dir", str(tmp_path / "runs")]) == 2


def no_entries(path):
    return not path.exists() or not any(path.iterdir())


def test_ablate_over_budget_cell_fails_before_any_cell_trains(tmp_path, tiny_backbone_dir, capsys):
    # Only the cells with added prompts carry the over-budget scap block.
    spec = base_config(tiny_backbone_dir, scap={"K": 1, "r": 100, "budget": 48})
    cfg = write_config(tmp_path, spec)
    assert main(["ablate", cfg, "--runs-dir", str(tmp_path / "runs")]) == 2
    assert no_entries(tmp_path / "runs")


# -- fewshot verb -------------------------------------------------------------------------


def test_fewshot_aggregate_matches_per_run_csvs(tmp_path, tiny_backbone_dir, capsys):
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir))
    runs = tmp_path / "runs"
    assert main(["fewshot", cfg, "--gamma", "4,8", "--seeds", "2",
                 "--runs-dir", str(runs)]) == 0
    sweep_dir = next(runs.glob("fewshot-*"))
    _, agg = read_csv_rows(sweep_dir / "summary.csv")
    for gamma_s, mean_s, std_s, n_s in agg:
        _, rows = read_csv_rows(sweep_dir / f"gamma{gamma_s}.csv")
        vals = np.array([float(r[1]) for r in rows])
        assert float(mean_s) == float(np.mean(vals))
        assert float(std_s) == float(np.std(vals))
        assert int(n_s) == len(vals)


def test_fewshot_per_run_rows_are_metric_value_seed(tmp_path, tiny_backbone_dir, capsys):
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir))
    runs = tmp_path / "runs"
    assert main(["fewshot", cfg, "--gamma", "4", "--seeds", "2",
                 "--runs-dir", str(runs)]) == 0
    sweep_dir = next(runs.glob("fewshot-*"))
    header, rows = read_csv_rows(sweep_dir / "gamma4.csv")
    assert header == ["metric", "value", "seed"]
    assert [r[0] for r in rows] == ["accuracy", "accuracy"]
    assert [int(r[2]) for r in rows] == [0, 1]


def test_fewshot_gamma_beyond_train_split_exits_1(tmp_path, tiny_backbone_dir, capsys):
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir))
    assert main(["fewshot", cfg, "--gamma", "100000", "--seeds", "1",
                 "--runs-dir", str(tmp_path / "runs")]) == 1


def test_fewshot_oversized_gamma_fails_before_any_cell_trains(tmp_path, tiny_backbone_dir, capsys):
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir))
    assert main(["fewshot", cfg, "--gamma", "4,100000", "--seeds", "1",
                 "--runs-dir", str(tmp_path / "runs")]) == 1
    assert no_entries(tmp_path / "runs")


def test_fewshot_duplicate_gammas_exit_2_before_any_cell(tmp_path, tiny_backbone_dir, capsys):
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir))
    assert main(["fewshot", cfg, "--gamma", "4,8,4", "--seeds", "2",
                 "--runs-dir", str(tmp_path / "runs")]) == 2
    assert "duplicate gammas" in capsys.readouterr().err
    assert no_entries(tmp_path / "runs")
    assert main(["fewshot", cfg, "--gamma", "", "--runs-dir", str(tmp_path / "runs")]) == 2
    assert "need at least one gamma" in capsys.readouterr().err


def test_fewshot_cells_are_finished_runs_on_the_backbone(tmp_path, tiny_backbone_dir, capsys):
    from accept.backbone import BackboneModel

    cfg = write_config(tmp_path, base_config(tiny_backbone_dir))
    runs = tmp_path / "runs"
    assert main(["fewshot", cfg, "--gamma", "4,8", "--seeds", "2",
                 "--runs-dir", str(runs)]) == 0
    summaries = {
        s["name"]: s
        for s in (json.loads(p.read_text()) for p in runs.glob("*/summary.json"))
    }
    assert sorted(summaries) == [f"fewshot-gamma{g}-seed{i}" for g in (4, 8) for i in (0, 1)]
    want_hash = BackboneModel.load(tiny_backbone_dir).hash_params()
    assert all(s["backbone_hash"] == want_hash for s in summaries.values())
    sweep_dir = next(runs.glob("fewshot-*"))
    for g in (4, 8):
        _, rows = read_csv_rows(sweep_dir / f"gamma{g}.csv")
        assert [float(r[1]) for r in rows] == [
            summaries[f"fewshot-gamma{g}-seed{i}"]["best_metric"] for i in (0, 1)
        ]
    capsys.readouterr()
    assert main(["report", "--runs-dir", str(runs)]) == 0
    assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 4


def test_fewshot_interrupted_leaves_only_finished_cells(tmp_path, tiny_backbone_dir, capsys, monkeypatch):
    import accept.experiments as experiments
    from accept.optim import TrainingError

    real_train = experiments.train
    calls = []

    def fails_second(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise TrainingError("diverged")
        return real_train(*args, **kwargs)

    monkeypatch.setattr(experiments, "train", fails_second)
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir))
    runs = tmp_path / "runs"
    assert main(["fewshot", cfg, "--gamma", "4", "--seeds", "2",
                 "--runs-dir", str(runs)]) == 1
    assert not list(runs.glob("fewshot-*"))
    capsys.readouterr()
    assert main(["report", "--runs-dir", str(runs)]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert [line.split(",")[1] for line in lines[1:]] == ["fewshot-gamma4-seed0"]


def test_fewshot_single_seed_std_zero(tmp_path, tiny_backbone_dir, capsys):
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir))
    runs = tmp_path / "runs"
    assert main(["fewshot", cfg, "--gamma", "4", "--seeds", "1",
                 "--runs-dir", str(runs)]) == 0
    sweep_dir = next(runs.glob("fewshot-*"))
    _, agg = read_csv_rows(sweep_dir / "summary.csv")
    assert float(agg[0][2]) == 0.0


# -- length sweep -------------------------------------------------------------------------


def test_length_sweep_normalizes_to_largest_length(tmp_path, tiny_backbone_dir, capsys):
    spec = base_config(tiny_backbone_dir, scap={"K": 1, "r": 2, "budget": 48})
    cfg = write_config(tmp_path, spec)
    out_csv = tmp_path / "lengths.csv"
    assert main(["length-sweep", cfg, "--lengths", "0,2,4",
                 "--runs-dir", str(tmp_path / "runs"), "--out", str(out_csv)]) == 0
    _, rows = read_csv_rows(out_csv)
    assert [int(r[0]) for r in rows] == [0, 2, 4]
    times = [float(r[2]) for r in rows]
    assert times[-1] == 1.0
    assert all(t > 0 for t in times)


def test_length_sweep_zero_needs_added_component(tmp_path, tiny_backbone_dir, capsys):
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir))  # no scap block
    assert main(["length-sweep", cfg, "--lengths", "0,2",
                 "--runs-dir", str(tmp_path / "runs")]) == 2


def test_length_sweep_duplicate_lengths_exit_2(tmp_path, tiny_backbone_dir, capsys):
    spec = base_config(tiny_backbone_dir, scap={"K": 1, "r": 2, "budget": 48})
    cfg = write_config(tmp_path, spec)
    assert main(["length-sweep", cfg, "--lengths", "2,2",
                 "--runs-dir", str(tmp_path / "runs")]) == 2


# -- trained granularity sweep -----------------------------------------------------------------


def test_sweep_with_training_re_solves_rank(tmp_path, tiny_backbone_dir, capsys):
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir))
    out_csv = tmp_path / "sweep.csv"
    assert main(["sweep-granularity", "--config", cfg, "--component", "scpp",
                 "--budget", "100", "--t-values", "8,16",
                 "--runs-dir", str(tmp_path / "runs"), "--out", str(out_csv)]) == 0
    _, rows = read_csv_rows(out_csv)
    # t=8 -> K=2, r=100//20=5; t=16 -> K=1, r=100//18=5
    assert [(int(r[0]), int(r[1]), int(r[2])) for r in rows] == [(8, 2, 5), (16, 1, 5)]
    assert all(int(r[3]) <= 100 for r in rows)
    assert all(r[5] != "" for r in rows)


def test_sweep_with_no_feasible_width_still_checks_the_schedule(tmp_path, tiny_backbone_dir, capsys):
    spec = base_config(tiny_backbone_dir)
    spec["run"]["bogus"] = 1
    cfg = write_config(tmp_path, spec)
    assert main(["sweep-granularity", "--config", cfg, "--budget", "100", "--t-values", "3",
                 "--runs-dir", str(tmp_path / "runs")]) == 2


# -- multi-run verbs share one resolution ----------------------------------------------------


# Each multi-run verb's arguments, to be followed by the config path.
MULTI_RUN_VERBS = {
    "sweep-granularity": ["sweep-granularity", "--component", "scpp", "--budget", "100",
                          "--config"],
    "ablate": ["ablate"],
    "length-sweep": ["length-sweep", "--lengths", "0,2,4"],
    "fewshot": ["fewshot", "--gamma", "4", "--seeds", "2"],
}


def test_jobs_is_an_unknown_argument(tmp_path, capsys):
    """Cells run one after another in one process; no verb takes --jobs."""
    for verb in ("sweep-granularity", "ablate", "length-sweep"):
        with pytest.raises(SystemExit) as exc:
            main([*MULTI_RUN_VERBS[verb], str(tmp_path / "cfg.json"), "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def inline_config():
    """base_config with a tiny inline pretraining recipe instead of a path."""
    backbone = {
        "config": {"d": 16, "layers": 1, "heads": 2, "vocab_size": 32,
                   "max_len": 8, "num_classes": 2, "dtype": "f32"},
        "pretrain": {"steps": 5, "batch_size": 8, "seed": 0,
                     "tasks": [{"kind": "majority", "n": 32, "length": 6,
                                "vocab_size": 32, "seed": 3}]},
    }
    spec = base_config(None, backbone=backbone, scap={"K": 1, "r": 2, "budget": 48})
    spec["run"]["steps"] = 10
    return spec


def first_run(runs):
    """The first run directory under runs, skipping hidden ones such as the backbone store."""
    return next(p for p in sorted(runs.iterdir()) if not p.name.startswith("."))


def count_pretrains(monkeypatch) -> list:
    """Wrap experiments.pretrain_backbone; the returned list grows by one per call."""
    import accept.experiments as E

    calls = []
    real = E.pretrain_backbone

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(E, "pretrain_backbone", counting)
    return calls


@pytest.mark.parametrize("verb_args", MULTI_RUN_VERBS.values(), ids=MULTI_RUN_VERBS.keys())
def test_multi_run_verb_pretrains_inline_backbone_once(tmp_path, capsys, monkeypatch, verb_args):
    calls = count_pretrains(monkeypatch)
    cfg = write_config(tmp_path, inline_config())
    assert main([*verb_args, cfg, "--runs-dir", str(tmp_path / "runs")]) == 0
    assert len(calls) == 1
    assert len(list((tmp_path / "runs").iterdir())) > 1


@pytest.mark.parametrize(
    "verb_args", [["train"], *MULTI_RUN_VERBS.values()], ids=["train", *MULTI_RUN_VERBS.keys()]
)
def test_mistyped_budget_exits_2_before_pretraining(tmp_path, capsys, monkeypatch, verb_args):
    calls = count_pretrains(monkeypatch)
    spec = inline_config()
    spec["scpp"]["budget"] = "100"
    cfg = write_config(tmp_path, spec)
    assert main([*verb_args, cfg, "--runs-dir", str(tmp_path / "runs")]) == 2
    assert "scpp.budget" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize(
    "verb_args", [["train"], *MULTI_RUN_VERBS.values()], ids=["train", *MULTI_RUN_VERBS.keys()]
)
def test_missing_init_path_exits_2_before_pretraining(tmp_path, capsys, monkeypatch, verb_args):
    calls = count_pretrains(monkeypatch)
    missing = tmp_path / "source-run" / "best"
    spec = inline_config()
    spec["init"] = {"kind": "checkpoint", "path": str(missing)}
    cfg = write_config(tmp_path, spec)
    assert main([*verb_args, cfg, "--runs-dir", str(tmp_path / "runs")]) == 2
    assert f"init.path {missing} does not exist" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "runs").exists()


def test_sweep_cell_matches_standalone_train_of_its_config(tmp_path, capsys):
    cfg = write_config(tmp_path, inline_config())
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "source")]) == 0
    warm = inline_config()
    warm["init"] = {"kind": "checkpoint", "path": str(first_run(tmp_path / "source") / "best")}
    cases = [
        (["sweep-granularity", "--component", "scpp", "--budget", "100",
          "--t-values", "8,16", "--config"], "granularity-scpp-t8", cfg),
        # seed index 1: its run.seed and train subset both differ from the base's.
        (["fewshot", "--gamma", "4,8", "--seeds", "2"], "fewshot-gamma8-seed1", cfg),
        # Every cell starts from the checkpoint, not from an earlier cell's leaves.
        (["fewshot", "--gamma", "4,8", "--seeds", "2"], "fewshot-gamma8-seed1",
         write_config(tmp_path, warm, "warm.json")),
    ]
    for k, (verb_args, name, cfg) in enumerate(cases):
        sweep, alone = tmp_path / f"sweep{k}", tmp_path / f"alone{k}"
        assert main([*verb_args, cfg, "--runs-dir", str(sweep)]) == 0
        cell = next(
            p.parent for p in sweep.glob("*/config.json")
            if json.loads(p.read_text())["name"] == name
        )
        assert main(["train", str(cell / "config.json"), "--runs-dir", str(alone)]) == 0
        alone_dir = first_run(alone)
        assert alone_dir.name == cell.name
        assert (alone_dir / "history.csv").read_bytes() == (cell / "history.csv").read_bytes()


# -- config resolution details ---------------------------------------------------------------


def store_entries(runs) -> list:
    """The finished backbone store entries under a runs root."""
    store = runs / ".backbones"
    return sorted(p.name for p in store.iterdir() if not p.name.startswith(".")) if store.exists() else []


def test_inline_backbone_store_round_trip(tmp_path, capsys, monkeypatch):
    calls = count_pretrains(monkeypatch)
    cfg = write_config(tmp_path, inline_config())
    runs = tmp_path / "runs"
    assert main(["train", cfg, "--runs-dir", str(runs)]) == 0
    assert len(calls) == 1 and len(store_entries(runs)) == 1
    rd = first_run(runs)
    first = (rd / "history.csv").read_bytes()
    # A second run in the same root loads the stored backbone and matches bytes.
    assert main(["train", cfg, "--runs-dir", str(runs)]) == 0
    assert len(calls) == 1
    assert (rd / "history.csv").read_bytes() == first


def test_eval_of_an_inline_recipe_run_pretrains_nothing(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, inline_config())
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 0
    rd = first_run(tmp_path / "runs")
    calls = count_pretrains(monkeypatch)
    assert main(["eval", "--run-dir", str(rd)]) == 0
    assert calls == []


def test_inline_backbone_store_is_keyed_on_the_recipe_and_the_numerics(tmp_path, monkeypatch):
    import accept.experiments as E
    from accept.experiments import parse_backbone

    calls = count_pretrains(monkeypatch)

    def recipe(seed):
        backbone = dict(inline_config()["backbone"])
        backbone["pretrain"] = {**backbone["pretrain"], "seed": seed}
        return backbone

    seed0 = parse_backbone(recipe(0), tmp_path).hash_params()
    seed1 = parse_backbone(recipe(1), tmp_path).hash_params()
    assert seed0 != seed1
    assert len(store_entries(tmp_path)) == 2
    assert parse_backbone(recipe(0), tmp_path).hash_params() == seed0
    assert len(calls) == 2
    # Code whose numerics differ does not reuse a backbone the old code pretrained.
    monkeypatch.setattr(E, "numerics_fingerprint", lambda: "0" * 64)
    parse_backbone(recipe(0), tmp_path)
    assert len(calls) == 3
    assert len(store_entries(tmp_path)) == 3


def test_inline_backbone_store_is_keyed_on_the_pretraining_examples(tmp_path, monkeypatch):
    from accept.experiments import parse_backbone

    calls = count_pretrains(monkeypatch)
    source = tmp_path / "source.jsonl"
    backbone = dict(inline_config()["backbone"])
    backbone["pretrain"] = {**backbone["pretrain"], "tasks": [{"jsonl": str(source)}]}
    lines = ['{"tokens": [6, 7, 7], "label": 1}', '{"tokens": [6, 6, 7], "label": 0}']
    source.write_text("\n".join(lines * 4) + "\n", encoding="utf-8")
    parse_backbone(backbone, tmp_path)
    # The same spec over edited examples must not hit the old entry.
    source.write_text("\n".join(lines[::-1] * 4) + "\n", encoding="utf-8")
    parse_backbone(backbone, tmp_path)
    assert len(calls) == 2
    assert len(store_entries(tmp_path)) == 2


def test_interrupted_pretrain_leaves_no_store_entry(tmp_path, monkeypatch):
    import accept.experiments as E
    from accept.backbone import BackboneModel

    backbone = inline_config()["backbone"]
    real_pretrain, real_save = E.pretrain_backbone, BackboneModel.save

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(E, "pretrain_backbone", interrupted)
    with pytest.raises(KeyboardInterrupt):
        E.parse_backbone(backbone, tmp_path)
    monkeypatch.setattr(E, "pretrain_backbone", real_pretrain)

    def save_then_interrupt(self, dirpath):
        real_save(self, dirpath)
        raise KeyboardInterrupt

    monkeypatch.setattr(BackboneModel, "save", save_then_interrupt)
    with pytest.raises(KeyboardInterrupt):
        E.parse_backbone(backbone, tmp_path)
    assert store_entries(tmp_path) == []

    monkeypatch.setattr(BackboneModel, "save", real_save)
    calls = count_pretrains(monkeypatch)
    model = E.parse_backbone(backbone, tmp_path)
    assert len(calls) == 1
    (entry,) = store_entries(tmp_path)
    assert BackboneModel.load(tmp_path / ".backbones" / entry).hash_params() == model.hash_params()


@pytest.mark.parametrize(
    "kind, field", [("inline", "cache_dir"), ("path", "cache_dir"), ("path", "config")]
)
def test_config_rejects_unknown_backbone_fields(
    tmp_path, tiny_backbone_dir, capsys, monkeypatch, kind, field
):
    calls = count_pretrains(monkeypatch)
    backbone = inline_config()["backbone"] if kind == "inline" else {"path": str(tiny_backbone_dir)}
    backbone[field] = str(tmp_path / "bb")
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir, backbone=backbone))
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 2
    assert f"backbone: unknown field {field!r}" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "pretrain, message",
    [(5, "backbone.pretrain: must be an object"), ({"tasks": 5}, "backbone.pretrain.tasks must be")],
    ids=["pretrain-int", "tasks-int"],
)
def test_config_rejects_a_malformed_pretrain_block(tmp_path, capsys, pretrain, message):
    spec = inline_config()
    spec["backbone"]["pretrain"] = pretrain
    cfg = write_config(tmp_path, spec)
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 2
    assert message in capsys.readouterr().err


def test_train_refuses_a_backbone_with_an_unknown_fragment(tmp_path, tiny_backbone_dir, capsys):
    from accept.checkpoint import write_fragment

    old = tmp_path / "old"
    shutil.copytree(tiny_backbone_dir, old)
    manifest = {"kind": "tensor", "name": "layer0.attn.bk", "shape": [16],
                "dtype": "f32", "byte_order": "little"}
    write_fragment(old, "layer0.attn.bk", manifest, np.zeros(16, dtype=np.float32))
    cfg = write_config(tmp_path, base_config(old))
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 2
    assert "layer0.attn.bk" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


def test_eval_without_best_refuses_before_pretraining(tmp_path, capsys, monkeypatch):
    spec = inline_config()
    del spec["scpp"], spec["scap"]
    spec["direct_prepend"] = {"m": 3}
    cfg = write_config(tmp_path, spec)
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 0
    rd = first_run(tmp_path / "runs")

    calls = count_pretrains(monkeypatch)
    capsys.readouterr()
    assert main(["eval", "--run-dir", str(rd)]) == 2
    assert "no best/" in capsys.readouterr().err
    assert calls == []


def test_config_requires_some_prompt_component(tmp_path, tiny_backbone_dir, capsys):
    spec = base_config(tiny_backbone_dir)
    del spec["scpp"]
    cfg = write_config(tmp_path, spec)
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 2


def test_config_rejects_mismatched_class_counts(tmp_path, tiny_backbone_dir, capsys):
    spec = base_config(tiny_backbone_dir)
    spec["eval_set"] = {"kind": "count-regression", "n": 32, "length": 6,
                        "vocab_size": 32, "seed": 6}
    cfg = write_config(tmp_path, spec)
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 2


@pytest.mark.parametrize(
    "dataset",
    [
        {"kind": "count-regression", "n": 32, "length": 6, "vocab_size": 32, "seed": 6},
        {"kind": "majority", "n": 32, "length": 6, "vocab_size": 64, "seed": 6},
    ],
    ids=["regression-on-2-class-head", "vocab-64-on-vocab-32-model"],
)
def test_config_rejects_datasets_the_model_cannot_read(
    tmp_path, tiny_backbone_dir, capsys, dataset
):
    spec = base_config(tiny_backbone_dir, train_set=dataset, eval_set=dataset)
    cfg = write_config(tmp_path, spec)
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 2
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize(
    "removed", [{"dtype": "f32"}, {"lr_head": 1e-3}], ids=["dtype", "lr_head"]
)
def test_config_rejects_removed_run_fields(tmp_path, tiny_backbone_dir, capsys, removed):
    spec = base_config(tiny_backbone_dir)
    spec["run"].update(removed)
    cfg = write_config(tmp_path, spec)
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 2


def test_config_rejects_malformed_fewshot_field(tmp_path, tiny_backbone_dir, capsys):
    cfg = write_config(tmp_path, base_config(tiny_backbone_dir, fewshot={"gamma": 4}))
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 2
    assert "fewshot:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [
        ("scpp.K", "2"),
        ("scpp.m", 2.5),
        ("scpp.m", True),
        ("scpp.budget", "100"),
        ("scpp.r", 1.5),
        ("run.lr_scpp", "0.1"),
        ("run.stop_at_metric", "0.5"),
        ("run.seed", 1.5),
        ("run.batch_size", 8.0),
        ("train_set.n", "32"),
        ("eval_set.length", "6"),
        ("train_set.seed", "5"),
        ("train_set.seed", 1.5),
        ("train_set.seed", True),
        ("train_set.seed", -1),
        ("eval_set.seed", [6, "7"]),
    ],
)
def test_config_rejects_mistyped_numbers(
    tmp_path, tiny_backbone_dir, monkeypatch, capsys, field, value
):
    import accept.experiments

    calls = []
    monkeypatch.setattr(accept.experiments, "train", lambda *a, **k: calls.append(a))
    spec = base_config(tiny_backbone_dir)
    section, key = field.split(".")
    spec[section][key] = value
    cfg = write_config(tmp_path, spec)
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 2
    assert field in capsys.readouterr().err
    assert calls == []


@pytest.fixture(scope="module")
def regression_backbone_dir(tmp_path_factory):
    """A randomly initialised one-output backbone for count-regression runs."""
    from accept.backbone import BackboneConfig, BackboneModel

    path = tmp_path_factory.mktemp("bb") / "regression"
    cfg = BackboneConfig(
        d=16, layers=1, heads=2, vocab_size=32, max_len=8, num_classes=1, dtype="f32"
    )
    BackboneModel.random_init(cfg, seed=0).save(path)
    return path


@pytest.mark.parametrize("metric", ["accuracy", "f1_binary", "matthews", "pearson"])
def test_metric_must_fit_regression_labels_before_any_step(
    tmp_path, regression_backbone_dir, monkeypatch, capsys, metric
):
    from accept.optim import AdamW

    steps = []
    step = AdamW.step

    def counting_step(self, *args):
        steps.append(1)
        return step(self, *args)

    monkeypatch.setattr(AdamW, "step", counting_step)
    task = {"kind": "count-regression", "length": 6, "vocab_size": 32}
    spec = base_config(
        regression_backbone_dir,
        train_set={**task, "n": 64, "seed": 5},
        eval_set={**task, "n": 32, "seed": 6},
    )
    spec["run"]["metric"] = metric
    cfg = write_config(tmp_path, spec)
    rc = main(["train", cfg, "--runs-dir", str(tmp_path / "runs")])
    if metric == "pearson":
        assert rc == 0 and len(steps) == spec["run"]["steps"]
    else:
        assert rc == 2 and steps == []
        assert metric in capsys.readouterr().err


def test_direct_prepend_trains_plain_prompt_rows(tmp_path, tiny_backbone_dir, capsys):
    spec = base_config(tiny_backbone_dir)
    del spec["scpp"]
    spec["direct_prepend"] = {"m": 3}
    cfg = write_config(tmp_path, spec)
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 0
    rd = next((tmp_path / "runs").iterdir())
    summary = json.loads((rd / "summary.json").read_text())
    assert summary["params"]["direct_prepend"] == 48
    assert summary["trainable_params"] == 48
    # Direct rows are a baseline device; no factorized checkpoint exists.
    assert not (rd / "best").exists()


def test_train_refuses_a_jsonl_record_with_no_tokens_before_training(
    tmp_path, tiny_backbone_dir, capsys, monkeypatch
):
    import accept.experiments as E

    lines = ['{"tokens": [6, 7, 7], "label": 1}'] * 8
    lines[2] = '{"tokens": [], "label": 1}'
    data_path = tmp_path / "train.jsonl"
    data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    spec = base_config(tiny_backbone_dir)
    spec["train_set"] = {"jsonl": str(data_path), "num_classes": 2, "vocab_size": 32}
    calls = []
    monkeypatch.setattr(E, "train", lambda *a, **k: calls.append(1))
    runs = tmp_path / "runs"
    assert main(["train", write_config(tmp_path, spec), "--runs-dir", str(runs)]) == 1
    assert "train.jsonl line 3: tokens must not be empty" in capsys.readouterr().err
    assert calls == [] and no_entries(runs)


def test_direct_prepend_and_scpp_conflict(tmp_path, tiny_backbone_dir, capsys):
    spec = base_config(tiny_backbone_dir)
    spec["direct_prepend"] = {"m": 3}
    cfg = write_config(tmp_path, spec)
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 2


def test_jsonl_dataset_source(tmp_path, tiny_backbone_dir, capsys):
    from accept.tasks import gen_task

    ds = gen_task("majority", n=16, length=6, vocab_size=32, seed=5)
    lines = [json.dumps({"tokens": list(ex.tokens), "label": ex.label}) for ex in ds.examples]
    data_path = tmp_path / "train.jsonl"
    data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    spec = base_config(tiny_backbone_dir)
    spec["train_set"] = {"jsonl": str(data_path), "num_classes": 2, "vocab_size": 32}
    cfg = write_config(tmp_path, spec)
    assert main(["train", cfg, "--runs-dir", str(tmp_path / "runs")]) == 0
