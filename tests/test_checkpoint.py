"""Checkpoint format tests: bit-exact round trips and format rejections."""

import json

import numpy as np
import pytest

from accept import factorization as F
from accept.checkpoint import CheckpointFormatError
from accept.tensor import Tensor
from accept.training import (
    FactorizedPrompt,
    PromptSet,
    RunHistory,
    load_checkpoint,
    save_checkpoint,
)


def make_comp(seed, positions=6, d=8, K=2, r=3, dtype=np.float32):
    dims = F.PromptDims(positions=positions, d=d, K=K, r=r)
    return FactorizedPrompt(*F.init_random(dims, seed=seed, dtype=dtype))


def two_components():
    return PromptSet(prepended=make_comp(0), added=make_comp(1, positions=10, d=8, K=4, r=2))


def test_round_trip_bit_equal(tmp_path):
    prompts = two_components()
    save_checkpoint(tmp_path, prompts, RunHistory())
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "history.json",
        "scap_codebook.bin",
        "scap_codebook.json",
        "scap_weights.bin",
        "scap_weights.json",
        "scpp_codebook.bin",
        "scpp_codebook.json",
        "scpp_weights.bin",
        "scpp_weights.json",
    ]
    back, _ = load_checkpoint(tmp_path)
    for comp, orig in ((back.prepended, prompts.prepended), (back.added, prompts.added)):
        assert comp.codebook.entries.data.tobytes() == orig.codebook.entries.data.tobytes()
        assert comp.weights.entries.data.tobytes() == orig.weights.entries.data.tobytes()


def test_manifest_metadata_round_trip(tmp_path):
    save_checkpoint(tmp_path, PromptSet(prepended=make_comp(0)))
    dims = {"K": 2, "t": 4, "r": 3, "positions": 6, "dtype": "f32", "byte_order": "little"}
    for kind in ("codebook", "weights"):
        manifest = json.loads((tmp_path / f"scpp_{kind}.json").read_text())
        assert manifest == {"kind": kind, **dims}


def test_single_component_checkpoint(tmp_path):
    save_checkpoint(tmp_path, PromptSet(added=make_comp(2, positions=4, d=8, K=1, r=2)))
    back, history = load_checkpoint(tmp_path)
    assert back.prepended is None
    assert back.added is not None
    assert history is None


def test_save_rejects_float64(tmp_path):
    prompts = PromptSet(prepended=make_comp(0, dtype=np.float64))
    with pytest.raises(CheckpointFormatError):
        save_checkpoint(tmp_path, prompts)


def test_truncated_raw_rejected(tmp_path):
    save_checkpoint(tmp_path, PromptSet(prepended=make_comp(0)))
    raw = (tmp_path / "scpp_weights.bin").read_bytes()
    (tmp_path / "scpp_weights.bin").write_bytes(raw[:-4])
    with pytest.raises(CheckpointFormatError) as exc:
        load_checkpoint(tmp_path)
    assert "bytes" in str(exc.value)


def edit_manifest(path, **fields):
    manifest = json.loads(path.read_text())
    manifest.update(fields)
    path.write_text(json.dumps(manifest))


def test_wrong_dtype_manifest_rejected(tmp_path):
    save_checkpoint(tmp_path, PromptSet(prepended=make_comp(0)))
    edit_manifest(tmp_path / "scpp_codebook.json", dtype="f64")
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(tmp_path)


def test_non_integer_dimension_rejected(tmp_path):
    save_checkpoint(tmp_path, PromptSet(prepended=make_comp(0)))
    edit_manifest(tmp_path / "scpp_codebook.json", r=3.0)
    with pytest.raises(CheckpointFormatError, match="integer field 'r'"):
        load_checkpoint(tmp_path)


def test_disagreeing_manifests_rejected(tmp_path):
    save_checkpoint(tmp_path, PromptSet(prepended=make_comp(0)))
    edit_manifest(tmp_path / "scpp_weights.json", t=5)
    with pytest.raises(CheckpointFormatError, match="disagree on 't'"):
        load_checkpoint(tmp_path)


def test_fragment_no_component_reads_rejected(tmp_path):
    # Without its codebook manifest, scpp is not loaded, and both of its
    # fragments would otherwise be dropped in silence.
    save_checkpoint(tmp_path, two_components())
    (tmp_path / "scpp_codebook.json").unlink()
    with pytest.raises(CheckpointFormatError, match=r"\['scpp_codebook', 'scpp_weights'\]"):
        load_checkpoint(tmp_path)


@pytest.mark.parametrize(
    "payload",
    [
        '{"best": null}',
        '{"records": [{"step": 1}], "best": null}',
        '{"records": [], "best": {"step": 1, "metric": 0.5, "checkpoint": "x"}}',
        '{"records": 5, "best": null}',
        "[]",
        "not json",
    ],
    ids=["no-records", "record-fields", "best-fields", "records-not-a-list", "not-an-object",
         "invalid-json"],
)
def test_malformed_history_rejected(tmp_path, payload):
    save_checkpoint(tmp_path, PromptSet(prepended=make_comp(0)), RunHistory())
    (tmp_path / "history.json").write_text(payload)
    with pytest.raises(CheckpointFormatError, match="malformed history"):
        load_checkpoint(tmp_path)


def test_empty_dir_rejected(tmp_path):
    with pytest.raises(CheckpointFormatError):
        load_checkpoint(tmp_path)


def test_raw_bytes_are_little_endian_row_major(tmp_path):
    entries = np.arange(12, dtype=np.float32).reshape(1, 3, 4)  # K=1, r=3, t=4
    cb = F.Codebook(Tensor(entries))
    ws = F.WeightSet(Tensor(np.zeros((2, 1, 3), dtype=np.float32)))
    save_checkpoint(tmp_path, PromptSet(prepended=FactorizedPrompt(cb, ws)))
    raw = (tmp_path / "scpp_codebook.bin").read_bytes()
    assert raw == entries.astype("<f4").tobytes(order="C")
