"""Checkpoint fragments: the storage format backbones and prompts share.

Every persisted tensor becomes two files, ``<name>.json`` and
``<name>.bin``.  The manifest records the caller's metadata plus the
storage contract (dtype "f32", byte order "little"), which write_fragment
adds itself; the .bin holds the row-major values and nothing else.  A
backbone is one fragment per parameter (``BackboneModel.save``); a prompt
checkpoint is one codebook and one weights fragment per component
(``training.save_checkpoint``).
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["CheckpointFormatError", "write_fragment", "read_fragment"]


class CheckpointFormatError(ValueError):
    """A checkpoint file violates the storage contract."""


def write_fragment(dirpath, name: str, manifest: dict, array: np.ndarray) -> None:
    """Write one manifest + raw pair, adding the dtype and byte order to the manifest.

    The array must already be float32; the format stores nothing else.
    """
    if array.dtype != np.float32:
        raise CheckpointFormatError(
            f"fragment {name!r}: checkpoint format stores f32 only, got {array.dtype.name}"
        )
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    manifest = {**manifest, "dtype": "f32", "byte_order": "little"}
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    (d / f"{name}.json").write_text(text, encoding="utf-8")
    (d / f"{name}.bin").write_bytes(np.ascontiguousarray(array, dtype="<f4").tobytes())


def read_fragment(dirpath, name: str, shape: tuple[int, ...]) -> tuple[dict, np.ndarray]:
    """Read one fragment back as (manifest, float32 array of `shape`)."""
    d = Path(dirpath)
    mpath = d / f"{name}.json"
    bpath = d / f"{name}.bin"
    if not mpath.exists() or not bpath.exists():
        raise CheckpointFormatError(f"fragment {name!r} missing under {d}")
    manifest = json.loads(mpath.read_text(encoding="utf-8"))
    if manifest.get("dtype") != "f32":
        raise CheckpointFormatError(f"fragment {name!r}: unsupported dtype {manifest.get('dtype')!r}")
    if manifest.get("byte_order") != "little":
        raise CheckpointFormatError(
            f"fragment {name!r}: unsupported byte order {manifest.get('byte_order')!r}"
        )
    raw = bpath.read_bytes()
    expected = int(np.prod(shape, dtype=np.int64)) * 4
    if len(raw) != expected:
        raise CheckpointFormatError(
            f"fragment {name!r}: expected {expected} bytes for shape {shape}, got {len(raw)}"
        )
    arr = np.frombuffer(raw, dtype="<f4").astype(np.float32, copy=True).reshape(shape)
    return manifest, arr
