"""Digest every file under a runs root, for byte-identity checks between two trees.

Prints one ``relative/path sha256`` line per file, sorted by path.  A
``summary.json`` is hashed without its ``wall_time_s`` and
``created_unix`` fields, the only values a rerun of the same code may
change; every other file is hashed as its bytes.  Run the same commands
from two checkouts and diff the two outputs:

    python3 scripts/run_digest.py runs/ > digest.txt

Run ids hash the config's paths, so both trees must run from the same
absolute root (a backbone path or a checkpoint init path that differs
gives a different run directory name).
"""
from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HOST_FIELDS = ("wall_time_s", "created_unix")


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "summary.json":
        summary = json.loads(data)
        for key in HOST_FIELDS:
            summary.pop(key, None)
        data = json.dumps(summary, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: run_digest.py <runs_dir>", file=sys.stderr)
        return 2
    root = Path(argv[0])
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        print(f"{path.relative_to(root).as_posix()} {digest(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
