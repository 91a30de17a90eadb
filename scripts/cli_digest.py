"""Byte-identity digest of every claimtree command's outputs.

Runs a fixed-seed chain of all seven commands through ``claimtree.cli.main``
in this process, from inside the output directory and with relative paths,
then prints ``sha256  path`` for every file written. The ``created_utc``
line of each ``manifest.json`` is left out of its digest, so two runs of
the same code print the same lines. Compare the output of two checkouts
to show that a change keeps every output byte-identical.

Usage: python scripts/cli_digest.py OUT_DIR

The ``src`` directory next to this script is imported first, so each
checkout digests its own code. OUT_DIR must be empty or absent.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from claimtree.cli import main  # noqa: E402

GRID = {"cp": [1e-4, 2e-4], "maxdepth": [3, 5]}
_CREATED = re.compile(rb'^\s*"created_utc": .*\n', re.MULTILINE)


def _commands(n: int) -> list[list[str]]:
    data = ["--data", "sim/portfolio.csv", "--schema", "sim/schema.json"]
    commands = [
        ["simulate", "--n", str(n), "--seed", "7", "--latents", "--out", "sim"],
        ["simulate", "--n", str(n // 2), "--seed", "8", "--out", "holdout"],
        ["train", *data, "--out", "ols", "--severity-learner", "ols", "--seed", "1"],
        ["train", *data, "--out", "enet", "--glm-which", "0.5", "--glm-lambda", "0.3"],
        ["tune", *data, "--grid", "grid.json", "--folds", "3", "--severity-learner", "ols",
         "--seed", "2", "--out", "tune"],
        ["compare", "--models", "ols/model.json", "enet/model.json", "--train", "sim/portfolio.csv",
         "--test", "holdout/portfolio.csv", "--schema", "sim/schema.json", "--out", "compare"],
    ]
    for model in ("ols", "enet"):
        commands += [
            ["predict", "--model", f"{model}/model.json", "--data", "holdout/portfolio.csv",
             "--out", f"{model}_predictions.csv"],
            ["evaluate", "--predictions", f"{model}_predictions.csv",
             "--actuals", "holdout/portfolio.csv", "--schema", "sim/schema.json",
             "--out", f"{model}_metrics.json"],
            ["export-tree", "--model", f"{model}/model.json", "--out", f"{model}_tree.dot"],
        ]
    return commands


def digest(out_dir: Path, n: int = 2000) -> list[str]:
    """Run the command chain in ``out_dir`` and return one digest line per file."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if any(out_dir.iterdir()):
        raise SystemExit(f"{out_dir} is not empty")
    cwd = os.getcwd()
    os.chdir(out_dir)
    try:
        Path("grid.json").write_text(json.dumps(GRID), encoding="utf-8")
        for argv in _commands(n):
            with contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            if code != 0:
                raise SystemExit(f"claimtree {' '.join(argv)} exited {code}")
    finally:
        os.chdir(cwd)
    lines = []
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            data = _CREATED.sub(b"", data)
        lines.append(f"{hashlib.sha256(data).hexdigest()}  {path.relative_to(out_dir).as_posix()}")
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path)
    args = parser.parse_args()
    print("\n".join(digest(args.out_dir)))
