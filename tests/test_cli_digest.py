"""Determinism of every command, through the byte-identity digest script."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "cli_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("cli_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_print_the_same_digests(tmp_path):
    cli_digest = load_script()
    first = cli_digest.digest(tmp_path / "a", n=400)
    second = cli_digest.digest(tmp_path / "b", n=400)
    assert first == second
    written = {line.split("  ", 1)[1] for line in first}
    for name in ("sim/latents.csv", "tune/winner.json", "ols_predictions.csv", "enet_metrics.json",
                 "compare/comparison.csv", "ols_tree.dot", "enet/model.json",
                 "enet_min/model.json", "enet_min/coefficients.csv"):
        assert name in written
    # seven commands write a manifest; only its created_utc differs between runs
    assert sum(name.endswith("manifest.json") for name in written) == 7
