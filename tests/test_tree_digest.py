"""Determinism of tree growth, through the tree digest script."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "tree_digest.py"


def load_script():
    spec = importlib.util.spec_from_file_location("tree_digest", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_two_runs_print_the_same_digests():
    tree_digest = load_script()
    first = tree_digest.digest(sizes=(120,), big=400)
    second = tree_digest.digest(sizes=(120,), big=400)
    assert first == second
    labels = [line.split("  ", 1)[1] for line in first]
    assert len(labels) == 3 * 6 + 1 == len(set(labels))
    assert labels[0] == "gini seed=1 n=120"
    assert labels[-1] == "gini seed=7 n=400 maxdepth=12"
    # distinct portfolios and impurities grow distinct trees
    assert len({line.split("  ", 1)[0] for line in first}) > 3 * 6 // 2
