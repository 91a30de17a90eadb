"""Byte-identity digest of grown occurrence trees.

Grows a fixed battery of trees on simulated portfolios and prints one
``sha256  label`` line per tree, hashing ``tree_to_dict`` as sorted JSON.
The battery is every impurity x seeds 1-6 x 300 and 2000 rows at maxdepth
10 and minsplit 4, then the seed-7 10,000-row tree at maxdepth 12. Compare
the output of two checkouts to show that a change to tree growth keeps
every split, threshold, count and gain byte-identical.

Usage: python scripts/tree_digest.py

The ``src`` directory next to this script is imported first, so each
checkout digests its own code.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from claimtree.cart import IMPURITIES, TreeHyperparams, grow, tree_to_dict  # noqa: E402
from claimtree.simulate import SimConfig, simulate  # noqa: E402

SEEDS = range(1, 7)


def _line(label: str, ds, hp: TreeHyperparams) -> str:
    text = json.dumps(tree_to_dict(grow(ds, hp)), sort_keys=True)
    return f"{hashlib.sha256(text.encode('utf-8')).hexdigest()}  {label}"


def digest(sizes=(300, 2000), big: int = 10_000) -> list[str]:
    """One digest line per tree of the battery, in a fixed order."""
    lines = []
    for n in sizes:
        for seed in SEEDS:
            ds = simulate(SimConfig(n=n, seed=seed)).dataset
            for impurity in IMPURITIES:
                hp = TreeHyperparams(maxdepth=10, minsplit=4, impurity=impurity)
                lines.append(_line(f"{impurity} seed={seed} n={n}", ds, hp))
    if big:
        ds = simulate(SimConfig(n=big, seed=7)).dataset
        lines.append(_line(f"gini seed=7 n={big} maxdepth=12", ds, TreeHyperparams(maxdepth=12)))
    return lines


if __name__ == "__main__":
    print("\n".join(digest()))
