"""A committed format-1 model with categorical features, pinned byte for byte.

``tests/data/format1_categorical`` holds a 400-row portfolio with one
four-level and one two-level categorical column (``portfolio.csv`` and
``schema.json``), the OLS model ``claimtree train --severity-learner ols
--maxdepth 4 --seed 0`` wrote for it (``model.json``, format 1: its root
splits on the ``region=west`` indicator and node 2 on ``region=south``,
and terminal 8 is linear) and the output of ``claimtree predict`` on the
same file (``predictions.csv``). Simulated portfolios type every feature as
continuous, so this is the one committed input that reaches indicator
encoding and the category-level tests of table routing.
"""

import json
from pathlib import Path

import numpy as np

from claimtree.data import Column, load_csv, load_schema
from claimtree.hybrid import load, predict_batch, to_json

FIXTURE = Path(__file__).parent / "data" / "format1_categorical"


def test_fixture_is_format_1_with_categorical_features():
    assert json.loads((FIXTURE / "model.json").read_text(encoding="utf-8"))["format_version"] == 1
    model = load(FIXTURE / "model.json")
    assert sorted(len(c.categories) for c in model.schema if c.kind == "categorical") == [2, 4]
    assert "linear" in {nm.kind for nm in model.node_models.values()}
    indicators = {"region=south", "region=east", "region=west"}
    split_on = {model.tree.feature_names[nd.split.feature] for nd in model.tree.nodes.values() if nd.split}
    assert split_on & indicators


def test_load_then_save_gives_the_file_back():
    path = FIXTURE / "model.json"
    assert to_json(load(path)) == path.read_text(encoding="utf-8")


def test_predict_batch_matches_the_committed_predictions():
    model = load(FIXTURE / "model.json")
    assert load_schema(FIXTURE / "schema.json") == model.schema
    ds = load_csv(FIXTURE / "portfolio.csv", model.schema)
    stored = load_csv(FIXTURE / "predictions.csv", (
        Column("terminal_id", "continuous"), Column("raw", "continuous"), Column("clipped", "response"),
    ))
    terminal_of, raw, clipped = predict_batch(model, ds)
    np.testing.assert_array_equal(terminal_of, stored.column_values("terminal_id"))
    np.testing.assert_allclose(raw, stored.column_values("raw"), rtol=1e-12, atol=0)
    np.testing.assert_allclose(clipped, stored.response, rtol=1e-12, atol=0)
