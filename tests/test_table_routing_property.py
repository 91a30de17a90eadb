"""Property test: routing on a Dataset's own table gives the terminal slots
that routing its encoded matrix gives, and ``predict_batch``, which encodes
only the rows of linear terminals, returns bit for bit what encoding the
whole table returned (``reference_predict_batch``).

Schemas mix continuous columns with two-level and wider categoricals, the
response and count columns sit anywhere (also elsewhere than in the
training set), tables are C- or F-ordered and scored whole or through a
contiguous ``subset`` view, and a saved model may have its indicator
thresholds edited to 1.5 (always left), 0 and -2 (always right).
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from claimtree import hybrid  # noqa: E402
from claimtree.data import Column, Dataset, Encoding, feature_matrix  # noqa: E402

LABELS = ("a", "b", "c", "d")


def reference_predict_batch(model, ds):
    """predict_batch as it was before table routing: encode the whole
    table, route the encoded matrix, score each linear terminal's rows of
    it."""
    X, names = feature_matrix(ds)
    assert names == model.tree.feature_names
    slot = model.tree.terminal_slots(X)
    node_models = [model.node_models[tid] for tid in model.tree.terminal_ids()]
    raw = np.array([nm.value for nm in node_models], dtype=float).take(slot)
    for j, nm in enumerate(node_models):
        if nm.fit is not None:
            rows = np.flatnonzero(slot == j)
            raw[rows] = nm.predict(X[rows])
    return model.tree.routing.node_id.take(slot), raw, np.maximum(raw, 0.0)


def place(draw, features, targets):
    """The feature columns in order with the response and count columns
    inserted at drawn positions; returns the columns and each one's index
    in ``features + targets``."""
    order = list(range(len(features)))
    for k in range(len(targets)):
        order.insert(draw(st.integers(0, len(order))), len(features) + k)
    return tuple((features + targets)[i] for i in order), order


def table(draw, rng, n, features, targets, order):
    """n rows of values for ``features + targets``, in column order ``order``,
    C- or F-ordered, read-only and owning their memory."""
    cells = []
    for col in features:
        if col.kind == "categorical":
            cells.append(rng.integers(0, len(col.categories), size=n).astype(float))
        else:
            cells.append(rng.integers(0, 5, size=n) + draw(st.sampled_from([0.0, 0.25])))
    claim = rng.uniform(size=n) < 0.75
    cells.append(np.where(claim, rng.gamma(2.0, 50.0, size=n), 0.0))
    if len(targets) == 2:
        cells.append(np.where(claim, rng.integers(1, 3, size=n), 0).astype(float))
    values = np.array(np.column_stack([cells[i] for i in order]), order=draw(st.sampled_from("CF")))
    values.setflags(write=False)
    return values


@st.composite
def cases(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    features = [Column(f"x{j}", "continuous") for j in range(draw(st.integers(1, 3)))]
    for j in range(draw(st.integers(0, 3))):
        k = draw(st.integers(2, 4))
        features.insert(draw(st.integers(0, len(features))), Column(f"c{j}", "categorical", LABELS[:k]))
    targets = [Column("y", "response")] + ([Column("n", "count")] if draw(st.booleans()) else [])
    train_cols, train_order = place(draw, features, targets)
    train = Dataset(train_cols, table(draw, rng, draw(st.integers(20, 80)), features, targets, train_order))
    hp = hybrid.HybridHyperparams(
        cp=0.0, maxdepth=draw(st.integers(1, 6)), minsplit=2, zero_threshold=1.0,
        min_node_for_linear=draw(st.integers(2, 10)), severity_learner="ols",
    )
    model = hybrid.fit(train, hp)
    score_cols, score_order = place(draw, features, targets)
    scoring = Dataset(score_cols, table(draw, rng, draw(st.integers(0, 40)), features, targets, score_order))
    if scoring.n and draw(st.booleans()):
        a = draw(st.integers(0, scoring.n - 1))
        scoring = scoring.subset(np.arange(a, draw(st.integers(a + 1, scoring.n))))
    edits = draw(st.lists(st.sampled_from([1.5, 0.0, -2.0]), max_size=6))
    return model, scoring, edits


def edited(model, edits, path):
    """``model`` saved, with the thresholds of its first indicator splits set
    to ``edits`` in turn, and loaded back."""
    indicators = set(np.flatnonzero(Encoding.of(model.schema).level).tolist())
    payload = json.loads(hybrid.to_json(model))
    pending = list(edits)
    stack = [payload["tree"]["root"]]
    while stack and pending:
        node = stack.pop()
        if "split" in node:
            if node["split"]["feature"] in indicators:
                node["split"]["threshold"] = pending.pop(0)
            stack += [node["right"], node["left"]]
    path.write_text(json.dumps(payload))
    return hybrid.load(path)


@settings(max_examples=150, deadline=None)
@given(cases())
def test_table_routing_matches_the_encoded_matrix(tmp_path_factory, case):
    model, scoring, edits = case
    loaded = edited(model, edits, tmp_path_factory.mktemp("model") / "model.json")
    for m in (model, loaded):
        want = m.tree.terminal_slots(feature_matrix(scoring)[0])
        np.testing.assert_array_equal(m.tree.dataset_slots(scoring), want)
        for got, expected in zip(hybrid.predict_batch(m, scoring), reference_predict_batch(m, scoring)):
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
