"""Property test: routing on a Dataset's own table gives the terminal slots
that routing its encoded matrix gives, and ``predict_batch``, which encodes
only the rows of linear terminals, returns bit for bit what encoding the
whole table returned (``reference_predict_batch``).

Schemas mix continuous columns with two-level and wider categoricals, the
response and count columns sit anywhere (also elsewhere than in the
training set), tables are C- or F-ordered and scored whole or through a
contiguous ``subset`` view, and a saved model may have its indicator
thresholds edited to 1.5 (always left), 0 and -2 (always right).

Also here, since CI's numpy-floor job runs this file: the one-sided
routing test (``hi`` stored as None) routes every row as the two-sided
test does, on Dataset tables and on encoded matrices holding NaN; the
grouping of rows by terminal slot (one stable argsort) gives each slot's
rows as ``np.flatnonzero`` does; and single-row ``predict`` matches
``predict_batch`` on a categorical-schema model.
"""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from claimtree import hybrid  # noqa: E402
from claimtree.hybrid import _rows_by_slot  # noqa: E402
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


def two_sided(tests):
    """``tests`` with ``hi`` spelled out: +inf at every entry where it is None."""
    source, lo, hi = tests
    return source, lo, np.full(lo.shape, np.inf) if hi is None else hi


@settings(max_examples=100, deadline=None)
@given(cases(), st.integers(0, 2**32 - 1))
def test_one_sided_tests_route_as_two_sided(tmp_path_factory, case, seed):
    model, scoring, edits = case
    loaded = edited(model, edits, tmp_path_factory.mktemp("model") / "model.json")
    X = feature_matrix(scoring)[0]
    X[np.random.default_rng(seed).uniform(size=X.shape) < 0.2] = np.nan
    for m in (model, loaded):
        table = m.tree.routing
        assert table.encoded[2] is None
        for values, tests, slots in (
            (scoring.values, table.tests(scoring.encoding), m.tree.dataset_slots(scoring)),
            (X, table.encoded, m.tree.terminal_slots(X)),
        ):
            full = two_sided(tests)
            assert (tests[2] is None) == bool((full[2] == np.inf).all())
            np.testing.assert_array_equal(slots, table.route(values, full))
        assert m.tree.terminal_slots(X).tolist() == [m.tree.terminal_slot(x) for x in X]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.integers(0, 60), st.integers(0, 2**32 - 1), st.data())
def test_rows_by_slot_matches_flatnonzero(n_slots, n, seed, data):
    slot = np.random.default_rng(seed).integers(0, n_slots, size=n).astype(np.intp)
    wanted = sorted(data.draw(st.sets(st.integers(0, n_slots - 1))))
    got = _rows_by_slot(slot, wanted, n_slots)
    assert len(got) == len(wanted)
    for j, rows in zip(wanted, got):
        want = np.flatnonzero(slot == j)
        assert rows.dtype == want.dtype and rows.tobytes() == want.tobytes()


CATEGORICAL = (
    Column("c0", "categorical", ("a", "b", "c", "d")), Column("y", "response"),
    Column("c1", "categorical", ("a", "b", "c")),
)


def categorical_portfolio(n, seed):
    """n rows of CATEGORICAL: claim odds set by both categoricals, and
    claim sizes that grow with c0 and with level b of c1."""
    rng = np.random.default_rng(seed)
    c0, c1 = rng.integers(0, 4, n), rng.integers(0, 3, n)
    claim = rng.uniform(size=n) < np.array([0.9, 0.3, 0.8, 0.6])[c0] - 0.2 * (c1 == 2)
    y = np.where(claim, rng.gamma(2.0, 50.0, n) * (1.0 + c0 + 2.0 * (c1 == 1)), 0.0)
    return Dataset(CATEGORICAL, np.column_stack([c0, y, c1]).astype(float))


@pytest.fixture(scope="module")
def categorical_model():
    hp = hybrid.HybridHyperparams(
        cp=0.0, maxdepth=3, minsplit=2, zero_threshold=1.0, min_node_for_linear=10, severity_learner="ols",
    )
    return hybrid.fit(categorical_portfolio(2000, 0), hp)


@pytest.mark.parametrize("threshold, two_sided_after", [(None, True), (1.5, True), (0.0, False), (-2.0, False)],
                         ids=["as fitted", "t > 1", "t = 0", "t < 0"])
def test_categorical_level_splits_take_the_two_sided_path(tmp_path, categorical_model, threshold, two_sided_after):
    """A split on the indicator of a category level at 0 < t <= 1 (as
    fitted) or t > 1 compares the category index from both sides; with
    every such split at t <= 0 the tests are one-sided. Either way a
    Dataset's table routes as its encoded matrix does."""
    model = categorical_model
    if threshold is not None:
        n_splits = sum(nd.split is not None for nd in model.tree.nodes.values())
        model = edited(model, [threshold] * n_splits, tmp_path / "model.json")
    scoring = categorical_portfolio(300, 1)
    tests = model.tree.routing.tests(scoring.encoding)
    assert (tests[2] is not None) == two_sided_after
    want = model.tree.terminal_slots(feature_matrix(scoring)[0])
    np.testing.assert_array_equal(model.tree.dataset_slots(scoring), want)
    np.testing.assert_array_equal(model.tree.routing.route(scoring.values, two_sided(tests)), want)


def test_single_row_predict_equals_batch_bit_for_bit(tmp_path, categorical_model):
    """Every feature is a category indicator, so each linear product has at
    most two non-zero terms, one per categorical, and every summation
    order gives the same bits: predict equals predict_batch's clipped
    output exactly, on the fitted model and on it loaded back."""
    hybrid.save(categorical_model, tmp_path / "model.json")
    scoring = categorical_portfolio(500, 2)
    X = feature_matrix(scoring)[0]
    for model in (categorical_model, hybrid.load(tmp_path / "model.json")):
        tids, _, clipped = hybrid.predict_batch(model, scoring)
        assert len({t for t in tids.tolist() if model.node_models[t].kind == "linear"}) >= 3
        single = np.array([hybrid.predict(model, x) for x in X])
        assert single.tobytes() == clipped.tobytes()


@pytest.mark.parametrize("shape", ["short", "long", "2-D"])
def test_single_row_of_the_wrong_length_raises(categorical_model, shape):
    x = feature_matrix(categorical_portfolio(1, 3))[0][0]
    row = {"short": x[:-1], "long": np.append(x, 0.0), "2-D": x[None, :]}[shape]
    with pytest.raises(ValueError, match="expected 5 feature values"):
        hybrid.predict(categorical_model, row)
