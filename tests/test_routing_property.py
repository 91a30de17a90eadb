"""Property test: routing through the flat node table gives the stack
router's terminal ids, batch and single-row alike, and terminal slots that
index ``terminal_ids()`` to the same ids, on small random trees with many
tied values and on rows that sit exactly on a threshold, at +-inf or at
NaN (which goes right)."""

import json

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from claimtree.cart import TreeHyperparams, grow, prune, tree_from_dict, tree_to_dict  # noqa: E402
from claimtree.data import Column, Dataset  # noqa: E402
from test_cart import reference_classify_batch  # noqa: E402

SPECIAL = [-np.inf, np.inf, np.nan, -0.0]


@st.composite
def cases(draw):
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(0, 4), min_size=n * p, max_size=n * p))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    columns = tuple(Column(f"f{j}", "continuous") for j in range(p)) + (Column("y", "response"),)
    values = np.column_stack([np.reshape(cells, (n, p)), labels]).astype(float)
    tree = grow(Dataset(columns, values), TreeHyperparams(maxdepth=draw(st.integers(1, 12)), minsplit=2))
    if draw(st.integers(0, 3)) == 0:
        tree = prune(tree, 1.0)  # the root alone
    thresholds = [nd.split.threshold for nd in tree.nodes.values() if nd.split is not None]
    pool = thresholds + [np.nextafter(t, -np.inf) for t in thresholds] + SPECIAL + [0.0, 1.0, 2.5, 4.0]
    m = draw(st.integers(0, 25))
    X = np.reshape(draw(st.lists(st.sampled_from(pool), min_size=m * p, max_size=m * p)), (m, p))
    return tree, X.astype(float)


@settings(max_examples=300, deadline=None)
@given(cases())
def test_flat_table_routes_as_the_stack_router(case):
    tree, X = case
    want = reference_classify_batch(tree, X)
    assert set(want.tolist()) <= set(tree.terminal_ids())
    for batch in (X, np.asfortranarray(X)):
        got = tree.classify_batch(batch)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, want)
    assert [tree.classify(row) for row in X] == want.tolist()
    loaded = tree_from_dict(json.loads(json.dumps(tree_to_dict(tree))))
    np.testing.assert_array_equal(loaded.classify_batch(X), want)
    for t in (tree, loaded):
        np.testing.assert_array_equal(np.asarray(t.terminal_ids())[t.terminal_slots(X)], want)
