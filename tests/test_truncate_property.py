"""Property test: truncating a grown tree gives the tree grown with the
truncated settings, on small random datasets with many tied values."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from claimtree.cart import IMPURITIES, TreeHyperparams, grow, tree_to_dict, truncate  # noqa: E402
from claimtree.data import Column, Dataset  # noqa: E402


@st.composite
def cases(draw):
    n = draw(st.integers(1, 40))
    p = draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(0, 4), min_size=n * p, max_size=n * p))
    labels = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    impurity = draw(st.sampled_from(sorted(IMPURITIES)))
    maxdepth = draw(st.integers(1, 6))
    minsplit = draw(st.integers(2, 15))
    deep = TreeHyperparams(
        maxdepth=draw(st.integers(maxdepth, 8)), minsplit=draw(st.integers(2, minsplit)),
        impurity=impurity,
    )
    wanted = TreeHyperparams(
        cp=draw(st.sampled_from([0.0, 0.01])), maxdepth=maxdepth, minsplit=minsplit, impurity=impurity,
    )
    columns = tuple(Column(f"f{j}", "continuous") for j in range(p)) + (Column("y", "response"),)
    values = np.column_stack([np.reshape(cells, (n, p)), labels]).astype(float)
    return Dataset(columns, values), deep, wanted


@settings(max_examples=150, deadline=None)
@given(cases())
def test_truncated_tree_equals_grown_tree(case):
    ds, deep, wanted = case
    assert tree_to_dict(truncate(grow(ds, deep), wanted)) == tree_to_dict(grow(ds, wanted))
