"""Property tests: the schema-driven encoder against a plain per-column reference."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from claimtree.data import Column, Dataset, feature_matrix  # noqa: E402


def reference_encode(ds):
    """Encode one schema column at a time, as the README states the rule.

    Returns ``(columns, arrays)`` for every output column in order: a
    two-level categorical keeps its name, a wider one becomes ``name=label``
    indicators in category order, and every other column passes through.
    """
    columns, arrays = [], []
    for j, col in enumerate(ds.columns):
        vals = ds.values[:, j]
        if col.kind != "categorical":
            columns.append(col)
            arrays.append(vals.copy())
        elif len(col.categories) == 2:
            columns.append(Column(col.name, "continuous"))
            arrays.append((vals == 1).astype(float))
        else:
            for level in range(1, len(col.categories)):
                columns.append(Column(f"{col.name}={col.categories[level]}", "continuous"))
                arrays.append((vals == level).astype(float))
    return columns, arrays


def stack(arrays, n):
    return np.column_stack(arrays) if arrays else np.empty((n, 0))


@st.composite
def datasets(draw):
    labels = st.text("abz-019", min_size=1, max_size=3)
    columns = [Column(f"x{i}", "continuous") for i in range(draw(st.integers(0, 3)))]
    for i, k in enumerate(draw(st.lists(st.integers(1, 5), max_size=3))):
        cats = draw(st.lists(labels, min_size=k, max_size=k, unique=True))
        columns.append(Column(f"c{i}", "categorical", tuple(cats)))
    if draw(st.booleans()):
        columns.append(Column("k", "count"))
    columns.append(Column("y", "response"))
    columns = draw(st.permutations(columns))
    n = draw(st.integers(0, 12))
    cells = []
    for col in columns:
        if col.kind == "continuous":
            elements = st.floats(-1e6, 1e6, allow_nan=False)
        elif col.kind == "categorical":
            elements = st.integers(0, len(col.categories) - 1).map(float)
        else:
            elements = st.floats(0.0, 1e6)
        cells.append(draw(st.lists(elements, min_size=n, max_size=n)))
    return Dataset(tuple(columns), np.array(cells, dtype=float).T.reshape(n, len(columns)))


@settings(max_examples=200, deadline=None)
@given(datasets())
def test_feature_matrix_matches_reference(ds):
    ref_cols, ref_arrays = reference_encode(ds)
    keep = [i for i, c in enumerate(ref_cols) if c.kind == "continuous"]
    X_ref = stack([ref_arrays[i] for i in keep], ds.n)

    X, names = feature_matrix(ds)

    assert names == [ref_cols[i].name for i in keep]
    assert X.dtype == np.float64 and X.shape == X_ref.shape
    assert X.flags.f_contiguous  # as documented; routing gathers from it without a copy
    assert X.tobytes() == X_ref.tobytes()
    assert ds.p == X.shape[1]


@settings(max_examples=200, deadline=None)
@given(datasets())
def test_writing_into_feature_matrix_leaves_dataset_untouched(ds):
    before = ds.values.copy()
    X, _ = feature_matrix(ds)
    X[...] = 7.0
    assert ds.values.tobytes() == before.tobytes()
