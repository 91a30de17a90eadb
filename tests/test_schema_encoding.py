"""One ``Encoding`` per schema: its layout, that every Dataset of one schema
holds the same object, and that the routing table caches its tests per
that object."""

import numpy as np
import pytest

from claimtree.cart import TreeHyperparams, grow
from claimtree.data import Column, Dataset, Encoding, encoded_rows, feature_matrix

COLUMNS = (
    Column("age", "continuous"),
    Column("region", "categorical", ("n", "s", "e", "w")),
    Column("claim", "response"),
    Column("gender", "categorical", ("f", "m")),
    Column("k", "count"),
    Column("single", "categorical", ("only",)),
    Column("power", "continuous"),
)


def table(n=200, seed=0):
    rng = np.random.default_rng(seed)
    claim = rng.uniform(size=n) < 0.6
    values = np.column_stack([
        rng.uniform(18, 80, n), rng.integers(0, 4, n), np.where(claim, rng.gamma(2.0, 50.0, n), 0.0),
        rng.integers(0, 2, n), claim.astype(float), np.zeros(n), rng.gamma(3.0, 20.0, n),
    ])
    return Dataset(COLUMNS, values)


def test_layout_per_feature():
    enc = Encoding.of(COLUMNS)
    assert enc.names == ("age", "region=s", "region=e", "region=w", "gender", "power")
    assert enc.source.tolist() == [0, 1, 1, 1, 3, 6]
    assert enc.level.tolist() == [0, 1, 2, 3, 1, 0]
    assert enc.source.dtype == enc.level.dtype == np.intp
    assert not (enc.source.flags.writeable or enc.level.flags.writeable)


def test_no_features():
    enc = Encoding.of((Column("y", "response"),))
    assert enc.names == () and enc.source.size == enc.level.size == 0


def test_equal_schemas_share_one_object():
    rebuilt = tuple(Column(c.name, c.kind, c.categories) for c in COLUMNS)
    assert Encoding.of(COLUMNS) is Encoding.of(rebuilt)
    assert table(seed=1).encoding is table(seed=2).encoding is Encoding.of(COLUMNS)


@pytest.mark.parametrize("rows", [np.arange(10, 50), np.array([5, 3, 3, 150])], ids=["view", "copy"])
def test_a_subset_holds_its_parents_object(rows):
    ds = table()
    assert ds.subset(rows).encoding is ds.encoding
    assert ds.p == len(ds.encoding.names) == 6


def test_matrix_builders_read_it():
    ds = table()
    X, names = feature_matrix(ds)
    assert names == list(ds.encoding.names)
    rows = np.array([7, 0, 199, 7])
    assert encoded_rows(ds, rows).tobytes() == np.ascontiguousarray(X[rows]).tobytes()


def test_routing_keeps_one_test_table_per_object():
    ds = table(n=400)
    tree = grow(ds, TreeHyperparams(maxdepth=4, minsplit=2))
    whole = tree.dataset_slots(ds)
    for start in range(0, ds.n, 100):
        batch = ds.subset(np.arange(start, start + 100))
        np.testing.assert_array_equal(tree.dataset_slots(batch), whole[start:start + 100])
    np.testing.assert_array_equal(tree.dataset_slots(ds.subset(np.arange(ds.n)[::-1])), whole[::-1])
    assert list(tree.routing._tests) == [ds.encoding]
