"""Dataset ingestion, encoding and standardization contracts."""

import gc
import tracemalloc

import numpy as np
import pytest

from claimtree.data import (
    Column,
    DataError,
    Dataset,
    feature_matrix,
    load_csv,
    load_schema,
    nonconstant_columns,
    save_csv,
    save_schema,
    standardize_matrix,
)
from claimtree.simulate import SimConfig, simulate


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


SIMPLE_SCHEMA = (Column("x1", "continuous"), Column("y", "response"))
COUNT_SCHEMA = (Column("x1", "continuous"), Column("k", "count"), Column("y", "response"))


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        """A 3-row file with one continuous feature parses to n=3, p=1."""
        f = write(tmp_path / "d.csv", "x1,y\n1.0,0\n2.5,3\n4.0,0\n")
        ds = load_csv(f, SIMPLE_SCHEMA)
        assert ds.n == 3 and ds.p == 1
        np.testing.assert_array_equal(ds.response, [0.0, 3.0, 0.0])

    def test_unparseable_number_names_row_and_column(self, tmp_path):
        f = write(tmp_path / "d.csv", "x1,y\n1.0,0\nabc,3\n")
        with pytest.raises(DataError, match=r"row 2.*'x1'"):
            load_csv(f, SIMPLE_SCHEMA)

    def test_missing_column(self, tmp_path):
        f = write(tmp_path / "d.csv", "x2,y\n1.0,0\n")
        with pytest.raises(DataError, match="missing column 'x1'"):
            load_csv(f, SIMPLE_SCHEMA)

    @pytest.mark.parametrize("text", [
        "x1,y,y\n1.0,5.0,-7.0\n2.0,0.0,abc\n",
        # the quoted cell sends the file straight to the cell-by-cell reader
        'x1,y,y\n1.0,5.0,-7.0\n2.0,"0.0",abc\n',
    ], ids=["fast-reader", "cell-reader"])
    def test_schema_column_named_twice_rejected(self, tmp_path, text):
        f = write(tmp_path / "d.csv", text)
        with pytest.raises(DataError, match=rf"^{f}: column 'y' appears more than once in the header$"):
            load_csv(f, SIMPLE_SCHEMA)

    def test_column_outside_the_schema_may_repeat(self, tmp_path):
        f = write(tmp_path / "d.csv", "x1,note,note,y\n1.0,a,b,5.0\n2.0,c,d,0.0\n")
        np.testing.assert_array_equal(load_csv(f, SIMPLE_SCHEMA).values, [[1.0, 5.0], [2.0, 0.0]])

    def test_missing_value_rejected(self, tmp_path):
        f = write(tmp_path / "d.csv", "x1,y\n1.0,0\n,3\n")
        with pytest.raises(DataError, match=r"row 2.*missing value"):
            load_csv(f, SIMPLE_SCHEMA)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_number_names_row_and_column(self, tmp_path, cell):
        f = write(tmp_path / "d.csv", f"x1,y\n1.0,0\n2.0,3\n4.0,{cell}\n")
        with pytest.raises(DataError, match=rf"row 3, column 'y': non-finite value {cell}$"):
            load_csv(f, SIMPLE_SCHEMA)

    def test_unknown_category(self, tmp_path):
        schema = (Column("c", "categorical", ("a", "b")), Column("y", "response"))
        f = write(tmp_path / "d.csv", "c,y\na,1\nz,2\n")
        with pytest.raises(DataError, match=r"row 2.*unknown category 'z'"):
            load_csv(f, schema)

    def test_negative_response_rejected(self, tmp_path):
        f = write(tmp_path / "d.csv", "x1,y\n1.0,2.0\n2.0,-3.0\n")
        with pytest.raises(DataError, match=rf"^{f}: row 2, column 'y': negative response -3.0$"):
            load_csv(f, SIMPLE_SCHEMA)

    def test_negative_response_rejected_in_memory(self):
        with pytest.raises(DataError, match="response column contains negative values"):
            Dataset(SIMPLE_SCHEMA, np.array([[1.0, 2.0], [2.0, -3.0]]))

    def test_negative_count_rejected(self, tmp_path):
        f = write(tmp_path / "d.csv", "x1,k,y\n1.0,1.5,0\n2.0,-2,3\n3.0,0,0\n")
        with pytest.raises(DataError, match=rf"^{f}: row 2, column 'k': negative count -2.0$"):
            load_csv(f, COUNT_SCHEMA)

    def test_negative_count_rejected_in_memory(self):
        with pytest.raises(DataError, match=r"^column 'k': row 1 holds -2.0, a negative count$"):
            Dataset(COUNT_SCHEMA, np.array([[1.0, 1.5, 0.0], [2.0, -2.0, 3.0]]))

    def test_negative_cells_are_named_in_schema_order(self, tmp_path):
        f = write(tmp_path / "d.csv", "y,k,x1\n1,0,1.0\n-1,-2,2.0\n")
        with pytest.raises(DataError, match=r"row 2, column 'k': negative count -2.0$"):
            load_csv(f, COUNT_SCHEMA)

    def test_fractional_count_accepted(self, tmp_path):
        f = write(tmp_path / "d.csv", "x1,k,y\n1.0,1.5,0\n2.0,0.25,3\n3.0,0,0\n")
        ds = load_csv(f, COUNT_SCHEMA)
        np.testing.assert_array_equal(ds.column_values("k"), [1.5, 0.25, 0.0])
        np.testing.assert_array_equal(ds.occurrence, [1, 1, 0])

    def test_portfolio_style_schema_has_p8(self, tmp_path):
        """Two continuous drivers plus six binary indicators give p=8."""
        cols = [Column("CoverageBC", "continuous"), Column("lnDeductBC", "continuous")]
        for name in ("NoClaimCreditBC", "TypeCity", "TypeCounty", "TypeMisc", "TypeSchool", "TypeTown"):
            cols.append(Column(name, "categorical", ("0", "1")))
        cols.append(Column("ClaimBC", "response"))
        header = ",".join(c.name for c in cols)
        f = write(tmp_path / "d.csv", f"{header}\n2.1,6.9,1,0,1,0,0,0,0.0\n")
        ds = load_csv(f, tuple(cols))
        assert ds.p == 8

    def test_ingestion_deterministic(self, tmp_path):
        f = write(tmp_path / "d.csv", "x1,y\n1.0,0\n2.5,3\n")
        a = load_csv(f, SIMPLE_SCHEMA)
        b = load_csv(f, SIMPLE_SCHEMA)
        np.testing.assert_array_equal(a.values, b.values)

    def test_roundtrip_through_save(self, tmp_path):
        schema = (
            Column("x1", "continuous"),
            Column("c", "categorical", ("lo", "mid", "hi")),
            Column("y", "response"),
        )
        f = write(tmp_path / "d.csv", "x1,c,y\n0.25,mid,1.5\n-3.5,hi,0\n")
        ds = load_csv(f, schema)
        out = tmp_path / "copy.csv"
        save_csv(ds, out)
        ds2 = load_csv(out, schema)
        np.testing.assert_array_equal(ds.values, ds2.values)


def traced_peak(make):
    """make()'s result and the peak memory numpy and Python allocated while it ran."""
    gc.collect()
    tracemalloc.start()
    try:
        result = make()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def caller_values():
    """Values a caller may give a Dataset, none of which it may keep."""
    base = np.arange(8.0).reshape(4, 2).copy()
    frozen, frozen32 = base.copy(), base.astype(np.float32)
    frozen.setflags(write=False)
    frozen32.setflags(write=False)
    return {
        "writable array": base,
        "view": base[::2],
        "read-only view": frozen[1:],
        "read-only float32 array": frozen32,
        "list": base.tolist(),
    }


class TestOneCopy:
    """A Dataset keeps a read-only float64 array that owns its memory and
    copies anything else; subset, load_csv and simulate hand theirs over."""

    @pytest.fixture(scope="class")
    def ds(self):
        return simulate(SimConfig(n=20_000, seed=7)).dataset

    @pytest.mark.parametrize("kind", sorted(caller_values()))
    def test_callers_values_are_copied(self, kind):
        values = caller_values()[kind]
        writeable = isinstance(values, np.ndarray) and values.flags.writeable
        ds = Dataset(SIMPLE_SCHEMA, values)
        assert not ds.values.flags.writeable and ds.values.dtype == np.float64
        np.testing.assert_array_equal(ds.values, np.asarray(values, dtype=float))
        if isinstance(values, np.ndarray):
            assert not np.shares_memory(ds.values, values)
            assert values.flags.writeable == writeable

    def test_read_only_owned_array_is_kept(self):
        values = np.array([[0.0, 1.0], [2.0, 3.0]])
        values.setflags(write=False)
        assert Dataset(SIMPLE_SCHEMA, values).values is values

    def test_subset_peak(self, ds):
        rows = np.random.default_rng(0).permutation(ds.n)[: ds.n // 2]
        sub, peak = traced_peak(lambda: ds.subset(rows))
        assert peak <= 1.5 * sub.values.nbytes

    def test_load_csv_peak(self, ds, tmp_path):
        f = tmp_path / "d.csv"
        save_csv(ds.subset(np.arange(5000)), f)
        loaded, peak = traced_peak(lambda: load_csv(f, ds.columns))
        assert peak <= 1.5 * loaded.values.nbytes

    def test_simulate_peak(self):
        portfolio, peak = traced_peak(lambda: simulate(SimConfig(n=20_000, seed=7)))
        assert peak <= 2.5 * portfolio.dataset.values.nbytes


class TestSchemaSidecar:
    def test_roundtrip(self, tmp_path):
        schema = (
            Column("x1", "continuous"),
            Column("c", "categorical", ("a", "b", "c")),
            Column("y", "response"),
        )
        path = tmp_path / "schema.json"
        save_schema(schema, path)
        assert load_schema(path) == schema

    @pytest.mark.parametrize(
        "text",
        ["{}", "[]", '{"columns": 3}', '{"columns": [{"kind": "response"}]}',
         '{"columns": ["y"]}', '{"columns": [{"name": "y"}]}', "{"],
    )
    def test_malformed_schema_names_the_file(self, tmp_path, text):
        path = write(tmp_path / "schema.json", text)
        with pytest.raises(DataError, match=f"malformed schema file {path}"):
            load_schema(path)

    @pytest.mark.parametrize(
        "categories", ['"ab"', '{"a": 1, "b": 2}', "3", "[1, 2]", '["a", null]']
    )
    def test_categories_must_be_a_list(self, tmp_path, categories):
        path = write(tmp_path / "schema.json", (
            '{"columns": [{"name": "c", "kind": "categorical", "categories": %s},'
            ' {"name": "y", "kind": "response"}]}' % categories
        ))
        with pytest.raises(DataError, match=f"malformed schema file {path}: column 'c'"):
            load_schema(path)

    def test_schema_requires_single_response(self):
        with pytest.raises(DataError, match="exactly one response"):
            Dataset((Column("x1", "continuous"),), np.zeros((1, 1)))


class TestCategoricalCells:
    COLUMNS = (Column("c", "categorical", ("a", "b")), Column("y", "response"))

    def test_category_indices_accepted(self):
        ds = Dataset(self.COLUMNS, [[0.0, 1.0], [1.0, 0.0], [1.0, 2.0]])
        assert ds.column_values("c").tolist() == [0.0, 1.0, 1.0]

    @pytest.mark.parametrize("bad", [-1.0, 1.7, 2.0, 0.5])
    def test_non_index_cell_names_column_and_first_bad_row(self, bad):
        values = [[0.0, 1.0], [1.0, 0.0], [bad, 1.0], [bad, 0.0]]
        with pytest.raises(DataError, match=rf"column 'c': row 2 holds {bad!r}, not a category"):
            Dataset(self.COLUMNS, values)


class TestStandardize:
    def test_column_1_2_3(self):
        """(1,2,3) centers to (-1,0,1) and divides by sqrt(2)."""
        Z, st = standardize_matrix(np.array([[1.0], [2.0], [3.0]]))
        np.testing.assert_allclose(Z[:, 0], np.array([-1.0, 0.0, 1.0]) / np.sqrt(2))
        assert st.center[0] == 2.0
        np.testing.assert_allclose(st.scale[0], np.sqrt(2.0))
        np.testing.assert_allclose(Z.sum(), 0.0, atol=1e-15)
        np.testing.assert_allclose((Z**2).sum(), 1.0)

    def test_idempotent_on_standardized_input(self):
        rng = np.random.default_rng(0)
        Z, _ = standardize_matrix(rng.normal(size=(40, 3)))
        Z2, st2 = standardize_matrix(Z)
        np.testing.assert_allclose(Z2, Z, atol=1e-12)
        np.testing.assert_allclose(st2.center, 0.0, atol=1e-12)
        np.testing.assert_allclose(st2.scale, 1.0, atol=1e-12)

    def test_constant_column_named_in_error(self):
        X = np.column_stack([np.arange(3.0), np.full(3, 5.0)])
        with pytest.raises(DataError, match="'c'"):
            standardize_matrix(X, names=["a", "c"])

    def test_constant_column_with_inexact_mean_rejected(self):
        # 37 x 0.1 has a mean that is not exactly 0.1, so the centred column
        # keeps a sum of squares near 1e-31 although every value is equal
        X = np.column_stack([np.arange(37.0), np.full(37, 0.1)])
        with pytest.raises(DataError, match="'c' is constant"):
            standardize_matrix(X, names=["a", "c"])

    def test_round_trip_inverts_exactly(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(60, 4)) * 100 + 13
        Z, st = standardize_matrix(X)
        # the stored center and scale map X to Z and back: the fit's
        # destandardization and the CV folds' test rows rely on both
        assert st.apply(X).tobytes() == Z.tobytes()
        np.testing.assert_allclose(Z * st.scale + st.center, X, rtol=1e-10)


class TestEncodeCategoricals:
    def four_level(self):
        return Column("c", "categorical", ("-3", "-2", "1", "4"))

    def test_four_levels_become_three_indicators(self):
        schema = (self.four_level(), Column("y", "response"))
        ds = Dataset(schema, np.array([[0, 1.0], [1, 0.0], [2, 0.0], [3, 2.0]]))
        X, names = feature_matrix(ds)
        assert names == ["c=-2", "c=1", "c=4"]
        np.testing.assert_array_equal(X, [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_binary_column_unchanged(self):
        schema = (Column("b", "categorical", ("0", "1")), Column("y", "response"))
        ds = Dataset(schema, np.array([[0, 1.0], [1, 0.0]]))
        X, names = feature_matrix(ds)
        assert names == ["b"]
        np.testing.assert_array_equal(X, [[0.0], [1.0]])

    def test_two_four_level_columns_give_six(self):
        schema = (self.four_level(), Column("d", "categorical", ("w", "x", "y", "z")), Column("y", "response"))
        ds = Dataset(schema, np.array([[0, 3, 1.0], [2, 1, 0.0]]))
        X, names = feature_matrix(ds)
        assert names == ["c=-2", "c=1", "c=4", "d=x", "d=y", "d=z"]
        np.testing.assert_array_equal(X, [[0, 0, 0, 0, 0, 1], [0, 1, 0, 1, 0, 0]])
        assert ds.p == 6

    def test_preserves_row_count_and_order(self):
        schema = (Column("x", "continuous"), self.four_level(), Column("y", "response"))
        rng = np.random.default_rng(1)
        vals = np.column_stack(
            [rng.normal(size=20), rng.integers(0, 4, 20).astype(float), rng.uniform(0, 1, 20)]
        )
        ds = Dataset(schema, vals)
        X, names = feature_matrix(ds)
        assert X.shape == (20, 4) and names[0] == "x"
        np.testing.assert_array_equal(X[:, 0], ds.column_values("x"))
        # row i's indicators name its own category (all zero for the first)
        levels = X[:, 1:] @ np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(levels, ds.column_values("c"))

    def test_feature_matrix_names_align(self):
        schema = (Column("x", "continuous"), self.four_level(), Column("y", "response"))
        ds = Dataset(schema, np.array([[0.5, 2, 1.0]]))
        X, names = feature_matrix(ds)
        assert names == ["x", "c=-2", "c=1", "c=4"]
        np.testing.assert_array_equal(X, [[0.5, 0.0, 1.0, 0.0]])


class TestNonconstantColumns:
    def test_constant_and_two_value_columns(self):
        X = np.array([[1.0, 0.0, 2.0], [1.0, 1.0, 2.0], [1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(nonconstant_columns(X), [False, True, False])

    def test_zero_rows_marks_every_column_constant(self):
        mask = nonconstant_columns(np.empty((0, 3)))
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask, [False, False, False])

    def test_single_row_is_constant(self):
        np.testing.assert_array_equal(nonconstant_columns(np.array([[1.0, 2.0]])), [False, False])


class TestOccurrence:
    def test_from_response(self):
        ds = Dataset(SIMPLE_SCHEMA, np.array([[1.0, 0.0], [2.0, 3.5]]))
        np.testing.assert_array_equal(ds.occurrence, [0, 1])

    def test_count_column_takes_precedence(self):
        schema = (Column("x1", "continuous"), Column("k", "count"), Column("y", "response"))
        ds = Dataset(schema, np.array([[1.0, 2.0, 0.0], [2.0, 0.0, 1.0]]))
        np.testing.assert_array_equal(ds.occurrence, [1, 0])
