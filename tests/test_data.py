"""Dataset ingestion, encoding and standardization contracts."""

import numpy as np
import pytest

from claimtree.data import (
    Column,
    DataError,
    Dataset,
    encode_categoricals,
    feature_matrix,
    load_csv,
    load_schema,
    nonconstant_columns,
    save_csv,
    save_schema,
    standardize,
    standardize_matrix,
)


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


SIMPLE_SCHEMA = (Column("x1", "continuous"), Column("y", "response"))


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

    @pytest.mark.parametrize("categories", ['"ab"', '{"a": 1, "b": 2}', "3"])
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
        back = st.invert(Z)
        np.testing.assert_allclose(back, X, rtol=1e-10)

    def test_dataset_level_rejects_categorical(self):
        schema = (Column("c", "categorical", ("a", "b")), Column("y", "response"))
        ds = Dataset(schema, np.array([[0.0, 1.0], [1.0, 2.0]]))
        with pytest.raises(DataError, match="categorical"):
            standardize(ds, ["c"])

    def test_dataset_level_transforms_selected_columns(self):
        schema = (Column("x1", "continuous"), Column("x2", "continuous"), Column("y", "response"))
        ds = Dataset(schema, np.array([[1.0, 5.0, 0.0], [2.0, 6.0, 1.0], [3.0, 9.0, 2.0]]))
        out, st = standardize(ds, ["x1"])
        np.testing.assert_allclose(out.column_values("x1").sum(), 0.0, atol=1e-15)
        np.testing.assert_array_equal(out.column_values("x2"), ds.column_values("x2"))
        assert st.names == ("x1",)


class TestEncodeCategoricals:
    def four_level(self):
        return Column("c", "categorical", ("-3", "-2", "1", "4"))

    def test_four_levels_become_three_indicators(self):
        schema = (self.four_level(), Column("y", "response"))
        ds = Dataset(schema, np.array([[0, 1.0], [1, 0.0], [2, 0.0], [3, 2.0]]))
        enc = encode_categoricals(ds)
        names = [c.name for c in enc.feature_columns]
        assert names == ["c=-2", "c=1", "c=4"]
        np.testing.assert_array_equal(
            enc.values[:, :3],
            [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
        )

    def test_binary_column_unchanged(self):
        schema = (Column("b", "categorical", ("0", "1")), Column("y", "response"))
        ds = Dataset(schema, np.array([[0, 1.0], [1, 0.0]]))
        enc = encode_categoricals(ds)
        assert [c.name for c in enc.feature_columns] == ["b"]
        np.testing.assert_array_equal(enc.column_values("b"), [0.0, 1.0])

    def test_two_four_level_columns_give_six(self):
        schema = (self.four_level(), Column("d", "categorical", ("w", "x", "y", "z")), Column("y", "response"))
        ds = Dataset(schema, np.array([[0, 3, 1.0], [2, 1, 0.0]]))
        enc = encode_categoricals(ds)
        assert len(enc.feature_columns) == 6
        assert ds.p == 6

    def test_preserves_row_count_and_order(self):
        schema = (Column("x", "continuous"), self.four_level(), Column("y", "response"))
        rng = np.random.default_rng(1)
        vals = np.column_stack(
            [rng.normal(size=20), rng.integers(0, 4, 20).astype(float), rng.uniform(0, 1, 20)]
        )
        ds = Dataset(schema, vals)
        enc = encode_categoricals(ds)
        assert enc.n == 20
        np.testing.assert_array_equal(enc.column_values("x"), ds.column_values("x"))

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
