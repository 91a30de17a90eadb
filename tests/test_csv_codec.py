"""The CSV codec against the cell-by-cell reader and writers it replaced.

``reference_load_csv``, ``reference_save_csv`` and
``reference_predictions_csv`` decide every cell's column position, kind and
category index on their own, as the codec once did; ``load_csv`` must give
the same values and the same ``DataError`` text, and the writers the same
bytes.
"""

import csv
import io

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from claimtree.cli import main  # noqa: E402
from claimtree.data import Column, DataError, Dataset, load_csv, save_csv  # noqa: E402
from claimtree.hybrid import HybridHyperparams, fit, predict_batch, save  # noqa: E402
from claimtree.simulate import SimConfig, simulate  # noqa: E402


def reference_load_csv(path, schema):
    schema = tuple(schema)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        pos = {}
        for col in schema:
            if col.name not in header:
                raise DataError(f"{path}: missing column {col.name!r}")
            pos[col.name] = header.index(col.name)
        rows = []
        for r, record in enumerate(reader, start=1):
            parsed = np.empty(len(schema))
            for j, col in enumerate(schema):
                if pos[col.name] >= len(record):
                    raise DataError(f"{path}: row {r}, column {col.name!r}: missing value")
                cell = record[pos[col.name]].strip()
                if cell == "":
                    raise DataError(f"{path}: row {r}, column {col.name!r}: missing value")
                if col.kind == "categorical":
                    if cell not in col.categories:
                        raise DataError(
                            f"{path}: row {r}, column {col.name!r}: unknown category {cell!r}"
                        )
                    parsed[j] = col.categories.index(cell)
                else:
                    try:
                        parsed[j] = float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}: row {r}, column {col.name!r}: cannot parse {cell!r}"
                        ) from None
            rows.append(parsed)
    values = np.array(rows, dtype=float) if rows else np.empty((0, len(schema)))
    finite = np.isfinite(values)
    if not finite.all():
        r, j = np.argwhere(~finite)[0]
        raise DataError(
            f"{path}: row {r + 1}, column {schema[j].name!r}: non-finite value {values[r, j]}"
        )
    for j, col in enumerate(schema):
        for r in range(values.shape[0]):
            if col.kind == "response" and values[r, j] < 0:
                raise DataError(
                    f"{path}: row {r + 1}, column {col.name!r}: negative response {values[r, j]}"
                )
    return Dataset(schema, values)


def reference_save_csv(ds, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([c.name for c in ds.columns])
        for i in range(ds.n):
            record = []
            for j, col in enumerate(ds.columns):
                v = ds.values[i, j]
                if col.kind == "categorical":
                    record.append(col.categories[int(v)])
                else:
                    record.append(repr(float(v)))
            writer.writerow(record)


def reference_predictions_csv(terminal_of, raw, clipped, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "terminal_id", "raw", "clipped"])
        for i in range(len(raw)):
            writer.writerow([i, int(terminal_of[i]), repr(float(raw[i])), repr(float(clipped[i]))])


def outcome(loader, path, schema):
    """What a loader gives: the columns and value bytes, or the error text."""
    try:
        ds = loader(path, schema)
    except DataError as exc:
        return "error", str(exc)
    return ds.columns, ds.values.shape, ds.values.tobytes()


def assert_same_load(path, schema):
    expected = outcome(reference_load_csv, path, schema)
    assert outcome(load_csv, path, schema) == expected
    return expected


SCHEMA = (
    Column("x1", "continuous"),
    Column("c", "categorical", ("lo", "mid", "hi")),
    Column("y", "response"),
)

BATTERY = {
    "well formed": "x1,c,y\n1.0,lo,0\n-2.5,hi,3\n",
    "short row": "x1,c,y\n1.0,lo,0\n1.0,lo\n",
    "empty cell": "x1,c,y\n1.0,,0\n",
    "whitespace-only cell": "x1,c,y\n1.0,lo,  \t\n",
    "unknown label": "x1,c,y\n1.0,top,0\n",
    "unparseable cell": "x1,c,y\nabc,lo,0\n",
    "nan": "x1,c,y\n1.0,lo,nan\n",
    "inf": "x1,c,y\ninf,lo,1\n",
    "-inf": "x1,c,y\n1.0,mid,0\n-inf,lo,1\n",
    "overflowing number": "x1,c,y\n1e400,lo,1\n",
    "nan before a later parse error": "x1,c,y\nnan,lo,1\n2.0,lo,abc\n",
    "blank line": "x1,c,y\n1.0,lo,0\n\n2.0,hi,1\n",
    "missing column": "x1,y\n1.0,0\n",
    "empty file": "",
    "header-only file": "x1,c,y\n",
    "reordered header with extras": "y,zz,c,x1\n1, ,  mid , 2.5 \n",
    "duplicated header name": "x1,x1,c,y\n1.0,2.0,lo,3\n",
    "quoted cells": 'x1,c,y\n"1.5","hi","2"\n',
    "negative response": "x1,c,y\n1.0,lo,-1\n",
    "CRLF line ends": "x1,c,y\r\n1.0,lo,0\r\n",
    "underscored number": "x1,c,y\n1_000,lo,0\n",
}


class TestBattery:
    @pytest.mark.parametrize("name", sorted(BATTERY))
    def test_loader_matches_reference(self, tmp_path, name):
        f = tmp_path / "d.csv"
        f.write_text(BATTERY[name], encoding="utf-8")
        assert_same_load(f, SCHEMA)

    @pytest.mark.parametrize("text", ["c,y\n,1\n", "c,y\n  ,1\n", "c,y\n\n"])
    def test_empty_label_is_still_a_missing_value(self, tmp_path, text):
        schema = (Column("c", "categorical", ("", "a")), Column("y", "response"))
        f = tmp_path / "d.csv"
        f.write_text(text, encoding="utf-8")
        kind, message = assert_same_load(f, schema)
        assert kind == "error" and message.endswith("column 'c': missing value")

    def test_number_is_not_a_label(self, tmp_path):
        schema = (Column("c", "categorical", ("",)), Column("y", "response"))
        f = tmp_path / "d.csv"
        f.write_text("c,y\n1.0,1\n", encoding="utf-8")
        assert assert_same_load(f, schema)[1].endswith("unknown category '1.0'")

    def test_round_trip_writes_identical_bytes(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(BATTERY["well formed"], encoding="utf-8")
        ds = load_csv(f, SCHEMA)
        save_csv(ds, tmp_path / "new.csv")
        reference_save_csv(ds, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_predict_writes_the_reference_bytes(tmp_path):
    portfolio = simulate(SimConfig(n=300, seed=3))
    model = fit(portfolio.dataset, HybridHyperparams(maxdepth=3, severity_learner="ols"))
    save(model, tmp_path / "model.json")
    save_csv(portfolio.dataset, tmp_path / "data.csv")
    assert main([
        "predict", "--model", str(tmp_path / "model.json"),
        "--data", str(tmp_path / "data.csv"), "--out", str(tmp_path / "new.csv"),
    ]) == 0
    reference_predictions_csv(*predict_batch(model, portfolio.dataset), tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


LABELS = st.sampled_from(["", "0", "1.5", "a", " b", "a,b", 'q"']) | st.text(alphabet='ab ,"z0\t', max_size=3)
CELLS = ["", " ", "0", "1", " 2.5 ", "-3e2", "1_0", "nan", "-inf", "1e400", "abc", "a", " b ", "a,b"]


@st.composite
def schemas(draw):
    columns = [Column(f"x{i}", "continuous") for i in range(draw(st.integers(0, 3)))]
    for i, k in enumerate(draw(st.lists(st.integers(1, 4), max_size=3))):
        cats = draw(st.lists(LABELS, min_size=k, max_size=k, unique=True))
        columns.append(Column(f"c{i}", "categorical", tuple(cats)))
    if draw(st.booleans()):
        columns.append(Column("k", "count"))
    columns.append(Column("y", "response"))
    return tuple(draw(st.permutations(columns)))


@st.composite
def datasets(draw):
    columns = draw(schemas())
    n = draw(st.integers(0, 12))
    cells = []
    for col in columns:
        if col.kind == "continuous":
            elements = st.floats(allow_nan=False, allow_infinity=False)
        elif col.kind == "categorical":
            elements = st.integers(0, len(col.categories) - 1).map(float)
        else:
            elements = st.floats(0.0, 1e300)
        cells.append(draw(st.lists(elements, min_size=n, max_size=n)))
    return Dataset(columns, np.array(cells, dtype=float).T.reshape(n, len(columns)))


@st.composite
def csv_texts(draw):
    """A schema and CSV text for it: the header may reorder, drop or add
    columns, rows may be short, long or blank, cells may be anything."""
    schema = draw(schemas())
    names = [c.name for c in schema]
    header = draw(st.permutations(names + draw(st.lists(st.sampled_from(["zz", "x0"]), max_size=2))))
    if draw(st.integers(0, 9)) == 0:
        header = header[1:]
    labels = [label for c in schema if c.categories for label in c.categories]
    cell = st.sampled_from(CELLS + labels) | st.floats().map(repr)
    rows = draw(st.lists(
        st.lists(cell, min_size=len(header), max_size=len(header))
        | st.lists(cell, max_size=len(header) + 1),
        max_size=6,
    ))
    buf = io.StringIO()
    writer = csv.writer(buf)
    if draw(st.integers(0, 19)):
        writer.writerow(header)
        writer.writerows(rows)
    return schema, buf.getvalue()


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_texts())
def test_loader_matches_reference_on_generated_text(tmp_path, case):
    schema, text = case
    f = tmp_path / "d.csv"
    f.write_text(text, encoding="utf-8", newline="")
    assert_same_load(f, schema)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(datasets())
def test_save_matches_reference_and_reloads(tmp_path, ds):
    save_csv(ds, tmp_path / "new.csv")
    reference_save_csv(ds, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert_same_load(tmp_path / "new.csv", ds.columns)
