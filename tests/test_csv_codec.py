"""The CSV codec against the cell-by-cell reader and writers it replaced.

``reference_load_csv``, ``reference_save_csv`` and
``reference_predictions_csv`` decide every cell's column position, kind and
category index on their own, as the codec once did; ``load_csv`` must give
the same values and the same ``DataError`` text, and the writers the same
bytes. The one exception is a header that names a schema column twice:
the reference reads the first match, and ``load_csv`` rejects the file.
"""

import csv
import io
import os
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from claimtree import data  # noqa: E402
from claimtree.cli import main  # noqa: E402
from claimtree.data import (  # noqa: E402
    SCAN_CHUNK, Column, DataError, Dataset, load_csv, save_csv, write_csv,
)
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
                        if "_" in cell:  # a Python literal form such as 1_000, not a CSV number
                            raise ValueError(cell)
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
            if col.kind in ("response", "count") and values[r, j] < 0:
                raise DataError(
                    f"{path}: row {r + 1}, column {col.name!r}: negative {col.kind} {values[r, j]}"
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


def pin_shares(monkeypatch, shares):
    monkeypatch.setattr(data, "_share_workers", lambda cells: shares)


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
    # a schema column named twice is rejected (tests/test_data.py); any other may repeat
    "duplicated header name": "x1,zz,c,zz,y\n1.0,a,lo,b,3\n",
    "quoted cells": 'x1,c,y\n"1.5","hi","2"\n',
    "negative response": "x1,c,y\n1.0,lo,-1\n",
    "CRLF line ends": "x1,c,y\r\n1.0,lo,0\r\n",
    "underscored number": "x1,c,y\n1_000,lo,0\n",
    "lone CR line ends": "x1,c,y\r1.0,lo,0\r-2.5,hi,3\r",
    "trailing blank line": "x1,c,y\n1.0,lo,0\n\n",
    "trailing blank CRLF line": "x1,c,y\r\n1.0,lo,0\r\n\r\n",
    "quoted cell holding a newline": 'x1,c,y,note\n"1.0\n",lo,0,"a\nb"\n',
    "quoted newline spanning a row's worth of cells": 'x1,c,y,note\n1.0,lo,0,"a\n2.0,hi,1,b"\n',
    "hash inside a cell": "x1,c,y,note\n1.0,lo,0,#x\n#2,lo,1,y\n",
    "plus sign": "x1,c,y\n+1,lo,+2.5\n",
    "Infinity": "x1,c,y\n1.0,lo,Infinity\n",
    "Arabic-Indic digit": "x1,c,y\n\u0661,lo,0\n",
    "row longer than the header": "x1,c,y\n1.0,lo,0,extra\n2.0,hi,1\n",
    "no final newline": "x1,c,y\n1.0,lo,0\n2.0,hi,1",
    "blank line before the header": "\nx1,c,y\n1.0,lo,0\n",
    "blank lines after the header": "x1,c,y\n\n\n1.0,lo,0\n2.0,hi,1\n",
    "blank lines in the middle": "x1,c,y\n1.0,lo,0\n\n\n2.0,hi,1\n",
    "blank lines at the end": "x1,c,y\n1.0,lo,0\n2.0,hi,1\n\n\n",
    "blank line before a last row without a newline": "x1,c,y\n1.0,lo,0\n\n2.0,hi,1",
    "one row without a final newline": "x1,c,y\n1.0,lo,0",
    "header-only file without a newline": "x1,c,y",
}


def chunk_spanning_text(blank_line: bool) -> str:
    """CRLF rows over more than one pre-scan chunk, with the chunk boundary
    between the \\r and the \\n of one row; a blank line follows if asked."""
    head = "x1,c,y\r\n" + "1.5,mid,2\r\n" * (SCAN_CHUNK // 11 - 2)
    filler = "3,lo,0" + " " * (SCAN_CHUNK - 1 - len(head) - len("3,lo,0"))
    text = head + filler + "\r\n" + "\r\n" * blank_line + "4.5,hi,1\r\n" * 20
    assert text.encode("utf-8")[SCAN_CHUNK - 1:SCAN_CHUNK + 1] == b"\r\n"
    return text


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

    def test_underscored_number_is_named_but_underscored_label_loads(self, tmp_path):
        schema = (Column("c", "categorical", ("a_b", "c")), Column("y", "response"))
        f = tmp_path / "d.csv"
        f.write_text("c,y,note\na_b,1,x_y\nc,1_000,z\n", encoding="utf-8")
        kind, message = assert_same_load(f, schema)
        assert (kind, message) == ("error", f"{f}: row 2, column 'y': cannot parse '1_000'")
        f.write_text("c,y,note\na_b,1,x_y\n", encoding="utf-8")
        assert load_csv(f, schema).values.tolist() == [[0.0, 1.0]]

    @pytest.mark.parametrize("blank_line", [False, True])
    def test_file_over_one_scan_chunk(self, tmp_path, blank_line):
        f = tmp_path / "d.csv"
        f.write_text(chunk_spanning_text(blank_line), encoding="utf-8", newline="")
        kind = assert_same_load(f, SCHEMA)[0]
        assert (kind == "error") == blank_line

    def test_round_trip_writes_identical_bytes(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(BATTERY["well formed"], encoding="utf-8")
        ds = load_csv(f, SCHEMA)
        save_csv(ds, tmp_path / "new.csv")
        reference_save_csv(ds, tmp_path / "ref.csv")
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_written_files_load_without_the_cell_by_cell_reader(tmp_path, monkeypatch):
    """What save_csv and predict write takes the np.loadtxt path; a change
    that always fell back would pass every other test."""
    rng = np.random.default_rng(5)
    columns = (
        Column("x1", "continuous"), Column("c", "categorical", ("lo", "mid", "a_b", "#")),
        Column("k", "count"), Column("y", "response"),
    )
    values = np.column_stack([
        rng.normal(size=500) * 10.0 ** rng.integers(-20, 20, size=500),
        rng.integers(0, 4, size=500), rng.integers(0, 3, size=500), rng.exponential(size=500),
    ])
    ds = Dataset(columns, values)
    save_csv(ds, tmp_path / "d.csv")
    (tmp_path / "chunks.csv").write_text(chunk_spanning_text(False), encoding="utf-8", newline="")
    expected = reference_load_csv(tmp_path / "chunks.csv", SCHEMA).values

    def fail(path, schema):
        raise AssertionError(f"{path} fell back to the cell-by-cell reader")

    monkeypatch.setattr(data, "_read_cells", fail)
    assert load_csv(tmp_path / "d.csv", columns).values.tobytes() == ds.values.tobytes()
    assert load_csv(tmp_path / "chunks.csv", SCHEMA).values.tobytes() == expected.tobytes()
    model = fit(ds, HybridHyperparams(maxdepth=2, severity_learner="ols"))
    save(model, tmp_path / "model.json")
    assert main([
        "predict", "--model", str(tmp_path / "model.json"),
        "--data", str(tmp_path / "d.csv"), "--out", str(tmp_path / "p.csv"),
    ]) == 0
    clipped = predict_batch(model, ds)[2]
    loaded = load_csv(tmp_path / "p.csv", (Column("clipped", "response"),)).response
    assert loaded.tobytes() == clipped.tobytes()


def test_response_column_alone_loads_without_the_cell_by_cell_reader(tmp_path, monkeypatch):
    """``evaluate`` reads only the response column of a wide portfolio; that
    read must stay on the np.loadtxt path and give the full read's values."""
    ds = simulate(SimConfig(n=500, seed=7)).dataset
    save_csv(ds, tmp_path / "d.csv")
    full = load_csv(tmp_path / "d.csv", ds.columns)

    def fail(path, schema):
        raise AssertionError(f"{path} fell back to the cell-by-cell reader")

    monkeypatch.setattr(data, "_read_cells", fail)
    response = load_csv(tmp_path / "d.csv", (ds.response_column,))
    assert len(full.columns) == 61
    assert response.values.shape == (500, 1)
    assert response.response.tobytes() == full.response.tobytes()


@pytest.mark.parametrize("name", ["well formed", "no final newline", "blank lines in the middle"])
@pytest.mark.parametrize("miscount", [-1, 1])
def test_a_wrong_line_count_cannot_hide_rows(tmp_path, monkeypatch, name, miscount):
    """np.loadtxt reads at most one row more than the pre-scan counted, so a
    count off by one either way, in every share, gives a row count that
    differs from it and the cell-by-cell reader decides."""
    f = tmp_path / "d.csv"
    f.write_text(BATTERY[name], encoding="utf-8")
    count_lines = data._count_lines
    monkeypatch.setattr(data, "_count_lines", lambda path, *span: count_lines(path, *span) + miscount)
    read_cells = data._read_cells
    fallbacks = []

    def spy(path, schema):
        fallbacks.append(path)
        return read_cells(path, schema)

    monkeypatch.setattr(data, "_read_cells", spy)
    for shares in (1, 2, 3, 4):
        pin_shares(monkeypatch, shares)
        fallbacks.clear()
        assert_same_load(f, SCHEMA)
        assert fallbacks == [f]


def test_write_csv_quotes_as_csv_writer(tmp_path):
    labels = ("", "a,b", 'q"', "x\ry", " s ")
    codes = np.arange(len(labels))
    for columns in ([codes], [codes, codes * 0.5]):
        write_csv(tmp_path / "new.csv", ["h"] * len(columns), columns, [labels] + [None] * (len(columns) - 1))
        with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["h"] * len(columns))
            writer.writerows(zip(labels, codes * 0.5) if len(columns) > 1 else ((label,) for label in labels))
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


LABELS = st.sampled_from(["", "0", "1.5", "a", " b", "a,b", 'q"', "a_b"]) | st.text(alphabet='ab ,"z0\t', max_size=3)
CELLS = [
    "", " ", "0", "1", " 2.5 ", "-3e2", "1_0", "nan", "-inf", "1e400", "abc", "a", " b ", "a,b",
    "\r", "#1", "\u0661",
]


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
    # the first schema column the header lacks or repeats decides the header's error
    header = next(csv.reader(io.StringIO(text)), [])
    first = next((c.name for c in schema if header.count(c.name) != 1), None)
    if first is not None and header.count(first) > 1:
        # the reference reads a repeated column's first match; load_csv rejects the file
        message = f"{f}: column {first!r} appears more than once in the header"
        assert outcome(load_csv, f, schema) == ("error", message)
    else:
        assert_same_load(f, schema)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(datasets())
def test_save_matches_reference_and_reloads(tmp_path, ds):
    save_csv(ds, tmp_path / "new.csv")
    reference_save_csv(ds, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert_same_load(tmp_path / "new.csv", ds.columns)


# --- load_csv in row shares: every share count gives one process's outcome ---


def no_fallback(monkeypatch):
    def fail(path, schema):
        raise AssertionError(f"{path} fell back to the cell-by-cell reader")

    monkeypatch.setattr(data, "_read_cells", fail)


def spy_fallbacks(monkeypatch):
    """The paths load_csv hands to the cell-by-cell reader, as they come."""
    fallbacks, read_cells = [], data._read_cells
    monkeypatch.setattr(data, "_read_cells", lambda path, schema: fallbacks.append(path) or read_cells(path, schema))
    return fallbacks


def count_forks(monkeypatch):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def rows_text(n: int, newline: str = "\n") -> str:
    """SCHEMA's header and ``n`` rows of cells of several lengths."""
    cats = SCHEMA[1].categories
    return newline.join(["x1,c,y"] + [f"{i * 0.37 - 5!r},{cats[i % 3]},{i % 7}" for i in range(n)]) + newline


def outcomes_by_shares(monkeypatch, path, schema):
    """load_csv's outcome with 1, 2, 3 and 4 shares."""
    outcomes = []
    for shares in (1, 2, 3, 4):
        pin_shares(monkeypatch, shares)
        outcomes.append(outcome(load_csv, path, schema))
    return outcomes


@pytest.mark.parametrize("name", sorted(BATTERY))
def test_shares_give_one_process_outcome_on_the_battery(tmp_path, monkeypatch, name):
    f = tmp_path / "d.csv"
    f.write_text(BATTERY[name], encoding="utf-8")
    one, *shared = outcomes_by_shares(monkeypatch, f, SCHEMA)
    assert shared == [one] * 3
    assert_no_child_left()


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(datasets(), st.booleans(), st.booleans(), st.booleans())
def test_shares_give_one_process_values_on_mixed_schemas(tmp_path, monkeypatch, ds, lf, cut_last_newline, bom):
    """What save_csv writes, with LF or CRLF line ends, the final newline or
    not, and a byte-order mark or not."""
    f = tmp_path / "d.csv"
    pin_shares(monkeypatch, 1)
    save_csv(ds, f)
    text = f.read_bytes().decode("utf-8")
    if lf:
        text = text.replace("\r\n", "\n")  # no label holds a line break
    if cut_last_newline:
        text = text.rstrip("\r\n")
    f.write_text("\ufeff" * bom + text, encoding="utf-8", newline="")
    one, *shared = outcomes_by_shares(monkeypatch, f, ds.columns)
    assert one[0] == "error" or one == (ds.columns, ds.values.shape, ds.values.tobytes())
    assert shared == [one] * 3


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_texts())
def test_shares_give_one_process_outcome_on_generated_text(tmp_path, monkeypatch, case):
    schema, text = case
    f = tmp_path / "d.csv"
    f.write_text(text, encoding="utf-8", newline="")
    one, *shared = outcomes_by_shares(monkeypatch, f, schema)
    assert shared == [one] * 3


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_shares_are_parsed_apart_without_the_cell_by_cell_reader(tmp_path, monkeypatch, newline):
    """With a byte-order mark and no final newline too, and with a cut at
    each byte of a line, CRLF line ends included."""
    ref = tmp_path / "ref.csv"
    ref.write_text(rows_text(40, newline), encoding="utf-8", newline="")
    expected = reference_load_csv(ref, SCHEMA).values.tobytes()
    no_fallback(monkeypatch)
    forks = count_forks(monkeypatch)
    at_crlf, line_end = [], data._line_end

    def spy(fh, pos):  # is the byte a cut is aimed at the \n of a CRLF?
        fh.seek(pos - 1)
        at_crlf.append(fh.read(2) == b"\r\n")
        return line_end(fh, pos)

    monkeypatch.setattr(data, "_line_end", spy)
    f = tmp_path / "d.csv"
    for pad in range(2 * len("-5.0,lo,0" + newline)):
        # the first row grows a byte at a time (its value stays -5.0), so a
        # cut's target falls on each byte of a line
        text = rows_text(40, newline).replace(",lo,0", "0" * pad + ",lo,0", 1)
        for variant in (text, "\ufeff" + text, text.removesuffix(newline)):
            f.write_text(variant, encoding="utf-8", newline="")
            for shares in (2, 3, 4):
                pin_shares(monkeypatch, shares)
                spans = data._spans(f)
                assert len(spans) == shares
                assert all(f.read_bytes()[start - 1:start] == b"\n" for start, _ in spans[1:])
                assert load_csv(f, SCHEMA).values.tobytes() == expected
    assert any(at_crlf) == (newline == "\r\n")
    assert forks
    assert_no_child_left()


def test_a_last_share_of_one_line(tmp_path, monkeypatch):
    f = tmp_path / "d.csv"
    f.write_text(rows_text(9) + "1." + "0" * 200 + ",mid,1\n" + "2.5,hi,3\n", encoding="utf-8")
    pin_shares(monkeypatch, 2)
    start, stop = data._spans(f)[-1]
    assert f.read_bytes()[start:stop] == b"2.5,hi,3\n"
    no_fallback(monkeypatch)
    assert load_csv(f, SCHEMA).values.tobytes() == reference_load_csv(f, SCHEMA).values.tobytes()


@pytest.mark.parametrize("defect, last_row", [
    ("bad cell", "abc,lo,1\n"),
    ("blank line", "\n2.0,hi,1\n"),
    ("quote", '"2.0",hi,1\n'),
    ("lone CR", "2.0,hi,1\r3.0,lo,2\n"),
    ("unknown label", "2.0,top,1\n"),
])
def test_a_defect_in_the_last_share_gives_one_process_outcome(tmp_path, monkeypatch, defect, last_row):
    """The whole file goes to the cell-by-cell reader, so an error names its
    row counted from the file's first data row."""
    f = tmp_path / "d.csv"
    f.write_text(rows_text(60) + last_row, encoding="utf-8")
    expected = outcome(reference_load_csv, f, SCHEMA)
    if defect in ("bad cell", "blank line", "unknown label"):
        assert expected[0] == "error" and "row 61, column" in expected[1]
    fallbacks = spy_fallbacks(monkeypatch)
    for shares in (2, 3, 4):
        pin_shares(monkeypatch, shares)
        assert data._spans(f)[-1][1] - data._spans(f)[-1][0] < len(rows_text(60)) // 2
        fallbacks.clear()
        assert outcome(load_csv, f, SCHEMA) == expected
        assert fallbacks == [f]
    assert_no_child_left()


class TestFailedShares:
    """A share whose child cannot be made is parsed here; a child that
    fails hands the file to the cell-by-cell reader. Either way the Dataset
    is one process's."""

    @pytest.fixture
    def f(self, tmp_path, monkeypatch):
        f = tmp_path / "d.csv"
        f.write_text(rows_text(300), encoding="utf-8")
        pin_shares(monkeypatch, 3)
        yield f
        assert_no_child_left()

    def test_a_failing_child(self, f, monkeypatch):
        parent, parse_span = os.getpid(), data._parse_span

        def fail_in_children(path, start, *args):
            if os.getpid() != parent:
                raise ValueError(f"cannot parse bytes from {start}")
            return parse_span(path, start, *args)

        monkeypatch.setattr(data, "_parse_span", fail_in_children)
        fallbacks = spy_fallbacks(monkeypatch)
        assert load_csv(f, SCHEMA).values.tobytes() == reference_load_csv(f, SCHEMA).values.tobytes()
        assert fallbacks == [f]

    def test_a_failed_fork(self, f, monkeypatch):
        def no_fork():
            raise OSError("fork refused")

        monkeypatch.setattr(os, "fork", no_fork)
        no_fallback(monkeypatch)
        assert load_csv(f, SCHEMA).values.tobytes() == reference_load_csv(f, SCHEMA).values.tobytes()

    def test_a_temporary_directory_that_cannot_be_written(self, f, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        forks = count_forks(monkeypatch)
        no_fallback(monkeypatch)
        assert load_csv(f, SCHEMA).values.tobytes() == reference_load_csv(f, SCHEMA).values.tobytes()
        assert forks == []

    def test_an_interrupt_propagates(self, f, monkeypatch):
        forks = count_forks(monkeypatch)

        def interrupt(path, start, *args):
            raise KeyboardInterrupt

        monkeypatch.setattr(data, "_parse_span", interrupt)
        with pytest.raises(KeyboardInterrupt):
            load_csv(f, SCHEMA)
        assert len(forks) == 2


def test_a_10000_row_portfolio_is_read_in_forked_shares(tmp_path, monkeypatch):
    """perfbench's cli_scale and CI's CPU-count check read 10,000 or more
    portfolio rows; that covers the forked shares only if such a file is
    split on two CPUs."""
    ds = simulate(SimConfig(n=10_000, seed=7)).dataset
    f = tmp_path / "d.csv"
    save_csv(ds, f)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert len(data._spans(f)) == 2
    forks = count_forks(monkeypatch)
    no_fallback(monkeypatch)
    assert load_csv(f, ds.columns).values.tobytes() == ds.values.tobytes()
    assert load_csv(f, (ds.response_column,)).response.tobytes() == ds.response.tobytes()
    assert len(forks) == 2
