"""Columnar dataset with schema, CSV ingestion, encoding and standardization.

Every learner in the package consumes the :class:`Dataset` produced here.
Columns are typed by a schema (continuous, categorical, response, count);
categorical cells are stored as category indices so the whole table lives
in one float64 matrix. :class:`Encoding` is the one statement of how a
schema's features become the encoded design that the tree and every
severity model see; ``ds.encoding`` is its schema's object.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
import os
import shutil
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter

import numpy as np

from .workers import forked_shares, usable_cpus

VALID_KINDS = ("continuous", "categorical", "response", "count")


class DataError(Exception):
    """Raised for ingestion, schema and standardization problems."""


def require_int(**values) -> None:
    """Raise ValueError, naming the value, unless each is an int (a bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def require_seed(seed) -> None:
    """Raise ValueError unless ``seed`` is an int (a bool is not) >= 0."""
    require_int(seed=seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def require_real(**values) -> None:
    """Raise ValueError, naming the value, unless each is a finite int or
    float (a bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def json_text(payload) -> str:
    """The package's one JSON text format: indented, keys sorted, newline-terminated."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def csv_text(rows) -> str:
    """The report CSVs' text: rows of strings as ``csv.writer`` writes them
    (quoting a field only when it must), one ``\\n`` per row.

    A field holding ``\\n`` or a bare ``\\r`` is quoted, so ``csv.reader``
    reads each row back as one row.
    """
    buf = io.StringIO()
    # the default dialect quotes a field for either character of its \r\n
    # terminator; each row's \r\n becomes \n\n, and the next row overwrites
    # the second \n (the last row's is truncated)
    writer = csv.writer(buf)
    for row in rows:
        writer.writerow(row)
        buf.seek(buf.tell() - 2)
        buf.write("\n")
    buf.truncate()
    return buf.getvalue()


@dataclass(frozen=True)
class Column:
    """One schema entry: a named column with a kind and optional categories."""

    name: str
    kind: str
    categories: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise DataError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == "categorical":
            if not self.categories:
                raise DataError(f"column {self.name!r}: categorical column needs categories")
            if len(set(self.categories)) != len(self.categories):
                raise DataError(f"column {self.name!r}: duplicate category labels")
        elif self.categories:
            raise DataError(f"column {self.name!r}: only categorical columns take categories")


def validate_schema(columns: list[Column] | tuple[Column, ...]) -> tuple[Column, ...]:
    columns = tuple(columns)
    names = [c.name for c in columns]
    if len(set(names)) != len(names):
        raise DataError("duplicate column names in schema")
    n_resp = sum(1 for c in columns if c.kind == "response")
    if n_resp != 1:
        raise DataError(f"schema must have exactly one response column, found {n_resp}")
    if sum(1 for c in columns if c.kind == "count") > 1:
        raise DataError("schema may have at most one count column")
    return columns


@dataclass(frozen=True)
class Standardization:
    """Per-column affine transform: z = (x - center) / scale.

    After applying, each column has mean 0 and sum of squares 1 (not unit
    variance).
    """

    names: tuple[str, ...]
    center: np.ndarray
    scale: np.ndarray

    def apply(self, X: np.ndarray) -> np.ndarray:
        return (X - self.center) / self.scale

    def to_dict(self) -> dict:
        return {
            "names": list(self.names),
            "center": [float(v) for v in self.center],
            "scale": [float(v) for v in self.scale],
        }

    @staticmethod
    def from_dict(d: dict) -> "Standardization":
        return Standardization(
            names=tuple(d["names"]),
            center=np.asarray(d["center"], dtype=float),
            scale=np.asarray(d["scale"], dtype=float),
        )


def standardize_matrix(X: np.ndarray, names: list[str] | None = None):
    """Center each column and rescale so its sum of squares is 1.

    Returns ``(Z, Standardization)``. Raises :class:`DataError` naming the
    offending column if any column is constant (its scale would be 0).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise DataError("standardize expects a 2-D matrix")
    if names is None:
        names = [f"col{j}" for j in range(X.shape[1])]
    constant = np.nonzero(~nonconstant_columns(X))[0]
    if constant.size:
        raise DataError(f"standardize: column {names[constant[0]]!r} is constant")
    center = X.mean(axis=0)
    centered = X - center
    scale = np.sqrt((centered**2).sum(axis=0))
    return centered / scale, Standardization(tuple(names), center, scale)


@dataclass(frozen=True)
class Dataset:
    """Immutable table of feature columns plus one response column.

    ``values`` has one column per schema entry, in schema order. Categorical
    cells hold the category index. ``columns`` is kept as the tuple
    :func:`validate_schema` returns. ``encoding`` is the schema's
    :class:`Encoding`, and ``p`` its feature count (k-level categoricals
    contribute k-1).

    The one check of a table's values: a non-finite cell anywhere, then,
    column by column in schema order, a negative response or count and a
    cell that is not a category index raise :class:`DataError` naming the
    row (numbered from 1, as a CSV's data rows are) and the column.

    The Dataset copies ``values`` into a read-only float64 array, unless it
    already is one that owns its memory or is a view of one: such an array
    is taken as it is, so a producer that has just built a table hands it
    over by marking it read-only (``setflags(write=False)``), and a view of
    a Dataset's table shares that table's memory and keeps all of it alive.
    A caller's writable array, view of writable memory or list is never
    aliased and never made read-only.
    """

    columns: tuple[Column, ...]
    values: np.ndarray

    def __post_init__(self):
        # the validated tuple, hashable, so Encoding.of can look it up
        object.__setattr__(self, "columns", validate_schema(self.columns))
        values = self.values
        owner = values if getattr(values, "base", None) is None else values.base
        if not (
            type(values) is np.ndarray and values.dtype == np.float64 and not values.flags.writeable
            and type(owner) is np.ndarray and owner.dtype == np.float64
            and owner.flags.owndata and not owner.flags.writeable
        ):
            values = np.array(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(self.columns):
            raise DataError("values shape does not match schema")
        object.__setattr__(self, "values", values)
        _check_values(self.columns, values)
        self.values.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return len(self.encoding.names)

    @cached_property
    def encoding(self) -> Encoding:
        """The schema's :class:`Encoding`, the one object every Dataset of an
        equal schema holds."""
        return Encoding.of(self.columns)

    @property
    def response_column(self) -> Column:
        return next(c for c in self.columns if c.kind == "response")

    @property
    def count_column(self) -> Column | None:
        return next((c for c in self.columns if c.kind == "count"), None)

    def column_values(self, name: str) -> np.ndarray:
        idx = self._index(name)
        return self.values[:, idx]

    @property
    def response(self) -> np.ndarray:
        return self.values[:, self._index(self.response_column.name)]

    @property
    def occurrence(self) -> np.ndarray:
        """Binary claim-occurrence label: count > 0 when a count column
        exists, otherwise response > 0."""
        cc = self.count_column
        base = self.column_values(cc.name) if cc is not None else self.response
        return (base > 0).astype(np.int64)

    def _index(self, name: str) -> int:
        for i, c in enumerate(self.columns):
            if c.name == name:
                return i
        raise DataError(f"no column named {name!r}")

    def subset(self, row_idx: np.ndarray) -> "Dataset":
        """The rows ``row_idx`` selects, in its order.

        A contiguous ascending run of row numbers (a 1-D integer array
        whose steps are all +1, ``np.arange(a, b)``) gives a view of this
        table, no copy; the view keeps this whole table alive. Any other
        selection is copied once, by the indexing, and the new Dataset
        keeps that copy. The rows were checked when this Dataset was
        built, so they are not checked again.
        """
        rows = np.asarray(row_idx)
        if (
            rows.ndim == 1 and rows.dtype.kind in "iu" and rows.size
            and rows[0] >= 0 and rows[-1] < self.n and (np.diff(rows) == 1).all()
        ):
            values = self.values[rows[0]:rows[-1] + 1]
        else:
            values = self.values[row_idx]
            values.setflags(write=False)
        if values.ndim != 2:
            raise DataError("values shape does not match schema")
        # Rows of this checked table under the same schema: built without
        # __post_init__, so the values are not checked a second time.
        subset = object.__new__(Dataset)
        object.__setattr__(subset, "columns", self.columns)
        object.__setattr__(subset, "values", values)
        return subset


def _check_values(columns: tuple[Column, ...], values: np.ndarray) -> None:
    """The one check of a table's values (see :class:`Dataset`)."""
    finite = np.isfinite(values)
    if not finite.all():
        r, j = np.argwhere(~finite)[0]
        raise DataError(f"row {r + 1}, column {columns[j].name!r}: non-finite value {values[r, j]}")
    for j, col in enumerate(columns):
        cells = values[:, j]
        if col.kind == "categorical":
            bad = (cells != np.floor(cells)) | (cells < 0) | (cells >= len(col.categories))
        elif col.kind in ("response", "count"):
            bad = cells < 0
        else:
            continue
        if bad.any():
            r = int(np.argmax(bad))
            problem = (
                f"{cells[r]} is not a category index in [0, {len(col.categories)})"
                if col.kind == "categorical" else f"negative {col.kind} {cells[r]}"
            )
            raise DataError(f"row {r + 1}, column {col.name!r}: {problem}")


def column_from_dict(entry: dict) -> Column:
    """One stored schema entry, ``{name, kind, categories?}``, as a Column.

    The one parser for schema entries, in the sidecar and in model files.
    Raises KeyError or TypeError for an entry of the wrong shape and
    :class:`DataError` for a bad column; callers add which file it was.
    """
    name, kind, cats = entry["name"], entry["kind"], entry.get("categories")
    if cats is not None and not (isinstance(cats, list) and all(isinstance(c, str) for c in cats)):
        raise DataError(f"column {name!r}: categories must be a list of labels")
    return Column(name, kind, tuple(cats) if cats else None)


def column_to_dict(col: Column) -> dict:
    """A Column as the stored schema entry :func:`column_from_dict` reads."""
    categories = list(col.categories) if col.categories else None
    return {"name": col.name, "kind": col.kind, "categories": categories}


def write_json(path, payload) -> None:
    """Write ``payload`` to ``path`` as :func:`json_text`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(payload))


def load_schema(path) -> tuple[Column, ...]:
    """Read the JSON schema sidecar: {"columns": [{name, kind, categories?}]}."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return validate_schema([column_from_dict(entry) for entry in json.load(fh)["columns"]])
        except KeyError as exc:
            raise DataError(f"malformed schema file {path}: missing key {exc}") from None
        except (DataError, TypeError, ValueError, RecursionError) as exc:  # too deeply nested
            raise DataError(f"malformed schema file {path}: {exc}") from None


def save_schema(columns, path) -> None:
    """Write the JSON schema sidecar; an entry holds ``categories`` only if it has some."""
    entries = [{k: v for k, v in column_to_dict(c).items() if v is not None} for c in columns]
    write_json(path, {"columns": entries})


def load_csv(path, schema) -> Dataset:
    """Parse a header-row CSV into a Dataset according to ``schema``.

    Rejects missing columns, a schema column that the header names more
    than once (other columns may repeat), missing values, unparseable
    numbers and unknown category labels; error messages name the data row
    (1-based) and column. A number is what ``float`` reads, except the
    Python literal forms with ``_`` (``1_000``), which no CSV writer
    produces. A UTF-8 byte-order mark is skipped. :class:`Dataset` checks
    the values read, and its message gets the file name put before it.

    The file is cut at line breaks into contiguous spans, one per process
    (:func:`_spans`). Each span that passes a byte pre-scan (see
    :func:`_count_lines`) is read by numpy's C text reader, which parses
    numbers with the same routine as ``float``; the first span in this
    process, each other one in a forked child (:func:`_read_fast`). If any
    span fails its pre-scan, raises in that reader or gives a row count
    that differs from the pre-scan's (numpy skips blank lines), or a child
    fails, the whole file goes to the cell-by-cell reader, which alone
    decides the values or the error, so neither depends on the number of
    processes. ``np.loadtxt`` reads at most one row more than a span's
    pre-scan counted, from a stream that ends with the span: it allocates
    the span's table once, and a span holding more rows than counted still
    shows a row count that differs.

    The array either reader builds is the Dataset's: it is not copied again.
    """
    schema = validate_schema(schema)
    values = _read_fast(path, schema)
    if values is None:
        values = _read_cells(path, schema)
    values.setflags(write=False)
    try:
        return Dataset(schema, values)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


# Bytes the pre-scan reads at a time, so it never holds the whole text.
SCAN_CHUNK = 1 << 16


class _ByteSpan(io.RawIOBase):
    """Bytes ``start`` to ``stop`` of the file at ``path``, as a raw stream
    that ends at ``stop``."""

    def __init__(self, path, start: int, stop: int):
        self._fh = open(path, "rb", buffering=0)
        self._fh.seek(start)
        self._left = stop - start

    def readable(self) -> bool:
        return True

    def readinto(self, buf) -> int:
        got = self._fh.readinto(memoryview(buf)[: self._left])
        self._left -= got
        return got

    def close(self) -> None:
        self._fh.close()
        super().close()


def _count_lines(path, start: int, stop: int) -> int | None:
    """The line count of bytes ``start`` to ``stop`` of the file, a span that
    starts at a line start, if csv.reader and np.loadtxt split it alike,
    else None.

    They do when the bytes hold no quote, no NUL and no carriage return
    outside a CRLF pair, and no line is longer than the csv module's field
    size limit (so no field can exceed it).
    """
    breaks = line = longest = 0  # line: bytes of the line still open at the chunk's end
    carry = b""  # a chunk's final \r, whose \n may open the next chunk
    with _ByteSpan(path, start, stop) as fh:
        while chunk := fh.read(SCAN_CHUNK):
            chunk = carry + chunk
            carry = chunk[-1:] if chunk.endswith(b"\r") else b""
            chunk = chunk[: len(chunk) - len(carry)]
            if b'"' in chunk or b"\0" in chunk or chunk.count(b"\r") != chunk.count(b"\r\n"):
                return None
            parts = chunk.split(b"\n")
            line += len(parts[0])
            if len(parts) > 1:
                longest = max(longest, line, max(map(len, parts[1:-1]), default=0))
                line = len(parts[-1])
            breaks += len(parts) - 1
    if carry or max(longest, line) > csv.field_size_limit():
        return None
    return breaks + (line > 0)


def _label_index(col: Column) -> dict:
    # "" is never looked up as a label, so an empty cell is a missing value
    return {label: i for i, label in enumerate(col.categories) if label}


def _read_fast(path, schema) -> np.ndarray | None:
    """The values of a file read by ``np.loadtxt`` span by span, or None
    when the cell-by-cell reader must decide.

    Span 0 is parsed here. Each other span is parsed in a forked child,
    which spools its float64 rows, or nothing if the span must go to the
    cell-by-cell reader, to an anonymous file in the temporary directory
    (:func:`claimtree.workers.forked_shares`). Span 0's table is grown in
    place and each further span's rows are read into it, so no second copy
    of the table is made.
    """
    spans = _spans(path)
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        try:
            header = next(csv.reader(fh))
        except Exception:  # the cell-by-cell reader decides
            return None
    usecols = _header_positions(path, header, schema)
    converters = {
        pos: (lambda cell, index=_label_index(col): index[cell.strip()])
        for pos, col in zip(usecols, schema) if col.categories
    }

    def parse(s):
        return _parse_span(path, *spans[s], usecols, converters)

    def spool_rows(s, spool):
        if (rows := parse(s)) is not None:
            spool.write(rows.data)

    row_bytes = 8 * len(schema)
    try:
        with forked_shares(len(spans), spool_rows, lambda s: f"CSV span {s} of {path}") as done:
            for s, spool in done:
                if spool is None and (part := parse(s)) is None:
                    return None
                if s == 0:
                    table = part if part.flags.owndata else part.copy()  # so it can grow in place
                    continue
                rows = len(part) if spool is None else os.fstat(spool.fileno()).st_size // row_bytes
                if not rows:
                    return None
                start = len(table)
                # glibc moves a block above the mmap threshold by remapping its pages
                table.resize((start + rows, len(schema)), refcheck=False)
                if spool is None:
                    table[start:] = part
                elif spool.readinto(table[start:]) != rows * row_bytes:
                    return None
    except RuntimeError:  # a failed child: the cell-by-cell reader decides
        return None
    return table


def _spans(path) -> list[tuple[int, int]]:
    """The file's bytes as contiguous ``(start, stop)`` spans, one per
    process (:func:`_share_workers`), each starting at a line start; span 0
    holds the header and at least one more line, each other span at least
    one line. The cell count is estimated as the file's bytes over its
    first data line's, times the header's width."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header, first = fh.readline(SCAN_CHUNK), fh.readline(SCAN_CHUNK)
        if not (header.endswith(b"\n") and first.endswith(b"\n")):
            return [(0, size)]
        workers = _share_workers(size // len(first) * (header.count(b",") + 1))
        bounds = [0]
        for w in range(1, workers):
            target = len(header) + (size - len(header)) * w // workers
            cut = _line_end(fh, max(target, bounds[-1], len(header)))
            if cut >= size:
                break
            bounds.append(cut)
    return list(zip(bounds, bounds[1:] + [size]))


def _line_end(fh, pos: int) -> int:
    """Where the line holding byte ``pos`` of the binary file ``fh`` ends:
    one past its ``\n``, or at the end of the file."""
    fh.seek(pos)
    while chunk := fh.read(SCAN_CHUNK):
        if (i := chunk.find(b"\n")) >= 0:
            return pos + i + 1
        pos += len(chunk)
    return pos


def _parse_span(path, start: int, stop: int, usecols, converters) -> np.ndarray | None:
    """The rows of bytes ``start`` to ``stop`` of the file (after the header
    line, in span 0), read by ``np.loadtxt``, or None unless the span passes
    its pre-scan and holds as many rows as that counted."""
    lines = _count_lines(path, start, stop)
    if not lines:
        return None
    rows = lines - (start == 0)
    encoding = "utf-8-sig" if start == 0 else "utf-8"
    try:
        with io.TextIOWrapper(io.BufferedReader(_ByteSpan(path, start, stop), SCAN_CHUNK),
                              encoding=encoding, newline="") as fh, warnings.catch_warnings():
            if start == 0:
                fh.readline()  # the header, one line as it passed the pre-scan
            # with no data rows numpy warns "input contained no data"; the
            # shape check below decides what such a span holds
            warnings.simplefilter("ignore")
            values = np.loadtxt(
                fh, delimiter=",", usecols=usecols, comments=None, dtype=float, ndmin=2,
                converters=converters, encoding="utf-8", max_rows=rows + 1,
            )
    except Exception:  # whatever failed, the cell-by-cell reader decides
        return None
    return values if values.shape == (rows, len(usecols)) else None


def _header_positions(path, header: list[str], schema) -> list[int]:
    """Each schema column's position in ``header``; raises the DataError for
    the first one that the header lacks or names more than once."""
    for col in schema:
        if col.name not in header:
            raise DataError(f"{path}: missing column {col.name!r}")
        if header.count(col.name) > 1:
            raise DataError(f"{path}: column {col.name!r} appears more than once in the header")
    return [header.index(col.name) for col in schema]


def _records(path, fh):
    """csv.reader's records of fh. A record the csv module rejects (a field
    over ``csv.field_size_limit()``, or NUL on Python 3.10) raises the
    DataError naming its row; row 0 is the header."""
    reader = csv.reader(fh)
    for r in itertools.count():
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise DataError(f"{path}: {f'row {r}' if r else 'header row'}: {exc}") from None
        yield record


def _read_cells(path, schema) -> np.ndarray:
    """The values of every data row, parsed cell by cell; raises the
    DataError naming the first bad row, or the header's."""
    with open(path, "r", encoding="utf-8-sig", newline="") as fh:
        reader = _records(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        rules = [  # (header position, cell parser) per schema column
            (pos, _label_index(col).__getitem__ if col.categories else float)
            for pos, col in zip(_header_positions(path, header, schema), schema)
        ]
        # float reads "1_000" as 1000.0. One search of the whole record finds
        # any "_"; only then are its numeric cells searched, as labels and
        # columns outside the schema may hold "_".
        numeric_cells = itemgetter(*(pos for col, (pos, _) in zip(schema, rules) if not col.categories))
        rows = []
        for r, record in enumerate(reader, start=1):
            try:
                if "_" in "".join(record) and "_" in "".join(numeric_cells(record)):
                    raise ValueError("underscore in a number")
                rows.append(np.array([parse(record[pos].strip()) for pos, parse in rules], dtype=float))
            except (IndexError, KeyError, ValueError):
                raise _row_error(path, r, record, schema, rules) from None
    return np.array(rows, dtype=float) if rows else np.empty((0, len(schema)))


def _row_error(path, r, record, schema, rules) -> DataError:
    """The error for the first bad cell, in schema order, of a row that failed to parse."""
    for col, (pos, parse) in zip(schema, rules):
        cell = record[pos].strip() if pos < len(record) else ""
        try:
            if "_" in cell and not col.categories:
                raise ValueError(cell)
            parse(cell)
        except (KeyError, ValueError):
            problem = "unknown category" if col.kind == "categorical" else "cannot parse"
            problem = f"{problem} {cell!r}" if cell else "missing value"
            return DataError(f"{path}: row {r}, column {col.name!r}: {problem}")


# Rows formatted and written per block by write_csv. 1024-row blocks raised
# the CLI chain's peak memory; 256-row blocks kept it down and wrote no slower.
WRITE_BLOCK = 256
# A column is tried for a table of its distinct values' texts when the first
# block of its share holds at most TABLE_PROBE distinct values, and gets one
# when the whole share holds at most TABLE_MAX.
TABLE_PROBE = WRITE_BLOCK // 4
TABLE_MAX = 1 << 12
# Least cells per process that write_csv formats or load_csv parses.
# save_csv of the seed-7 portfolio (61 columns) on 2 CPUs, one process
# against two, 20 runs each: with the other CPU idle two won from 1,000
# rows on; with it busy two won 19 of 20 at 3,000 rows (183,000 cells),
# 14 of 20 at 2,000-2,500 rows and 7 of 20 at 1,500 rows. load_csv of it,
# the same way: with the other CPU idle two won 8 of 20 at 1,000 rows and
# 13-20 of 20 from 2,000 rows on; with it busy, 9-16 of 20 at 1,500-6,000
# rows.
SHARE_CELLS = 90_000


def _share_workers(cells: int) -> int:
    """How many processes write_csv or load_csv share ``cells`` among: one
    per usable CPU, at most one per SHARE_CELLS cells, at least one."""
    return max(1, min(usable_cpus(), cells // SHARE_CELLS))


def write_csv(path, header, columns, labels=None) -> None:
    """Write the header, then one row per entry of the 1-D arrays ``columns``,
    with the bytes ``csv.writer`` writes in its default dialect.

    A cell is the ``repr`` of its Python value (``tolist``), or, in a column
    whose ``labels`` entry is a tuple of labels, the label its value indexes.
    Each label is quoted once, before the rows, and a column with few
    distinct values formats each of them once (:func:`_column_cells`). The
    rows go out in blocks of ``WRITE_BLOCK``, each formatted column by
    column and joined once, so no second copy of the table is held.

    The rows are split into contiguous shares, one per process
    (:func:`_share_workers`). This process writes the header and share 0;
    each other share is formatted by a forked child into an anonymous
    temporary file in the output's directory, which this process copies
    into the output in share order (:func:`claimtree.workers.forked_shares`,
    which also says what a failed fork, a failed child or an interrupt
    does). The bytes do not depend on the number of processes. If the write
    fails, the output file is removed when this call created it.
    """
    n = len(columns[0])
    texts = [
        None if lab is None else np.array([_field_text(label, len(columns)) for label in lab], dtype=object)
        for lab in labels or [None] * len(columns)
    ]
    workers = _share_workers(n * len(columns))
    shares = [(n * w // workers, n * (w + 1) // workers) for w in range(workers)]
    created = not os.path.lexists(path)
    try:
        with forked_shares(workers, lambda s, spool: _spool_rows(spool, columns, texts, *shares[s]),
                           lambda s: "CSV rows {}-{} of {}".format(*shares[s], path),
                           os.path.dirname(os.path.abspath(path))) as done, \
                open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerow(header)
            for s, spool in done:
                if spool is None:
                    _write_rows(fh, columns, texts, *shares[s])
                else:
                    fh.flush()
                    shutil.copyfileobj(spool, fh.buffer)
    except BaseException:
        if created:
            with contextlib.suppress(OSError):
                os.unlink(path)
        raise


def _spool_rows(spool, columns, texts, start, stop) -> None:
    """Rows ``start`` to ``stop`` of write_csv's table into ``spool``, a binary file."""
    with open(spool.fileno(), "w", encoding="utf-8", newline="", closefd=False) as out:
        _write_rows(out, columns, texts, start, stop)


def _write_rows(fh, columns, texts, start, stop) -> None:
    """Rows ``start`` to ``stop`` of write_csv's table into ``fh``, a block at a time."""
    cells = [_column_cells(col[start:stop], text) for col, text in zip(columns, texts)]
    for first in range(0, stop - start, WRITE_BLOCK):
        block = slice(first, first + WRITE_BLOCK)
        fh.write("".join([",".join(row) + "\r\n" for row in zip(*[cell(block) for cell in cells])]))


def _column_cells(col: np.ndarray, labels: np.ndarray | None):
    """A function from a slice of ``col`` to its cells' texts:
    from ``labels``, an object array of texts, the one each value indexes,
    or else the ``repr`` of each value.

    A float64 or integer column whose first block holds at most TABLE_PROBE
    distinct values, and the whole of it at most TABLE_MAX, formats each
    distinct value once and finds each cell's text by ``searchsorted``,
    block by block. A float64 value is keyed on its bits, so ``-0.0`` and
    ``0.0`` keep their own texts.
    """
    if labels is not None:
        return lambda rows: labels[col[rows].astype(np.intp)].tolist()
    key = col.view(np.int64) if col.dtype == np.float64 else col if col.dtype.kind in "iu" else None
    distinct = None
    if key is not None and np.unique(key[:WRITE_BLOCK]).size <= TABLE_PROBE:
        distinct = np.unique(key)
    if distinct is None or distinct.size > TABLE_MAX:
        return lambda rows: map(repr, col[rows].tolist())
    table = np.array(list(map(repr, distinct.view(col.dtype).tolist())), dtype=object)
    return lambda rows: table[np.searchsorted(distinct, key[rows])].tolist()


def _field_text(value: str, width: int) -> str:
    """``value`` as csv.writer writes it in a row of ``width`` fields (alone in
    its row, an empty field is written as ``""``)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""] if width > 1 else [value])
    return buf.getvalue().removesuffix(",\r\n" if width > 1 else "\r\n")


def save_csv(ds: Dataset, path) -> None:
    """Write a Dataset to CSV through :func:`write_csv`; categorical indices
    become their labels."""
    write_csv(path, [c.name for c in ds.columns], list(ds.values.T), [c.categories for c in ds.columns])


@dataclass(frozen=True, eq=False)
class Encoding:
    """The one encoding rule, worked out once per schema by :meth:`of`.

    Per encoded feature, in order: its name, the index of its source column
    in the schema (``source``) and the category level it indicates
    (``level``; 0 for a continuous column, which passes through). A k-level
    categorical gives k-1 indicators against its first category, one per
    level 1..k-1; a two-level column keeps its name and a wider one becomes
    ``name=label`` columns. Response and count columns are not features.

    :meth:`of` keeps the last 64 schemas' objects, so equal schemas share
    one object, which is compared and hashed by identity: a cache keyed by
    it (the routing table's) does not hash the schema.
    """

    names: tuple[str, ...]
    source: np.ndarray
    level: np.ndarray

    @staticmethod
    @lru_cache(maxsize=64)
    def of(columns: tuple[Column, ...]) -> Encoding:
        entries = []
        for j, col in enumerate(columns):
            if col.kind == "continuous":
                entries.append((col.name, j, 0))
            elif col.kind == "categorical":
                labels = col.categories[1:]
                for level, label in enumerate(labels, start=1):
                    entries.append((col.name if len(labels) == 1 else f"{col.name}={label}", j, level))
        names, source, level = zip(*entries) if entries else ((), (), ())
        source, level = np.array(source, dtype=np.intp), np.array(level, dtype=np.intp)
        source.setflags(write=False)
        level.setflags(write=False)
        return Encoding(names, source, level)


def feature_matrix(ds: Dataset) -> tuple[np.ndarray, list[str]]:
    """Encoded feature matrix (a fresh, Fortran-ordered array) and its
    column names, in the order of ``ds.encoding``."""
    enc = ds.encoding
    # One gather copies every source column.
    return _indicators(ds.values[:, enc.source], enc), list(enc.names)


def encoded_rows(ds: Dataset, rows: np.ndarray) -> np.ndarray:
    """Rows ``rows`` of :func:`feature_matrix`'s matrix (a fresh, C-ordered
    array, the layout indexing that matrix by ``rows`` gives), gathered
    from the table alone: no other row is encoded."""
    enc = ds.encoding
    # two takes of a few rows beat one np.ix_ gather about threefold
    return _indicators(ds.values.take(rows, axis=0).take(enc.source, axis=1), enc)


def _indicators(X: np.ndarray, enc: Encoding) -> np.ndarray:
    """X, the gathered source column of each feature of ``enc``, with every
    categorical one turned in place into its level's 0/1 indicator."""
    for i in np.flatnonzero(enc.level):
        X[:, i] = X[:, i] == enc.level[i]
    return X


def nonconstant_columns(X: np.ndarray) -> np.ndarray:
    """Mask of the columns of X holding two or more distinct values (none with < 2 rows)."""
    return (X[1:] != X[:1]).any(axis=0)


def fold_indices(n: int, k: int, seed: int) -> list[np.ndarray]:
    """Seeded shuffle of range(n) split into k contiguous blocks, each sorted."""
    if not 2 <= k <= n:
        raise ValueError("need n >= k >= 2")
    rng = np.random.default_rng(seed)
    return [np.sort(block) for block in np.array_split(rng.permutation(n), k)]
