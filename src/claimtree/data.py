"""Columnar dataset with schema, CSV ingestion, encoding and standardization.

Every learner in the package consumes the :class:`Dataset` produced here.
Columns are typed by a schema (continuous, categorical, response, count);
categorical cells are stored as category indices so the whole table lives
in one float64 matrix.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import warnings
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

VALID_KINDS = ("continuous", "categorical", "response", "count")


class DataError(Exception):
    """Raised for ingestion, schema and standardization problems."""


def require_int(**values) -> None:
    """Raise ValueError, naming the value, unless each is an int (a bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")


def require_real(**values) -> None:
    """Raise ValueError, naming the value, unless each is a finite int or
    float (a bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


def json_text(payload) -> str:
    """The package's one JSON text format: indented, keys sorted, newline-terminated."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


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
    cells hold the category index. ``p`` is the feature count after dummy
    encoding (k-level categoricals contribute k-1).

    The Dataset copies ``values`` into a read-only float64 array, unless it
    already is one that owns its memory: such an array is taken as it is,
    so a producer that has just built a table hands it over by marking it
    read-only (``setflags(write=False)``). A caller's writable array, view
    or list is never aliased and never made read-only.
    """

    columns: tuple[Column, ...]
    values: np.ndarray

    def __post_init__(self):
        validate_schema(self.columns)
        values = self.values
        if not (
            type(values) is np.ndarray and values.dtype == np.float64
            and values.flags.owndata and not values.flags.writeable
        ):
            values = np.array(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(self.columns):
            raise DataError("values shape does not match schema")
        object.__setattr__(self, "values", values)
        if not np.isfinite(values).all():
            raise DataError("dataset contains non-finite values")
        if (self.response < 0).any():
            raise DataError("response column contains negative values")
        for j, col in enumerate(self.columns):
            if col.kind == "count" and (values[:, j] < 0).any():
                row = int(np.argmax(values[:, j] < 0))
                raise DataError(
                    f"column {col.name!r}: row {row} holds {float(values[row, j])!r}, a negative count"
                )
            if col.kind == "categorical":
                cells = values[:, j]
                bad = (cells != np.floor(cells)) | (cells < 0) | (cells >= len(col.categories))
                if bad.any():
                    row = int(np.argmax(bad))
                    raise DataError(
                        f"column {col.name!r}: row {row} holds {float(cells[row])!r}, "
                        f"not a category index in [0, {len(col.categories)})"
                    )
        self.values.setflags(write=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return sum(1 for _ in _encoding(self.columns))

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
        """The rows ``row_idx`` selects, in its order. Indexing makes the one
        copy, which the new Dataset keeps (a slice's view is copied by it)."""
        values = self.values[row_idx]
        values.setflags(write=False)
        return Dataset(self.columns, values)


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
    payload = {"columns": []}
    for c in columns:
        entry = {"name": c.name, "kind": c.kind}
        if c.categories:
            entry["categories"] = list(c.categories)
        payload["columns"].append(entry)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json_text(payload))


def load_csv(path, schema) -> Dataset:
    """Parse a header-row CSV into a Dataset according to ``schema``.

    Rejects missing columns, a schema column that the header names more
    than once (other columns may repeat), missing values, unparseable or
    non-finite numbers, unknown category labels and negative responses or
    counts (a fractional count is accepted); error messages name the data
    row (1-based) and column. A number is what ``float`` reads, except the
    Python literal forms with ``_`` (``1_000``), which no CSV writer
    produces.

    A file that passes a byte pre-scan (see :func:`_count_lines`) is read by
    numpy's C text reader, which parses numbers with the same routine as
    ``float``. Any other file, any exception from that reader and any row
    count that differs from the pre-scan's (numpy skips blank lines) hand
    the file to the cell-by-cell reader, which alone decides the values or
    the error. ``np.loadtxt`` reads at most one row more than the pre-scan
    counted: it allocates the table once, and a file holding more rows than
    counted still shows a row count that differs.

    The array either reader builds is the Dataset's: it is not copied again.
    """
    schema = validate_schema(schema)
    values = _read_fast(path, schema)
    if values is None:
        values = _read_cells(path, schema)
    finite = np.isfinite(values)
    if not finite.all():
        r, j = np.argwhere(~finite)[0]
        raise DataError(
            f"{path}: row {r + 1}, column {schema[j].name!r}: non-finite value {values[r, j]}"
        )
    for j, col in enumerate(schema):
        if col.kind in ("response", "count") and (values[:, j] < 0).any():
            r = int(np.argmax(values[:, j] < 0))
            raise DataError(f"{path}: row {r + 1}, column {col.name!r}: negative {col.kind} {values[r, j]}")
    values.setflags(write=False)
    return Dataset(schema, values)


# Bytes the pre-scan reads at a time, so it never holds the whole text.
SCAN_CHUNK = 1 << 16


def _count_lines(path) -> int | None:
    """The file's line count if csv.reader and np.loadtxt split it alike, else None.

    They do when the bytes hold no quote, no NUL and no carriage return
    outside a CRLF pair, and no line is longer than the csv module's field
    size limit (so no field can exceed it).
    """
    breaks = line = longest = 0  # line: bytes of the line still open at the chunk's end
    carry = b""  # a chunk's final \r, whose \n may open the next chunk
    with open(path, "rb") as fh:
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
    """The values of a file read by ``np.loadtxt``, or None when the
    cell-by-cell reader must decide."""
    lines = _count_lines(path)
    if not lines:
        return None
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            header = next(csv.reader(fh))
            if any(header.count(col.name) > 1 for col in schema):
                return None  # the cell-by-cell reader rejects the duplicate
            usecols = [header.index(col.name) for col in schema]
            converters = {
                pos: (lambda cell, index=_label_index(col): index[cell.strip()])
                for pos, col in zip(usecols, schema) if col.categories
            }
            with warnings.catch_warnings():
                # with no data rows numpy warns "input contained no data"; the
                # shape check below decides what such a file holds
                warnings.simplefilter("ignore")
                values = np.loadtxt(
                    fh, delimiter=",", usecols=usecols, comments=None, dtype=float, ndmin=2,
                    converters=converters, encoding="utf-8", max_rows=lines,
                )
        except Exception:  # whatever failed, the cell-by-cell reader decides
            return None
    return values if values.shape == (lines - 1, len(schema)) else None


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
    DataError naming the first bad row, or a schema column that the header
    lacks or names more than once."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = _records(path, fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file, expected a header row") from None
        rules = []  # (header position, cell parser) per schema column
        for col in schema:
            if col.name not in header:
                raise DataError(f"{path}: missing column {col.name!r}")
            if header.count(col.name) > 1:
                raise DataError(f"{path}: column {col.name!r} appears more than once in the header")
            rules.append((header.index(col.name), _label_index(col).__getitem__ if col.categories else float))
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


def write_csv(path, header, columns, labels=None) -> None:
    """Write the header, then one row per entry of the 1-D arrays ``columns``,
    with the bytes ``csv.writer`` writes in its default dialect.

    A cell is the ``repr`` of its Python value (``tolist``), or, in a column
    whose ``labels`` entry is a tuple of labels, the label its value indexes.
    Each label is quoted once, before the rows. The rows go out in blocks of
    ``WRITE_BLOCK``, each formatted column by column and joined once, so no
    second copy of the table is held.
    """
    width = len(columns)
    texts = [
        None if lab is None else [_field_text(label, width) for label in lab]
        for lab in labels or [None] * width
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(columns[0]), WRITE_BLOCK):
            block = slice(start, start + WRITE_BLOCK)
            cells = [
                map(repr, col[block].tolist()) if text is None
                else map(text.__getitem__, col[block].astype(np.intp).tolist())
                for col, text in zip(columns, texts)
            ]
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*cells)]))


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


def _encoding(columns: tuple[Column, ...]):
    """The one encoding rule, from the schema alone: yields a ``(name, source
    index, level)`` entry per encoded feature. A continuous column passes
    with level None; a k-level categorical gives k-1 indicators against its
    first category (two levels keep the name, more become ``name=label``).
    Response and count columns are not features.
    """
    for j, col in enumerate(columns):
        if col.kind == "continuous":
            yield col.name, j, None
        elif col.kind == "categorical":
            labels = col.categories[1:]
            for level, label in enumerate(labels, start=1):
                yield col.name if len(labels) == 1 else f"{col.name}={label}", j, level


def feature_matrix(ds: Dataset) -> tuple[np.ndarray, list[str]]:
    """Encoded feature matrix (a fresh, Fortran-ordered array) and its
    column names, in the order :func:`_encoding` gives."""
    entries = list(_encoding(ds.columns))
    # One gather copies every source column; indicators become == level.
    X = ds.values[:, [j for _, j, _ in entries]]
    for i, (_, _, level) in enumerate(entries):
        if level is not None:
            X[:, i] = X[:, i] == level
    return X, [name for name, _, _ in entries]


def nonconstant_columns(X: np.ndarray) -> np.ndarray:
    """Mask of the columns of X holding two or more distinct values (none with < 2 rows)."""
    return (X[1:] != X[:1]).any(axis=0)

