"""``write_csv`` against ``csv.writer`` with ``repr`` cells, for one process
and for row shares formatted in forked children, and what a failed or
interrupted write leaves behind: no child process and no file."""

import csv
import os
import shutil
import tempfile

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from claimtree import data  # noqa: E402
from claimtree.data import SHARE_CELLS, WRITE_BLOCK, write_csv  # noqa: E402
from claimtree.simulate import SimConfig, simulate  # noqa: E402

# -0.0 and 0.0, and each subnormal and its negation, must keep their own texts.
FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.5, 0.1, 3.0, 1e-7, 123456789.0]
INTS = [0, 1, -1, 7, 2**62, -(2**62), 1000]
LABELS = ["", "a", "a,b", 'q"', "x\ry", " s ", "z"]
ROW_COUNTS = [0, 1, WRITE_BLOCK - 1, WRITE_BLOCK, WRITE_BLOCK + 1, 3 * WRITE_BLOCK + 7]


def reference_write_csv(path, header, columns, labels):
    values = [col.tolist() for col in columns]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for i in range(len(columns[0])):
            writer.writerow([repr(vals[i]) if lab is None else lab[int(vals[i])]
                             for vals, lab in zip(values, labels)])


def pin_workers(monkeypatch, workers):
    monkeypatch.setattr(data, "_write_workers", lambda cells: workers)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@st.composite
def tables(draw):
    """Columns of one length: floats, ints or label codes drawn from small
    pools (the pool's order may put one value alone in the first block),
    or floats with hardly a repeat."""
    n = draw(st.sampled_from(ROW_COUNTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns, labels = [], []
    for kind in draw(st.lists(st.sampled_from(["floats", "ints", "labels", "spread"]), min_size=1, max_size=5)):
        lab = None
        if kind == "spread":
            col = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        elif kind == "labels":
            lab = tuple(draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=4, unique=True)))
            col = rng.integers(0, len(lab), size=n).astype(draw(st.sampled_from([np.float64, np.int64])))
        else:
            pool = draw(st.lists(st.sampled_from(FLOATS if kind == "floats" else INTS), min_size=1, max_size=5))
            col = np.array(pool, dtype=np.float64 if kind == "floats" else np.int64)[rng.integers(0, len(pool), n)]
            if draw(st.booleans()):
                col = np.sort(col, kind="stable")
        columns.append(col)
        labels.append(lab)
    return columns, labels


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(tables(), st.integers(1, 4), st.sampled_from([data.TABLE_MAX, 2]))
def test_bytes_match_csv_writer_for_any_worker_count(tmp_path, monkeypatch, table, workers, table_max):
    columns, labels = table
    pin_workers(monkeypatch, workers)
    monkeypatch.setattr(data, "TABLE_MAX", table_max)  # 2: a pool column may outgrow its table
    header = [f"h{j}" for j in range(len(columns))]
    write_csv(tmp_path / "new.csv", header, columns, labels)
    reference_write_csv(tmp_path / "ref.csv", header, columns, labels)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert_no_child_left()


def test_a_column_outside_a_table_kind_is_written_by_repr(tmp_path, monkeypatch):
    """bool and float32 cells are not looked up in a value table."""
    pin_workers(monkeypatch, 2)
    columns = [np.arange(600) % 2 == 0, (np.arange(600) % 3).astype(np.float32) / 3]
    write_csv(tmp_path / "new.csv", ["b", "f"], columns)
    reference_write_csv(tmp_path / "ref.csv", ["b", "f"], columns, [None, None])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_the_shares_are_spooled_beside_the_output(tmp_path, monkeypatch):
    """A temporary directory that cannot be written does not stop the forked
    shares: their files are made in the output's directory."""
    pin_workers(monkeypatch, 3)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    columns = [np.arange(1000) * 0.5, np.arange(1000) % 4]
    (tmp_path / "out").mkdir()
    write_csv(tmp_path / "out" / "new.csv", ["a", "b"], columns)
    reference_write_csv(tmp_path / "ref.csv", ["a", "b"], columns, [None, None])
    assert (tmp_path / "out" / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    assert len(forks) == 2
    assert os.listdir(tmp_path / "out") == ["new.csv"]
    assert_no_child_left()


def test_a_share_whose_fork_fails_is_written_here(tmp_path, monkeypatch):
    pin_workers(monkeypatch, 3)
    columns = [np.arange(1000) * 0.5, np.arange(1000) % 4]

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(os, "fork", no_fork)
    write_csv(tmp_path / "new.csv", ["a", "b"], columns)
    reference_write_csv(tmp_path / "ref.csv", ["a", "b"], columns, [None, None])
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


class TestCleanup:
    """A failed or interrupted write raises, reaps every child and leaves no
    new file in the output directory or the temporary directory."""

    COLUMNS = [np.arange(3000) * 0.25, np.arange(3000) % 5]

    @pytest.fixture
    def out_dir(self, tmp_path, monkeypatch):
        pin_workers(monkeypatch, 3)
        before = set(os.listdir(tempfile.gettempdir()))
        out = tmp_path / "out"
        out.mkdir()
        yield out
        assert_no_child_left()
        assert set(os.listdir(tempfile.gettempdir())) <= before

    def test_a_failing_child(self, out_dir, monkeypatch):
        parent, write_rows = os.getpid(), data._write_rows

        def fail_in_children(fh, columns, texts, start, stop):
            if os.getpid() == parent:
                write_rows(fh, columns, texts, start, stop)
            else:  # a child fails after it has written some rows
                write_rows(fh, columns, texts, start, start + WRITE_BLOCK + 1)
                fh.flush()
                raise ValueError(f"cannot format rows {start}-{stop}")

        monkeypatch.setattr(data, "_write_rows", fail_in_children)
        with pytest.raises(RuntimeError, match="rows 1000-2000 .* exited with code 1") as info:
            write_csv(out_dir / "p.csv", ["a", "b"], self.COLUMNS)
        # the child's traceback, not the rows it wrote
        assert str(info.value).split("\n", 1)[1].startswith("Traceback")
        assert "\r" not in str(info.value)
        assert "ValueError: cannot format rows 1000-2000" in str(info.value)
        assert os.listdir(out_dir) == []

    def test_an_interrupt_while_copying_a_share(self, out_dir, monkeypatch):
        copies = []

        def interrupt(src, dst, *args):
            copies.append(src)
            raise KeyboardInterrupt

        monkeypatch.setattr(shutil, "copyfileobj", interrupt)
        with pytest.raises(KeyboardInterrupt):
            write_csv(out_dir / "p.csv", ["a", "b"], self.COLUMNS)
        assert len(copies) == 1  # the third share's child was still pending, and is killed
        assert os.listdir(out_dir) == []

    def test_a_file_that_was_there_is_not_removed(self, out_dir, monkeypatch):
        (out_dir / "p.csv").write_text("old\n")
        monkeypatch.setattr(shutil, "copyfileobj", lambda *args: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            write_csv(out_dir / "p.csv", ["a", "b"], self.COLUMNS)
        assert os.listdir(out_dir) == ["p.csv"]

    def test_a_failure_in_this_process(self, out_dir, monkeypatch):
        pin_workers(monkeypatch, 1)
        with pytest.raises(IndexError):  # a code with no label
            write_csv(out_dir / "p.csv", ["c"], [np.array([0, 1, 2])], [("a", "b")])
        assert os.listdir(out_dir) == []


def test_a_20000_row_portfolio_is_written_in_forked_shares(monkeypatch):
    """CI compares a 20,000-row portfolio written under ``taskset -c 0`` with
    one written on every CPU; that covers the forked shares only if such a
    portfolio is split on two CPUs."""
    width = len(simulate(SimConfig(n=1, seed=7)).dataset.columns)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert data._write_workers(20_000 * width) == 2


def test_worker_count_follows_the_usable_cpus_and_the_size(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    sizes = (0, SHARE_CELLS - 1, 2 * SHARE_CELLS, 100 * SHARE_CELLS)
    assert [data._write_workers(cells) for cells in sizes] == [1, 1, 2, 3]
    monkeypatch.delattr(os, "fork")
    assert data._write_workers(100 * SHARE_CELLS) == 1
