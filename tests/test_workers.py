"""``workers.forked_shares``: shares come back in order, and an interrupt
at any point leaves no child process behind and hides no error.
``workers.in_order``: items forked out to workers come back as one process
running them in order would give them."""

import logging
import os
import signal

import pytest

from claimtree import workers


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_shares(n):
    """Each share's spool text, or "here" for a share this process runs."""
    with workers.forked_shares(n, lambda s, spool: spool.write(f"share {s}".encode()),
                               lambda s: f"share {s}") as done:
        return [("here" if spool is None else spool.read().decode()) for s, spool in done]


def test_each_share_comes_back_in_order():
    assert run_shares(1) == ["here"]
    assert run_shares(3) == ["here", "share 1", "share 2"]
    assert_no_child_left()


def test_an_interrupt_right_after_a_fork_kills_that_child(monkeypatch):
    """The interrupt is held until the child is recorded, so it is killed and reaped."""
    forks, fork = [], os.fork

    def interrupted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
            signal.raise_signal(signal.SIGINT)
        return pid

    monkeypatch.setattr(os, "fork", interrupted_fork)
    with pytest.raises(KeyboardInterrupt):
        run_shares(3)
    assert len(forks) == 1
    assert_no_child_left()


def test_an_interrupt_while_a_child_is_reaped_comes_after_it(monkeypatch):
    """An interrupt held over the reap is raised once the child is struck
    off, so the reaped child is not killed and waited for again."""
    reaped, waitpid = [], os.waitpid

    def interrupted_waitpid(pid, options):
        reaped.append(pid)
        result = waitpid(pid, options)
        if len(reaped) == 1:
            signal.raise_signal(signal.SIGINT)
        return result

    monkeypatch.setattr(os, "waitpid", interrupted_waitpid)
    with pytest.raises(KeyboardInterrupt):
        run_shares(3)
    assert len(reaped) == 2 and len(set(reaped)) == 2  # share 1's child, then share 2's killed child
    assert_no_child_left()


def test_a_child_that_dies_is_reported(monkeypatch):
    def die(s, spool):
        os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError, match="the worker for share 1 exited with code -9"):
        with workers.forked_shares(2, die, lambda s: f"share {s}") as done:
            list(done)
    assert_no_child_left()


def test_each_child_is_moved_once_then_left_to_the_scheduler(monkeypatch):
    """Child s starts on the CPU s places after this process's, then gets
    every usable CPU back."""
    calls = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: calls.append(sorted(cpus)))
    monkeypatch.setattr(workers, "_running_on", lambda: 1)
    with workers.forked_shares(3, lambda s, spool: spool.write(repr(calls).encode()), str) as done:
        placed = [spool.read().decode() for s, spool in done if spool is not None]
    assert placed == ["[[2], [0, 1, 2]]", "[[0], [0, 1, 2]]"]
    assert calls == []  # this process keeps its CPUs


def test_shares_run_where_cpu_sets_and_waitid_are_missing(monkeypatch):
    """As on macOS: no placement, and the wait is the reap itself."""
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.delattr(os, "waitid")
    assert run_shares(3) == ["here", "share 1", "share 2"]
    assert_no_child_left()


@pytest.fixture(params=[1, 3], ids=["1 worker", "3 workers"])
def n_workers(request):
    yield request.param
    assert_no_child_left()


def test_results_come_back_in_order(n_workers):
    assert workers.in_order(7, lambda i: i * i, n_workers, "items") == [i * i for i in range(7)]


def test_each_items_records_come_after_the_ones_before(n_workers, caplog):
    caplog.set_level(logging.INFO, logger="claimtree")
    item_log = logging.getLogger("claimtree.test_workers")

    def run(i):
        item_log.info("item %d starts", i)
        item_log.warning("item %d ends", i)

    workers.in_order(5, run, n_workers, "items")
    assert [r.getMessage() for r in caplog.records] == [
        f"item {i} {step}" for i in range(5) for step in ("starts", "ends")]


def test_the_lowest_raising_item_is_raised_with_its_traceback(n_workers, caplog, tmp_path):
    """Items 2 and 4 raise; with 3 workers item 2 runs in a child, whose
    traceback becomes the cause. Item 1's records come first, none after,
    and no share runs an item after its raising one."""
    item_log = logging.getLogger("claimtree.test_workers")
    ran = tmp_path / "ran"

    def run(i):
        with open(ran, "a") as out:
            out.write(f"{i}\n")
        item_log.warning("item %d", i)
        if i in (2, 4):
            raise KeyError(f"item {i}")
        return i

    with pytest.raises(KeyError) as info:
        workers.in_order(6, run, n_workers, "items")
    assert info.value.args == ("item 2",)
    assert [r.getMessage() for r in caplog.records] == ["item 0", "item 1", "item 2"]
    assert sorted(map(int, ran.read_text().split())) == ([0, 1, 2] if n_workers == 1 else [0, 1, 2, 3, 4])
    if n_workers == 1:
        assert info.value.__cause__ is None
    else:
        assert isinstance(info.value.__cause__, workers._WorkerTraceback)
        assert f"in {run.__name__}" in str(info.value.__cause__)
        assert str(info.value.__cause__).rstrip().endswith("KeyError: 'item 2'")


class TwoPartError(Exception):
    """Pickles as ``TwoPartError(message)``, which its ``__init__`` refuses."""

    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


def test_an_exception_that_does_not_pickle_becomes_a_runtime_error(n_workers):
    def run(i):
        if i == 1:
            raise TwoPartError("bad item", "a share")

    if n_workers == 1:  # nothing is pickled
        expected, match = TwoPartError, "bad item in a share"
    else:
        expected, match = RuntimeError, "(?s)does not pickle.*TwoPartError: bad item in a share"
    with pytest.raises(expected, match=match):
        workers.in_order(3, run, n_workers, "items")


def test_one_worker_forks_nothing(monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert workers.in_order(4, str, 1, "items") == ["0", "1", "2", "3"]


def test_a_child_that_dies_is_reported_by_its_items():
    def run(i):
        if i == 2:
            os.kill(os.getpid(), signal.SIGKILL)

    with pytest.raises(RuntimeError, match=r"the worker for items \[2\] exited with code -9"):
        workers.in_order(4, run, 3, "items")
    assert_no_child_left()
