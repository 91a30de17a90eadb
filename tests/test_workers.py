"""``workers.forked_shares``: shares come back in order, and an interrupt
at any point leaves no child process behind and hides no error."""

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
