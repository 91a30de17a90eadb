"""Forked worker processes: how many the package's parallel paths use, one
forked child per share of a job, which hands its output back in an
anonymous temporary file (:func:`forked_shares`, behind the CSV writer),
and items run in forked children as one process would run them
(:func:`in_order`, behind cross-validation). Forking, CPU placement,
failure reports, reaping, and how a child's results, log records and
exceptions come back are written once.
"""

from __future__ import annotations

import contextlib
import logging
import os
import pickle
import sys
import tempfile
import threading
import traceback
from typing import BinaryIO, Callable, Iterator


def usable_cpus() -> int:
    """The CPUs this process may run on, or 1 where the platform cannot fork:
    the one rule for how many processes the package's parallel paths use."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def forked_shares(n: int, run: Callable[[int, BinaryIO], None], what: Callable[[int], str],
                  spool_dir=None) -> Iterator[Iterator[tuple[int, BinaryIO | None]]]:
    """Share s of ``n`` shares of a job, for s >= 1, runs in a forked child
    as ``run(s, spool)``, where ``spool`` is an anonymous temporary file in
    ``spool_dir`` (the temporary directory if None); the child leaves by
    ``os._exit``. The ``with`` statement gives an iterator over all ``n``
    shares in order, as ``(s, spool)``. ``spool`` is None for share 0 and
    for a share whose spool or fork could not be made: the caller runs
    those itself. Otherwise the iterator waits for the child and gives its
    spool, read from the start, or raises RuntimeError naming ``what(s)``
    and carrying the child's traceback if the child failed.

    Each child is moved once to the usable CPU ``s`` places after the one
    this process runs on, and the scheduler may move it on from there (left
    where it was forked, a short-lived child can share its parent's CPU
    throughout). stdout and stderr are flushed before the forks and in each
    child before it leaves.

    Every child is reaped before the ``with`` statement is left, and killed
    first if it is left early: by an exception, this process's interrupt
    included. An interrupt is held back while a child is forked and
    recorded and while one is reaped and struck off, so no child is lost
    and none is killed after it was reaped.
    """
    children: dict[int, tuple[int, BinaryIO]] = {}  # share -> (child pid, its spool)
    try:
        if n > 1:
            _fork(n, run, spool_dir, children)
        yield _reaped(n, what, children)
    finally:
        if children:
            import signal

            with _interrupt_held():
                for pid, spool in children.values():
                    spool.close()
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)


def _fork(n, run, spool_dir, children) -> None:
    """forked_shares' children, one per share 1 to n - 1, each recorded in ``children``."""
    sys.stdout.flush()
    sys.stderr.flush()
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    cpu = _running_on()
    here = cpus.index(cpu) if cpu in cpus else 0
    for s in range(1, n):
        try:
            spool = tempfile.TemporaryFile(dir=spool_dir)
        except OSError:
            continue  # the caller runs the share
        with _interrupt_held() as release:
            try:
                pid = os.fork()
            except OSError:
                spool.close()
                continue
            if pid == 0:
                release()
                _child(s, run, spool, cpus[(here + s) % len(cpus)] if cpus else None)
            children[s] = (pid, spool)


def _child(s, run, spool, cpu) -> None:
    """Child s's work: ``run(s, spool)``, then ``os._exit`` with status 0, or
    with status 1 and only the traceback in ``spool``."""
    status = 1
    try:
        if cpu is not None:
            with contextlib.suppress(OSError):  # a placement, not a requirement
                cpus = os.sched_getaffinity(0)
                os.sched_setaffinity(0, [cpu])
                os.sched_setaffinity(0, cpus)
        run(s, spool)
        spool.flush()
        status = 0
    except BaseException:
        os.ftruncate(spool.fileno(), 0)
        os.pwrite(spool.fileno(), traceback.format_exc().encode(), 0)
    finally:
        with contextlib.suppress(Exception):  # what the work printed
            sys.stdout.flush()
            sys.stderr.flush()
        os._exit(status)


def _reaped(n, what, children) -> Iterator[tuple[int, BinaryIO | None]]:
    """forked_shares' iterator: each share in order, its child reaped first."""
    for s in range(n):
        if s not in children:
            yield s, None
            continue
        pid, spool = children[s]
        if hasattr(os, "waitid"):  # not on macOS, where an interrupt waits for the child
            os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)  # an interrupt may come here
        with _interrupt_held():
            status = os.waitpid(pid, 0)[1]
            del children[s]
        with spool:
            spool.seek(0)
            code = os.waitstatus_to_exitcode(status)
            if code != 0:
                trace = spool.read(1 << 16).decode(errors="replace") if code == 1 else ""
                raise RuntimeError(f"the worker for {what(s)} exited with code {code}\n{trace}".rstrip())
            yield s, spool


@contextlib.contextmanager
def _interrupt_held():
    """Holds SIGINT's Python handler back until the block ends, when a SIGINT
    that came meanwhile is raised again. Gives a function that puts the
    handler back at once (for a forked child). Only the main thread runs
    Python's signal handlers, so elsewhere nothing is held, nor is a
    handler that was not set from Python."""
    import signal

    if threading.current_thread() is not threading.main_thread() or signal.getsignal(signal.SIGINT) is None:
        yield lambda: None
        return
    came = []
    handler = signal.signal(signal.SIGINT, lambda signum, frame: came.append(signum))
    try:
        yield lambda: signal.signal(signal.SIGINT, handler)
    finally:
        signal.signal(signal.SIGINT, handler)
        if came:
            signal.raise_signal(signal.SIGINT)


def _running_on() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat), or None."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def in_order(n: int, run: Callable[[int], object], workers: int, what: str) -> list:
    """``[run(0), ..., run(n - 1)]``, with the items dealt round-robin to
    ``workers`` processes: share w holds items w, w + workers, ... This
    process runs share 0; each other share runs in a forked child
    (:func:`forked_shares`), which hands its results back as a pickle.
    ``what`` names the items, as in "folds".

    The call behaves as one process running the items in order. The
    records that reach the ``claimtree`` logger during an item are held
    back and handed to its handlers here, item by item. A share stops
    after its first item that raises an Exception, and the lowest-numbered
    such item's exception is raised here, after the records of that item
    and the ones before it. From a child it comes back with its type and
    message and the child's traceback as its ``__cause__``, or as a
    RuntimeError carrying that traceback if it does not pickle. What
    ``run`` changes in a child stays in the child.
    """
    shares = [list(range(w, n, workers)) for w in range(workers)]

    def child(w, spool):
        pickle.dump({i: (result, records, _portable(error))
                     for i, (result, records, error) in _run_share(run, shares[w]).items()}, spool)

    done: dict[int, tuple] = {}
    with forked_shares(workers, child, lambda w: f"{what} {shares[w]}") as reaped:
        for w, spool in reaped:
            if spool is None:
                done.update(_run_share(run, shares[w]))
                continue
            for i, (result, records, (error, text)) in pickle.load(spool).items():
                if text is not None:
                    error.__cause__ = _WorkerTraceback(text)
                done[i] = (result, records, error)
    package_log = logging.getLogger(__package__)
    results = []
    for i in range(n):
        result, records, error = done[i]
        for record in records:
            package_log.callHandlers(record)  # where _held_records stopped it
        if error is not None:
            raise error
        results.append(result)
    return results


def _run_share(run, share) -> dict[int, tuple]:
    """``{i: (run(i), held records, None)}`` over ``share`` in order, up to
    and including the first item that raised, which holds its exception."""
    out = {}
    for i in share:
        with _held_records() as records:
            try:
                out[i] = (run(i), records, None)
            except Exception as exc:  # noqa: BLE001 - raised again by in_order, in item order
                out[i] = (None, records, exc)
                break
    return out


@contextlib.contextmanager
def _held_records():
    """The records that reach the ``claimtree`` logger inside the block,
    kept instead of passed to its handlers and its ancestors' (the
    handlers of a logger below it still run at once). Each is prepared as
    ``logging.handlers.QueueHandler.prepare`` does, message formatted and
    arguments, exception and stack dropped, so it pickles and prints the
    same when handled later."""
    records: list[logging.LogRecord] = []
    handler = logging.Handler()

    def hold(record):
        held = logging.makeLogRecord(record.__dict__)
        held.msg = held.message = handler.format(record)
        held.args = held.exc_info = held.exc_text = held.stack_info = None
        records.append(held)

    handler.emit = hold
    logger = logging.getLogger(__package__)
    saved = logger.handlers, logger.propagate
    logger.handlers, logger.propagate = [handler], False
    try:
        yield records
    finally:
        logger.handlers, logger.propagate = saved


class _WorkerTraceback(Exception):
    """The cause given to an exception raised again from a child: its text
    is the traceback the exception had there."""


def _portable(exc: Exception | None) -> tuple[Exception | None, str | None]:
    """``exc`` and its traceback text, where ``exc`` survives a pickle round
    trip with its type and message; else a RuntimeError that carries the
    text, and None. None gives None, None."""
    if exc is None:
        return None, None
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    try:
        back = pickle.loads(pickle.dumps(exc))
        if type(back) is type(exc) and str(back) == str(exc):
            return exc, text
    except Exception:  # noqa: BLE001 - anything that stops the round trip
        pass
    return RuntimeError(f"a worker raised an exception that does not pickle:\n{text}"), None
