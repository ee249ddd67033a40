"""Forked worker processes, made once per process and reused by every parallel map.

map_jobs(fn, jobs, workers) returns [fn(job) for job in jobs], with job i run
in process i mod W, where W = min(workers, len(jobs)) and workers = 0 means
one per CPU this process may run on. Process 0 is the caller, which runs
its own share in place; processes 1 .. W - 1 are the
pool's first W - 1 workers. The first map that needs a worker forks it, and
every later map in the process reuses it, so the pool grows to the largest
W any map has asked for. Without os.fork W is 1, and the caller runs every
job.

Each worker loops: it reads one pickled (fn, jobs, start, step) command from
its command pipe, runs its share and writes one pickled (done, failure)
result back. So fn, the jobs and their results must pickle. fn travels by
reference: a module-level function, or a functools.partial of one whose
bound arguments pickle.

A worker runs perfcast as it was when the worker was forked: a module
attribute set later, by a monkeypatch in a test for one, does not reach it
(close() first, and the next map forks workers that see it). An idle worker
holds memory: the caller's pages as they were at the fork, shared until
either side writes them, and what its jobs left behind. close() ends the
workers, and so does the caller's exit, through atexit; if the caller is
killed, each worker reads EOF from its command pipe and exits. One map runs
at a time per process.
"""

from __future__ import annotations

import atexit
import os
import pickle
import signal
import traceback
from contextlib import suppress
from typing import BinaryIO, Callable, NamedTuple


class _Worker(NamedTuple):
    pid: int
    commands: BinaryIO  # the caller's end of the worker's command pipe
    results: BinaryIO  # the caller's end of the worker's result pipe


# this process's workers, in process order: _workers[k] is process k + 1 of a map
_workers: list[_Worker] = []


def _worker_count(workers: int, n_jobs: int) -> int:
    """workers, or one per CPU this process may run on when it is 0, at most n_jobs."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if workers == 0:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(workers, n_jobs))


def _run_share(fn: Callable, jobs: list, start: int, step: int):
    """Run jobs start, start + step, ... in order and stop at the first that raises.

    Returns ([(job index, result)], (job index, exception) or None): a later
    job's outcome cannot matter once an earlier one has failed.
    """
    done = []
    for i in range(start, len(jobs), step):
        try:
            done.append((i, fn(jobs[i])))
        except Exception as exc:  # map_jobs raises the earliest failure in job order
            return done, (i, exc)
    return done, None


class _RemoteTraceback(Exception):
    """The formatted traceback of a job that failed in a worker, set as the exception's __cause__.

    concurrent.futures passes a worker's traceback on the same way.
    """


def _serve(commands_fd: int, results_fd: int) -> None:
    """A worker's loop: run the share each command names and write back its outcome; never returns.

    A failure travels as (job index, exception, its formatted traceback),
    since pickling an exception drops its traceback. The process ends on EOF
    from the command pipe, or on any error.
    """
    status = 1
    try:
        with open(commands_fd, "rb") as commands, open(results_fd, "wb") as results:
            while True:
                try:
                    fn, jobs, start, step = pickle.load(commands)  # bytes the process that forked this one wrote
                except EOFError:
                    break
                done, failure = _run_share(fn, jobs, start, step)
                if failure is not None:
                    failure = (*failure, "".join(traceback.format_exception(failure[1])))
                results.write(pickle.dumps((done, failure)))
                results.flush()
        status = 0
    finally:
        # never return into the caller's stack; skip atexit handlers and the
        # flush of the stdio buffers this process inherited, which would repeat their text
        os._exit(status)


def _grow(n: int) -> None:
    """Fork workers until the pool has n."""
    while len(_workers) < n:
        commands_r, commands_w = os.pipe()
        results_r, results_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (commands_r, commands_w, results_r, results_w):
                os.close(fd)
            raise
        if pid == 0:  # _forget has closed the other workers' pipes
            os.close(commands_w)
            os.close(results_r)
            _serve(commands_r, results_w)
        os.close(commands_r)
        os.close(results_w)
        _workers.append(_Worker(pid, open(commands_w, "wb"), open(results_r, "rb")))


def _forget() -> None:
    """In a newly forked child: close the inherited ends of the workers' pipes, which only the caller may hold.

    A worker holding a copy of another's command pipe would keep it from
    ever reading EOF there. The workers are not this process's children, so
    it neither signals nor reaps them.
    """
    for worker in _workers:
        worker.commands.close()
        worker.results.close()
    _workers.clear()


def _end(kill: bool) -> None:
    """Take every worker out of the pool and reap it, after SIGKILL or after closing its pipes."""
    ending = _workers[:]
    _workers.clear()
    for worker in ending:
        if kill:
            os.kill(worker.pid, signal.SIGKILL)
        with suppress(OSError):  # a command left in the buffer of a write that failed
            worker.commands.close()
        worker.results.close()
    for worker in ending:
        with suppress(ChildProcessError):  # reaped by someone else
            os.waitpid(worker.pid, 0)


def close() -> None:
    """End every worker: each reads EOF from its command pipe and exits, and is reaped.

    The next map forks new workers. Runs at exit.
    """
    _end(kill=False)


def map_jobs(fn: Callable, jobs: list, workers: int) -> list:
    """[fn(job) for job in jobs], with job i run in process i mod W, where W = _worker_count(workers, len(jobs)).

    The caller writes every worker's command, runs its own share, then reads
    each worker's result. When jobs fail, the exception of the earliest in
    job order is raised, as the serial loop would raise it; one raised in a
    worker carries the worker's traceback as its __cause__, and the pool
    stays. Any other error while the map is in flight (an interrupt in the
    caller, a worker that ended without its result, a command that does not
    pickle) kills and reaps every worker before it propagates.
    """
    w = _worker_count(workers, len(jobs)) if hasattr(os, "fork") else 1
    try:
        _grow(w - 1)
        busy = _workers[:w - 1]
        for start, worker in enumerate(busy, start=1):
            try:
                worker.commands.write(pickle.dumps((fn, jobs, start, w)))
                worker.commands.flush()
            except BrokenPipeError:
                raise ChildProcessError(f"worker process {worker.pid} has ended") from None
        done, failure = _run_share(fn, jobs, 0, w)
        failures = [failure] if failure is not None else []
        for worker in busy:
            try:
                worker_done, worker_failure = pickle.load(worker.results)  # bytes this pool's worker wrote
            except EOFError:
                raise ChildProcessError(f"worker process {worker.pid} ended without its results") from None
            done += worker_done
            if worker_failure is not None:
                i, exc, tb = worker_failure
                exc.__cause__ = _RemoteTraceback(tb)
                failures.append((i, exc))
    except BaseException:
        _end(kill=True)
        raise
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return [result for _, result in sorted(done, key=lambda d: d[0])]


atexit.register(close)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)
