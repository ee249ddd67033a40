import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from perfcast import pool

TESTS = Path(__file__).resolve().parent


def reap_within(pid, seconds):
    """Wait up to `seconds` for the child pid to end, and return its exit code."""
    deadline = time.monotonic() + seconds
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        assert time.monotonic() < deadline, f"process {pid} still running after {seconds} s"
        time.sleep(0.01)


def test_closing_a_command_pipe_ends_its_worker():
    assert pool.map_jobs(abs, [-1, -2], 2) == [1, 2]
    (worker,) = pool._workers
    worker.commands.close()
    assert reap_within(worker.pid, 20) == 0


def test_pool_grows_to_the_largest_map():
    assert pool.map_jobs(abs, [-1, -2], 2) == [1, 2]
    first = [worker.pid for worker in pool._workers]
    assert pool.map_jobs(abs, [-1, -2, -3, -4], 3) == [1, 2, 3, 4]
    assert [worker.pid for worker in pool._workers][:1] == first and len(pool._workers) == 2
    assert pool.map_jobs(abs, [-5, -6], 2) == [5, 6]
    assert len(pool._workers) == 2


@pytest.mark.parametrize("break_it", ["unpicklable", "dead_worker"])
def test_a_broken_map_ends_every_worker_and_the_next_forks_again(break_it):
    assert pool.map_jobs(abs, [-1, -2, -3], 3) == [1, 2, 3]
    if break_it == "unpicklable":
        fn, error = (lambda job: job), (AttributeError, pickle.PicklingError)  # a lambda has no name to pickle by
    else:
        os.kill(pool._workers[1].pid, signal.SIGKILL)
        fn, error = abs, ChildProcessError
    with pytest.raises(error):
        pool.map_jobs(fn, [-1, -2, -3], 3)
    assert pool._workers == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert pool.map_jobs(abs, [-1, -2, -3], 3) == [1, 2, 3]


# A child Python process that runs a 3-process experiment and prints its workers' pids.
CHILD = """
import os
import sys
sys.path[:0] = [{tests!r}]
from conftest import synthetic_setup
from perfcast import pool
from perfcast.experiments import ExperimentConfig, SplitSpec, run_experiment
from perfcast.regressors import PolyParams

records, _, _ = synthetic_setup(30, seed=21)
config = ExperimentConfig(records=records, grid=[PolyParams(degree=1)], split=SplitSpec("random", ratio=0.7),
                          feature_groups=("proxy",), repeats=3)
run_experiment(config, 3)
"""

# A forked child that is no worker, a bystander that lives as long as the
# caller, must hold no copy of the workers' command pipes: with one, no worker
# would read EOF when the caller closes them at exit, and the caller would
# wait for the workers forever.
WITH_BYSTANDER = """
alive_r, alive_w = os.pipe()
if os.fork() == 0:
    os.close(alive_w)
    os.read(alive_r, 1)  # EOF once the caller has ended
    os._exit(0)
print(*(worker.pid for worker in pool._workers), flush=True)
"""


def ended(pid):
    """Whether process pid has exited: it is gone, or a zombie not reaped yet."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return True
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_a_process_with_three_workers_exits_and_leaves_none():
    child = subprocess.run([sys.executable, "-c", CHILD.format(tests=str(TESTS)) + WITH_BYSTANDER],
                           capture_output=True, text=True, timeout=20)
    assert child.returncode == 0, child.stderr
    pids = [int(pid) for pid in child.stdout.split()]
    assert len(pids) == 2
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="reads the state of a process the test did not fork")
def test_workers_of_a_killed_caller_exit():
    waits = "print(*(worker.pid for worker in pool._workers), flush=True)\nsys.stdin.read()\n"
    with subprocess.Popen([sys.executable, "-c", CHILD.format(tests=str(TESTS)) + waits],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as child:
        pids = [int(pid) for pid in child.stdout.readline().split()]
        child.kill()
        child.wait(timeout=20)
    assert len(pids) == 2
    deadline = time.monotonic() + 20
    while not all(ended(pid) for pid in pids):
        assert time.monotonic() < deadline, "a worker outlived its killed caller by 20 s"
        time.sleep(0.01)
