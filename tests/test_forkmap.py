"""fork_map: results in task order, the first failure in task order, no process left,
and a worker that dies fails the call instead of hanging it."""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from firlock.forkmap import WorkerLost, fork_map

from conftest import deadline


def test_results_in_task_order():
    # Earlier tasks sleep longer, so they finish later.
    offset = 7  # closed over: the workers inherit it by fork

    def slow_first(t):
        time.sleep(0.02 * (4 - t))
        return t * t + offset

    assert fork_map(slow_first, range(5)) == [t * t + offset for t in range(5)]
    assert multiprocessing.active_children() == []


def test_first_failure_in_task_order_is_raised():
    # Task 1 fails at once, task 0 only after a while.
    def fail(t):
        if t == 0:
            time.sleep(0.3)
        raise ValueError(f"task {t} failed")

    with pytest.raises(ValueError, match="task 0 failed"):
        fork_map(fail, [0, 1])
    assert multiprocessing.active_children() == []


def test_no_task_after_a_failure_starts(tmp_path, monkeypatch):
    # One worker takes the tasks in order; the failure of task 1 settles
    # the result, so tasks 2 to 5 are never started.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    started = tmp_path / "started"

    def task(t):
        with open(started, "a") as f:
            f.write(f"{t}\n")
        if t == 1:
            raise ValueError("task 1 failed")
        return t

    with pytest.raises(ValueError, match="task 1 failed"):
        fork_map(task, range(6))
    assert started.read_text().split() == ["0", "1"]
    assert multiprocessing.active_children() == []


def test_workers_are_forked_one_per_usable_cpu(monkeypatch):
    pids = fork_map(lambda t: os.getpid(), range(4))
    assert os.getpid() not in pids
    assert len(set(pids)) <= len(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    pids = fork_map(lambda t: os.getpid(), range(4))
    assert len(set(pids)) == 1 and os.getpid() not in pids
    assert fork_map(lambda t: t * t, range(5)) == [t * t for t in range(5)]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize(
    "die",
    [lambda: os._exit(1), lambda: os.kill(os.getpid(), signal.SIGKILL)],
    ids=["exit", "sigkill"],
)
def test_dead_worker_raises_instead_of_hanging(die):
    # Task 3's worker ends without a result, as under the out-of-memory
    # killer; the call must fail at once and leave no worker behind.
    def task(t):
        if t == 3:
            die()
        time.sleep(0.01)
        return t

    with deadline(20), pytest.raises(WorkerLost, match="worker process died"):
        fork_map(task, range(6))
    assert multiprocessing.active_children() == []
    assert fork_map(lambda t: t + 1, range(3)) == [1, 2, 3]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two workers")
def test_worker_dying_after_its_last_result_loses_nothing():
    # Task 0's worker exits, idle, 0.2 s after its reply, while task 1
    # still runs on the other worker for a second.
    def task(t):
        if t == 0:
            threading.Thread(target=lambda: (time.sleep(0.2), os._exit(1))).start()
        else:
            time.sleep(1.0)
        return t

    with deadline(20):
        assert fork_map(task, range(2)) == [0, 1]
    assert multiprocessing.active_children() == []


def test_no_tasks_starts_no_worker():
    assert fork_map(lambda t: t, []) == []
    assert multiprocessing.active_children() == []
