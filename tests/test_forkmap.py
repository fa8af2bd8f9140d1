"""fork_map: results in task order, the first failure in task order, no process left."""

import multiprocessing
import os
import time

import pytest

from firlock.forkmap import fork_map


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


def test_workers_are_forked_one_per_usable_cpu(monkeypatch):
    pids = fork_map(lambda t: os.getpid(), range(4))
    assert os.getpid() not in pids
    assert len(set(pids)) <= len(os.sched_getaffinity(0))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    pids = fork_map(lambda t: os.getpid(), range(4))
    assert len(set(pids)) == 1 and os.getpid() not in pids
    assert fork_map(lambda t: t * t, range(5)) == [t * t for t in range(5)]
    assert multiprocessing.active_children() == []
