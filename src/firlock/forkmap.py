"""Independent tasks mapped over a pool of forked worker processes."""

from __future__ import annotations

import os

__all__ = ["WorkerLost", "fork_map"]

# The function being mapped and its tasks, set before the pool forks so
# that the workers inherit them, with everything they hold, instead of
# receiving them pickled.
_fn = None
_tasks = ()

_LOST = (
    "a worker process died before returning its result "
    "(killed by a signal or the out-of-memory killer, or exited)"
)


class WorkerLost(RuntimeError):
    """A worker process ended without returning its task's result."""


def _serve(conn) -> None:
    """A worker: run each task index received, reply ``(ok, result or exception)``."""
    while True:
        j = conn.recv()
        try:
            reply = (True, _fn(_tasks[j]))
        except BaseException as exc:
            reply = (False, exc)
        conn.send(reply)


def fork_map(fn, tasks) -> list:
    """``[fn(t) for t in tasks]``, computed by forked workers, one per usable CPU.

    Only each task's index and its result are pickled.  A failure is
    raised here as the first one in task order, after every worker has
    been stopped; no task after a failed one is started.  A worker that
    dies (killed by a signal or the out-of-memory killer, or by
    ``os._exit``) fails its task with `WorkerLost`.  The parent runs no
    thread of its own.
    """
    import multiprocessing
    from multiprocessing.connection import wait

    global _fn, _tasks
    _fn, _tasks = fn, list(tasks)
    n = len(_tasks)
    ctx = multiprocessing.get_context("fork")
    results, failures = [None] * n, {}
    procs, idle, running = [], [], {}  # running: connection -> task index
    try:
        for _ in range(min(len(os.sched_getaffinity(0)), n)):
            conn, child = ctx.Pipe()
            procs.append(ctx.Process(target=_serve, args=(child,)))
            procs[-1].start()
            child.close()
            idle.append(conn)
        start = 0
        while True:
            while idle and start < min(failures, default=n):
                conn = idle.pop()
                try:
                    conn.send(start)
                    running[conn] = start
                except OSError:  # its worker died after its last reply
                    failures[start] = WorkerLost(_LOST)
                start += 1
            if not running:
                break
            for conn in wait(list(running)):
                j = running.pop(conn)
                try:
                    ok, value = conn.recv()
                except EOFError:
                    failures[j] = WorkerLost(_LOST)
                    continue
                if ok:
                    results[j] = value
                else:
                    failures[j] = value
                idle.append(conn)
        if failures:
            raise failures[min(failures)]
    finally:
        # Idle workers wait in recv and hold nothing: stop them all.
        for proc in procs:
            proc.terminate()
            proc.join()
        _fn, _tasks = None, ()
    return results
