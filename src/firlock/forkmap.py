"""Independent tasks mapped over a pool of forked worker processes."""

from __future__ import annotations

import os

__all__ = ["fork_map"]

# The function being mapped, set before the pool forks so that the
# workers inherit it, with everything it closes over, instead of
# receiving it pickled.
_fn = None


def _call(task):
    return _fn(task)


def fork_map(fn, tasks) -> list:
    """``[fn(t) for t in tasks]``, computed by forked workers, one per usable CPU.

    Only each task and its result are pickled.  A failure is raised here
    as the first one in task order, after every worker has been stopped.
    """
    import multiprocessing

    global _fn
    tasks = list(tasks)
    _fn = fn
    pool = multiprocessing.get_context("fork").Pool(min(len(os.sched_getaffinity(0)), len(tasks)))
    try:
        results = list(pool.imap(_call, tasks, chunksize=1))
    except BaseException:
        pool.terminate()
        raise
    else:
        pool.close()
    finally:
        pool.join()
        _fn = None
    return results
