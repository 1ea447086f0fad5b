"""Independent calls spread over the available cores, in spawned worker processes.

`map_on_cores` is the one pool code path: ensemble training, the bias
study's replicates and large artifact CSVs all go through it.
"""
from __future__ import annotations

import collections
import itertools
import multiprocessing
import os
import threading
import warnings
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

import numpy as np

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _available_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _single_blas_thread_env():
    """Sets the BLAS thread variables to 1, then restores this process's values."""
    saved = {name: os.environ.get(name) for name in _BLAS_THREAD_VARS}
    os.environ.update(dict.fromkeys(_BLAS_THREAD_VARS, "1"))
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


_worker_task = None  # (fn, the caller's numpy error state), set once in each pool worker


def _start_worker(fn, np_errors: dict) -> None:
    """Pool worker initializer: keeps the task, and ends the worker with its parent.

    A spawned worker holds both ends of the executor's pipes, so a parent
    killed by a signal would otherwise leave it training, or blocked on a
    pipe, for good.  `parent_process().join()` waits on a pipe that only
    the parent holds open, so it returns however the parent ends.
    """
    global _worker_task
    _worker_task = (fn, np_errors)
    parent = multiprocessing.parent_process()

    def watch() -> None:
        parent.join()
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def _call_recording_warnings(item):
    """Runs fn(item) in a pool worker under the caller's numpy error state.

    Returns the result and every warning the call issued as (text,
    category) pairs, so the caller's own warning filters decide which of
    them to show.
    """
    fn, np_errors = _worker_task
    with warnings.catch_warnings(record=True) as caught, np.errstate(**np_errors):
        warnings.simplefilter("always")
        result = fn(item)
    return result, [(str(w.message), w.category) for w in caught]


def map_on_cores(fn, items) -> Iterator:
    """Lazily yields fn(item) for item in items, in item order, the calls spread over the cores.

    Nothing runs until the first result is asked for; `items` is then
    read into a list.  The calls run in min(available cores, len(items))
    spawned worker processes, or in this process, one per result asked
    for, when that is one.  `fn` and the items must pickle, and each
    call's result may depend only on its item, so the results are the
    same either way.  `fn` is sent to each worker once, as it starts, and
    each task carries only its item.  At most 2 x workers tasks are in
    flight: a task is submitted as each result is yielded, so the results
    held here are the window's, however slowly they are consumed.
    Each worker runs one BLAS thread.  Warnings a worker's call issues
    are issued again here, as its result is yielded.  A call that raises
    raises here once the results before it have been yielded; when
    several do, the first in item order.  A worker process that dies
    raises BrokenProcessPool.  However the iteration ends (exhausted,
    raising, or closed early), the pool's processes have exited before
    control leaves the iterator.
    """
    items = list(items)
    workers = min(_available_cores(), len(items))
    if workers <= 1:
        yield from map(fn, items)
        return
    spawn = multiprocessing.get_context("spawn")
    pool = ProcessPoolExecutor(workers, mp_context=spawn, initializer=_start_worker,
                               initargs=(fn, np.geterr()))
    try:
        submits = (pool.submit(_call_recording_warnings, item) for item in items)
        # spawned workers read the environment when they start, and each
        # submit starts at most one: all of them start in the first window
        with _single_blas_thread_env():
            window = collections.deque(itertools.islice(submits, 2 * workers))
            # the executor starts watching a new worker for death when a submit
            # wakes it, so a no-op follows the submit that may have started one
            pool.submit(int)
        while window:
            result, caught = window.popleft().result()
            window.extend(itertools.islice(submits, 1))
            for message, category in caught:
                warnings.warn(message, category)
            yield result
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
