import math
import multiprocessing
import warnings
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import numpy as np
import pytest

from uqeval import cores
from uqeval.cores import map_on_cores


@pytest.mark.parametrize("ncores", [1, 3])
def test_map_on_cores_returns_results_in_item_order(monkeypatch, ncores) -> None:
    monkeypatch.setattr(cores, "_available_cores", lambda: ncores)
    items = [3.0, -1.5, 0.25, 7.0, 2.0]
    assert list(map_on_cores(abs, items)) == [abs(x) for x in items]
    assert list(map_on_cores(abs, [])) == []


def test_map_on_cores_issues_worker_warnings_in_the_caller(monkeypatch) -> None:
    monkeypatch.setattr(cores, "_available_cores", lambda: 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert list(map_on_cores(warnings.warn, ["first", "second", "third"])) == [None] * 3
    assert [(str(w.message), w.category) for w in caught] == [
        ("first", UserWarning), ("second", UserWarning), ("third", UserWarning)]
    # the caller's filters apply to them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UserWarning, match="first"):
            list(map_on_cores(warnings.warn, ["first", "second"]))


def test_map_on_cores_calls_run_under_the_callers_numpy_error_state(monkeypatch) -> None:
    monkeypatch.setattr(cores, "_available_cores", lambda: 2)
    with pytest.warns(RuntimeWarning, match="overflow encountered in exp"):
        assert list(map_on_cores(np.exp, [1000.0, 0.0])) == [np.inf, 1.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            assert list(map_on_cores(np.exp, [1000.0, 0.0])) == [np.inf, 1.0]


class PickleCountingAbs:
    """abs, counting in this process how often it is pickled."""

    pickled = 0

    def __call__(self, x):
        return abs(x)

    def __reduce__(self):
        type(self).pickled += 1
        return partial, (abs,)  # a worker rebuilds it without importing this module


def test_map_on_cores_sends_fn_to_each_worker_once(monkeypatch) -> None:
    monkeypatch.setattr(cores, "_available_cores", lambda: 2)
    monkeypatch.setattr(PickleCountingAbs, "pickled", 0)
    items = [3.0, -1.5, 0.25, 7.0, -2.0, 5.0]
    assert list(map_on_cores(PickleCountingAbs(), items)) == [abs(x) for x in items]
    assert 1 <= PickleCountingAbs.pickled <= 2


@pytest.mark.parametrize("ncores", [1, 2])
def test_map_on_cores_runs_nothing_until_a_result_is_asked_for(monkeypatch, ncores) -> None:
    monkeypatch.setattr(cores, "_available_cores", lambda: ncores)
    read = []

    def items():
        read.append(True)
        yield from [1.0, -2.0]

    results = map_on_cores(abs, items())
    assert read == [] and multiprocessing.active_children() == []
    assert next(results) == 1.0
    assert read == [True]
    results.close()


class CountingPool(ProcessPoolExecutor):
    """A process pool counting the tasks submitted to it, the no-op `int` aside."""

    tasks = 0

    def submit(self, fn, *args, **kwargs):
        if fn is not int:
            type(self).tasks += 1
        return super().submit(fn, *args, **kwargs)


def test_map_on_cores_keeps_at_most_two_tasks_per_worker_in_flight(monkeypatch) -> None:
    monkeypatch.setattr(cores, "_available_cores", lambda: 2)
    monkeypatch.setattr(cores, "ProcessPoolExecutor", CountingPool)
    monkeypatch.setattr(CountingPool, "tasks", 0)
    items = [float(-i) for i in range(12)]
    results = map_on_cores(abs, items)
    for yielded, result in enumerate(results, start=1):
        assert result == float(yielded - 1)
        in_flight = CountingPool.tasks - yielded
        assert in_flight == min(2 * 2, len(items) - yielded), (yielded, CountingPool.tasks)
    assert CountingPool.tasks == len(items)


def test_closing_map_on_cores_early_ends_its_workers(monkeypatch) -> None:
    monkeypatch.setattr(cores, "_available_cores", lambda: 2)
    results = map_on_cores(abs, [float(-i) for i in range(40)])
    assert next(results) == 0.0
    assert len(multiprocessing.active_children()) == 2
    results.close()
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("ncores", [1, 2])
def test_a_raising_call_raises_after_the_results_before_it(monkeypatch, ncores) -> None:
    # math.sqrt raises ValueError on the third item, with later tasks in flight
    monkeypatch.setattr(cores, "_available_cores", lambda: ncores)
    got = []
    with pytest.raises(ValueError, match="math domain error"):
        for result in map_on_cores(math.sqrt, [1.0, 4.0, -1.0, 9.0, -4.0, 16.0, 25.0]):
            got.append(result)
    assert got == [1.0, 2.0]
    assert multiprocessing.active_children() == []
