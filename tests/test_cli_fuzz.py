"""Seeded fuzzing of the command line.

Argument vectors for all seven commands are drawn from `build_parser()`'s
own choices, types and bounds: valid, boundary and invalid values, with
options left out or given, and sizes kept small.  Every run must exit 0,
1 or 2 with no traceback on stderr, and a run that fails must leave its
output directory as it was.
"""
import argparse
import os
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from uqeval.cli import build_parser, run
from uqeval.datasets import DatasetKind, Split, generate
from uqeval.predictors import TrainConfig, save_ensemble, train_ensemble

SMALL_ABOVE_BOUND = 3  # counts are drawn from their bound - 1 up to this far above it


def _commands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _lowest_accepted(parse) -> int:
    """The bound of a count option: the least int its `type=` takes."""
    for value in range(-4, 4):
        try:
            parse(str(value))
            return value
        except argparse.ArgumentTypeError:
            pass
    raise AssertionError(f"{parse} takes no small int")


def _values(action: argparse.Action, paths: dict[str, str], valid: bool) -> st.SearchStrategy[str]:
    """Text for one option that its parser takes (`valid`) or refuses or the command rejects."""
    if action.choices is not None:
        return st.sampled_from(sorted(action.choices) if valid else ["bogus", ""])
    junk = st.sampled_from(["", "ten", "1.5", "0x10", "--n"])
    if action.type is int:  # seeds: any int, even past 64 bits
        return st.integers(-2**70, 2**70).map(str) if valid else junk
    if action.type is float:
        if valid:
            return st.floats(-1.5, 1.5).map(repr) | st.sampled_from(["-1", "0", "1", "1e-3"])
        return st.floats().map(repr) | junk
    if action.type is not None:  # a count: from its bound to a little above, or one below
        low = _lowest_accepted(action.type)
        return st.integers(low, low + SMALL_ABOVE_BOUND).map(str) if valid else (
            st.just(str(low - 1)) | junk)
    if action.dest == "out":
        return st.just(paths["out"]) if valid else st.sampled_from(
            [paths["dir"], paths["missing_dir"], ""])
    assert action.dest == "model_path", action.dest
    return st.just(paths["model"]) if valid else st.sampled_from(
        [paths["missing_model"], paths["not_a_model"], paths["dir"]])


@st.composite
def argvs(draw, paths: dict[str, str]) -> list[str]:
    command, parser = draw(st.sampled_from(sorted(_commands().items())))
    argv = [command]
    for action in parser._actions:
        if not action.option_strings or action.dest == "help":
            continue
        # Counts are always given, so that no run is as large as a default;
        # required options nearly always, and a model file nearly always with
        # the ensemble and nearly never without.  One value in ten is a bad one.
        counted = action.type not in (None, int, float)
        if action.dest == "model_path":
            given = ("ensemble" in argv) == (draw(st.integers(0, 9)) > 0)
        else:
            given = counted or draw(st.integers(0, 9)) < (9 if action.required else 5)
        if given:
            valid = draw(st.integers(0, 9)) > 0
            argv += [action.option_strings[0], draw(_values(action, paths, valid))]
    return argv


@pytest.fixture(scope="module")
def model_path(tmp_path_factory) -> str:
    """A one-member, one-epoch model: the cheapest file `--model-path` can load."""
    path = tmp_path_factory.mktemp("fuzz-model") / "de.npz"
    train = generate(DatasetKind.HOMOSCEDASTIC, Split.TRAIN, 64, 0)
    save_ensemble(train_ensemble(train, TrainConfig(ensemble_size=1, epochs=1)), path)
    return str(path)


def _listing(directory: str) -> list[tuple[str, int, int]]:
    return sorted((entry.name, entry.stat().st_size, entry.stat().st_mtime_ns)
                  for entry in os.scandir(directory))


@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(data=st.data())
def test_any_argv_exits_0_1_or_2_cleanly(capfd, model_path, data) -> None:
    with tempfile.TemporaryDirectory() as work:
        paths = {
            "dir": work,
            "out": os.path.join(work, "out.csv"),
            "missing_dir": os.path.join(work, "missing", "out.csv"),
            "model": model_path,
            "missing_model": os.path.join(work, "missing.npz"),
            "not_a_model": os.path.join(work, "model.txt"),
        }
        with open(paths["not_a_model"], "w") as fh:
            fh.write("not a model\n")
        argv = data.draw(argvs(paths), label="argv")
        before = _listing(work)
        capfd.readouterr()
        code = run(argv)
        err = capfd.readouterr().err
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err, (argv, err)
        if code != 0:
            assert err.strip(), argv
            assert _listing(work) == before, (argv, err)
