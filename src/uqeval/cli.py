"""Command line interface.

Subcommands: generate, train, eval, stability, bias, sparsify,
density-grid.  Exit codes: 0 on success, 1 on usage errors (with usage
text on stderr), 2 on runtime failures.  Every run emits a RunManifest:
written next to the artifact as <out>.manifest.json, or to stderr when
the result goes to stdout.  Its parameters are every option as resolved
(defaults included), minus --out, plus model_sha256 for a loaded model
and train's fixed recipe, so config_hash differs whenever any flag does.
Artifacts and manifests are written to a temp file and renamed into
place, so a failed run leaves no partial file; an --out that is empty,
a directory, or in a missing directory fails before the command runs.
"""
from __future__ import annotations

import argparse
import contextlib
import errno
import os
import re
import sys
from collections.abc import Generator, Iterable
from dataclasses import asdict

import numpy as np

from .datasets import DatasetKind, Split, dataset_csv, generate
from .metrics import EvalConfig, RankTieMode, REPORT_HEADER, WeightMode, evaluate
from .network import LEARNING_RATE
from .experiments import (
    DEFAULT_REPLICATES,
    bias_experiment,
    convergence_experiment,
    density_grid_csv,
    make_manifest,
    sha256_file,
    sparsification_csv,
)
from .predictors import (
    TrainConfig,
    TrueDistributionPredictor,
    load_ensemble,
    make_records,
    save_ensemble,
    train_ensemble,
)

DEFAULT_TRAIN_N = 10_000
DEFAULT_TEST_N = 2**16


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes "-1" and "-0.001" for numbers but "-1e-3" for an option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        raise UsageError(f"{self.format_usage()}error: {message}")


def _int_at_least(low: int):
    """argparse `type=` for an int no smaller than `low`; a bad value is a usage error."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_DEFAULTS = EvalConfig()
_DEFAULT_CONVENTIONS = (f"Scored with eval's default conventions: {_DEFAULTS.thresholds} "
                        f"thresholds, {_DEFAULTS.weight_mode.value} weights, "
                        f"{_DEFAULTS.rank_tie_mode.value} rank ties.")


def _add_eval_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--thresholds", type=_int_at_least(2), default=_DEFAULTS.thresholds,
                        metavar="M", help="number of evenly spaced calibration levels "
                                          f"in [0, 1] (default {_DEFAULTS.thresholds})")
    parser.add_argument("--weights", choices=[m.value for m in WeightMode],
                        default=_DEFAULTS.weight_mode.value, help="calibration weighting")
    parser.add_argument("--tie-mode", choices=[m.value for m in RankTieMode],
                        default=_DEFAULTS.rank_tie_mode.value, help="rank tie handling")


def _add_predictor_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--predictor", choices=["oracle", "ensemble"], default="oracle")
    parser.add_argument("--model-path", help="trained model file (ensemble only; required there)")


def build_parser() -> _Parser:
    parser = _Parser(prog="uqeval", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    kinds = [k.value for k in DatasetKind]

    p = sub.add_parser("generate", help="write a dataset CSV")
    p.add_argument("--dataset", choices=kinds, required=True)
    p.add_argument("--split", choices=[s.value for s in Split], default=Split.TEST.value)
    p.add_argument("--n", type=_int_at_least(0), default=None,
                   help=f"sample count (default {DEFAULT_TRAIN_N} train, {DEFAULT_TEST_N} test)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train", help="train a deep ensemble and save it")
    p.add_argument("--dataset", choices=kinds, required=True)
    p.add_argument("--n", type=_int_at_least(1), default=DEFAULT_TRAIN_N)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="metric report for one predictor on one test set")
    p.add_argument("--dataset", choices=kinds, required=True)
    p.add_argument("--n", type=_int_at_least(1), default=DEFAULT_TEST_N)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="report CSV path (default: print to stdout)")
    _add_predictor_flags(p)
    _add_eval_flags(p)

    p = sub.add_parser("stability", help="convergence study on nested test subsets",
                       description=_DEFAULT_CONVENTIONS)
    p.add_argument("--dataset", choices=kinds, default=DatasetKind.HETEROSCEDASTIC.value)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_predictor_flags(p)

    p = sub.add_parser("bias", help="replicate-mean study across test set sizes",
                       description=_DEFAULT_CONVENTIONS)
    p.add_argument("--dataset", choices=kinds, default=DatasetKind.HETEROSCEDASTIC.value)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--replicates", type=_int_at_least(1), default=DEFAULT_REPLICATES)
    p.add_argument("--out", required=True)
    _add_predictor_flags(p)

    p = sub.add_parser("sparsify", help="write sparsification curve CSV",
                       description="The curves use none of eval's scoring conventions.")
    p.add_argument("--dataset", choices=kinds, required=True)
    p.add_argument("--n", type=_int_at_least(1), default=DEFAULT_TEST_N)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_predictor_flags(p)

    p = sub.add_parser("density-grid", help="write log predictive density grid CSV")
    p.add_argument("--dataset", choices=kinds, required=True)
    p.add_argument("--x-min", type=float, default=None)
    p.add_argument("--x-max", type=float, default=None)
    p.add_argument("--y-min", type=float, default=-2.0)
    p.add_argument("--y-max", type=float, default=2.0)
    p.add_argument("--nx", type=_int_at_least(1), default=200)
    p.add_argument("--ny", type=_int_at_least(1), default=200)
    p.add_argument("--out", required=True)
    _add_predictor_flags(p)

    return parser


def _predictor(args):
    """The predictor `args` names; a loaded model's SHA-256 goes onto `args` for the manifest."""
    if args.predictor == "oracle":
        if args.model_path is not None:
            raise UsageError("error: --model-path is read only with --predictor ensemble")
        return TrueDistributionPredictor(DatasetKind(args.dataset))
    if not args.model_path:
        raise UsageError("error: --model-path is required with --predictor ensemble")
    predictor = load_ensemble(args.model_path)
    args.model_sha256 = sha256_file(args.model_path)
    return predictor


def _check_out(path: str) -> None:
    """Raises OSError naming the path when `path` or its manifest cannot be made, before a command's work."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, "--out is a directory", path)
    if not path or not os.path.isdir(os.path.dirname(path) or os.curdir):
        raise FileNotFoundError(errno.ENOENT, "--out names no file in an existing directory", path)
    if os.path.isdir(f"{path}.manifest.json"):
        raise IsADirectoryError(errno.EISDIR, "the manifest is a directory", f"{path}.manifest.json")


def _replace_atomically(path: str, write) -> None:
    """Calls `write(tmp)` on a fresh file next to `path`, then renames it onto `path`.

    A failure anywhere leaves `path` as it was and removes the temp file;
    an OSError on the temp file is re-raised naming `path`.
    """
    directory, name = os.path.split(path)
    tmp = os.path.join(directory, f".{name}.{os.getpid()}.tmp")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename == tmp:
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _write_text(path: str, chunks: Iterable[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(chunks)


def _emit(args, argv: list[str], output) -> None:
    """Writes a command's output, text chunks or a `write(path)` function, and its manifest.

    The manifest parameters are every option in `args` that is set, as the
    handler resolved it, except `command` and `out`.  With `--out` the
    artifact and then `<out>.manifest.json` are written atomically;
    without it the chunks go to stdout and the manifest to stderr.
    Chunks from a generator are closed once written or once writing them
    fails, which ends any worker pool still formatting them.
    """
    params = {key: value for key, value in vars(args).items()
              if key not in ("command", "out") and value is not None}
    try:
        if args.out is None:
            sys.stdout.writelines(output)
        else:
            write = output if callable(output) else lambda tmp: _write_text(tmp, output)
            _replace_atomically(args.out, write)
    finally:
        if isinstance(output, Generator):
            output.close()
    if args.out is None:
        sys.stderr.write(make_manifest(args.command, argv, params, []).to_json())
        return
    manifest = make_manifest(args.command, argv, params, [args.out])
    _replace_atomically(f"{args.out}.manifest.json", lambda tmp: _write_text(tmp, [manifest.to_json()]))


def _cmd_generate(args) -> Iterable[str]:
    split = Split(args.split)
    if args.n is None:
        args.n = DEFAULT_TRAIN_N if split is Split.TRAIN else DEFAULT_TEST_N
    return dataset_csv(generate(DatasetKind(args.dataset), split, args.n, args.seed))


def _cmd_train(args):
    data = generate(DatasetKind(args.dataset), Split.TRAIN, args.n, args.seed)
    config = TrainConfig(seed=args.seed)
    predictor = train_ensemble(data, config)
    vars(args).update(asdict(config), learning_rate=LEARNING_RATE)
    return lambda path: save_ensemble(predictor, path)


def _cmd_eval(args) -> Iterable[str]:
    kind = DatasetKind(args.dataset)
    predictor = _predictor(args)
    config = EvalConfig(args.thresholds, args.weights, args.tie_mode)
    # the test set is freed once scored, so the metrics run beside the records alone
    records = make_records(predictor, generate(kind, Split.TEST, args.n, args.seed))
    report = evaluate(records, config)
    return [f"{REPORT_HEADER}\n{report.csv_row(kind.value, args.predictor)}\n"]


def _cmd_stability(args) -> Iterable[str]:
    result = convergence_experiment(_predictor(args), DatasetKind(args.dataset), args.seed)
    return [result.to_csv()]


def _cmd_bias(args) -> Iterable[str]:
    result = bias_experiment(_predictor(args), DatasetKind(args.dataset), args.seed,
                             replicates=args.replicates)
    return [result.to_csv(mean_prefix=True)]


def _cmd_sparsify(args) -> Iterable[str]:
    return sparsification_csv(_predictor(args), DatasetKind(args.dataset), args.seed, args.n)


def _cmd_density_grid(args) -> Iterable[str]:
    kind = DatasetKind(args.dataset)
    predictor = _predictor(args)
    lo, hi = kind.domain
    x_min = args.x_min = lo if args.x_min is None else args.x_min
    x_max = args.x_max = hi if args.x_max is None else args.x_max
    if args.predictor == "oracle" and not (lo <= x_min and x_max <= hi):
        raise UsageError(f"error: the {kind.value} oracle is defined on [{lo}, {hi}] only, "
                         f"got --x-min {x_min} --x-max {x_max}")
    if x_min >= x_max or args.y_min >= args.y_max:
        raise UsageError("error: empty density grid")
    try:  # a non-finite grid or density is the usage error below, not numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            xs = np.linspace(x_min, x_max, args.nx)
            ys = np.linspace(args.y_min, args.y_max, args.ny)
            return density_grid_csv(predictor, xs, ys)
    except ValueError as exc:  # non-finite or overflowing bounds, or values far outside the data
        raise UsageError(f"error: the log predictive density is not finite on --x-min {x_min} "
                         f"--x-max {x_max} --y-min {args.y_min} --y-max {args.y_max} ({exc})") from exc


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "eval": _cmd_eval,
    "stability": _cmd_stability,
    "bias": _cmd_bias,
    "sparsify": _cmd_sparsify,
    "density-grid": _cmd_density_grid,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError(f"{parser.format_usage()}error: a command is required")
        if args.out is not None:
            _check_out(args.out)
        _emit(args, argv, _COMMANDS[args.command](args))
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
