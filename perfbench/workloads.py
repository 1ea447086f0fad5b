"""The benchmark's workloads: the CLI commands each one runs and the artifacts they must leave.

Every command runs in its own working directory with relative output
paths, so the run manifests (which record argv and output paths) are
byte-identical from run to run and can be hashed.
"""
from __future__ import annotations

from dataclasses import dataclass

NAMES = ("train", "eval-ensemble", "bias", "oracle-1m")

# Sizes of the timed commands.  `train` is the default 10k-sample command
# at a fifth of its length (the cost of one optimizer step does not depend
# on --n); the others are the CLI defaults or the stated 2^20 size.
TRAIN_N = 2048
SETUP_TRAIN_N = 256
EVAL_ENSEMBLE_N = 2**16
BIAS_REPLICATES = 100
BIAS_SIZES = tuple(2**k for k in range(3, 17))
ORACLE_N = 2**20

# Ensemble training configuration the CLI uses (TrainConfig defaults).
ENSEMBLE_SIZE = 5
EPOCHS = 20
BATCH_SIZE = 128
RECORD_FIELDS = 5  # EvaluationRecords arrays, float64 each

REPORT_HEADER = "dataset,predictor,ause,ce,spearman,nll"
BIAS_HEADER = "test_size,mean_ause,mean_spearman,mean_nll,mean_ece"
SPARSIFY_HEADER = "fraction,oracle,sparsification"


@dataclass(frozen=True)
class Artifact:
    """One file a command writes, with what its content must look like.

    kind is "csv" (header, row count, finite numeric cells after
    `text_columns` leading text cells), "npz" (loads with
    uqeval.predictors.load_ensemble, finite parameters) or "manifest"
    (JSON run manifest whose output hash matches `of`).
    """

    path: str
    kind: str
    header: str = ""
    rows: int = 0
    text_columns: int = 0
    of: str = ""


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    artifacts: tuple[Artifact, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    item: str
    items: int
    setup: tuple[Command, ...]
    timed: tuple[Command, ...]
    largest_arrays_bytes: dict


EVAL_CSV = Artifact("eval.csv", "csv", REPORT_HEADER, rows=1, text_columns=2)


def _with_manifest(argv: list, *artifacts: Artifact) -> Command:
    out = artifacts[0].path
    manifest = Artifact(f"{out}.manifest.json", "manifest", of=out)
    return Command(tuple(str(a) for a in argv), tuple(artifacts) + (manifest,))


def _model(out: str, dataset: str, n: int, seed: int) -> Command:
    argv = ["train", "--dataset", dataset, "--n", n, "--seed", seed, "--out", out]
    return _with_manifest(argv, Artifact(out, "npz"))


def _params_per_member(layer_sizes) -> int:
    return sum(i * o + o for i, o in zip(layer_sizes[:-1], layer_sizes[1:]))


def build(name: str, seed: int, layer_sizes) -> Workload:
    """The workload `name` at workload seed `seed`; KeyError if unknown."""
    hidden = sum(layer_sizes[1:-1])
    if name == "train":
        steps = ENSEMBLE_SIZE * EPOCHS * -(-TRAIN_N // BATCH_SIZE)
        return Workload(
            name, "optimizer step", steps, setup=(),
            timed=(_model("model.npz", "homoscedastic", TRAIN_N, seed),),
            largest_arrays_bytes={
                "train_set_xy": 2 * 8 * TRAIN_N,
                "params_per_member": 8 * _params_per_member(layer_sizes),
                "adam_state_per_member": 2 * 8 * _params_per_member(layer_sizes),
                "activations_per_batch": 8 * BATCH_SIZE * (1 + hidden),
            },
        )
    if name == "eval-ensemble":
        argv = ["eval", "--dataset", "heteroscedastic", "--predictor", "ensemble",
                "--model-path", "../setup/model.npz", "--n", EVAL_ENSEMBLE_N,
                "--seed", seed, "--out", "eval.csv"]
        return Workload(
            name, "test sample scored", EVAL_ENSEMBLE_N,
            setup=(_model("model.npz", "heteroscedastic", SETUP_TRAIN_N, seed),),
            timed=(_with_manifest(argv, EVAL_CSV),),
            largest_arrays_bytes={
                "records": RECORD_FIELDS * 8 * EVAL_ENSEMBLE_N,
                "forward_activations_per_member": 8 * EVAL_ENSEMBLE_N * (1 + hidden),
            },
        )
    if name == "bias":
        argv = ["bias", "--dataset", "heteroscedastic", "--predictor", "oracle",
                "--replicates", BIAS_REPLICATES, "--seed", seed, "--out", "bias.csv"]
        bias_csv = Artifact("bias.csv", "csv", BIAS_HEADER, rows=len(BIAS_SIZES))
        return Workload(
            name, "sample scored", BIAS_REPLICATES * sum(BIAS_SIZES), setup=(),
            timed=(_with_manifest(argv, bias_csv),),
            largest_arrays_bytes={"records_at_largest_size": RECORD_FIELDS * 8 * max(BIAS_SIZES)},
        )
    if name == "oracle-1m":
        common = ["--dataset", "multimodal", "--predictor", "oracle",
                  "--n", ORACLE_N, "--seed", seed]
        sparsify_csv = Artifact("sparsify.csv", "csv", SPARSIFY_HEADER, rows=ORACLE_N)
        return Workload(
            name, "sample scored", 2 * ORACLE_N, setup=(),
            timed=(
                _with_manifest(["eval", *common, "--out", "eval.csv"], EVAL_CSV),
                _with_manifest(["sparsify", *common, "--out", "sparsify.csv"], sparsify_csv),
            ),
            largest_arrays_bytes={
                "records": RECORD_FIELDS * 8 * ORACLE_N,
                "mixture_component_params": 2 * 2 * 8 * ORACLE_N,
            },
        )
    raise KeyError(name)
