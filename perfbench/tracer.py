"""Outside-in span tracing of uqeval's public functions, for the traced pass.

`install()` wraps each target function in every `uqeval.*` namespace that
binds that function object (for example `experiments` imports `ause` by
name, and `uqeval/__init__` re-exports most names), and wraps the
`Gaussian`/`GaussianMixture` methods on their classes.  Wrappers take any
signature.  A target that no longer exists is reported as absent; it does
not fail the run.  Spans stay in memory and are written once, by `dump`.

`summarize()` turns the spans of one traced repetition (one file per CLI
process) into the per-layer metrics.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import sys
import time

# (span name, module, attribute path)
TARGETS = (
    ("cli.run", "uqeval.cli", "run"),
    ("datasets.generate", "uqeval.datasets", "generate"),
    ("distributions.gaussian_log_density", "uqeval.distributions", "Gaussian.log_density"),
    ("distributions.gaussian_cdf", "uqeval.distributions", "Gaussian.cdf"),
    ("distributions.mixture_log_density", "uqeval.distributions", "GaussianMixture.log_density"),
    ("distributions.mixture_cdf", "uqeval.distributions", "GaussianMixture.cdf"),
    ("distributions.moment_match", "uqeval.distributions", "moment_match"),
    ("network.forward", "uqeval.network", "forward"),
    ("network.loss_and_grads", "uqeval.network", "loss_and_grads"),
    ("network.adam_step", "uqeval.network", "adam_step"),
    ("predictors.train_ensemble", "uqeval.predictors", "train_ensemble"),
    ("predictors.make_records", "uqeval.predictors", "make_records"),
    ("predictors.save_ensemble", "uqeval.predictors", "save_ensemble"),
    ("predictors.load_ensemble", "uqeval.predictors", "load_ensemble"),
    ("metrics.ause", "uqeval.metrics", "ause"),
    ("metrics.sparsification_curve", "uqeval.metrics", "sparsification_curve"),
    ("metrics.spearman", "uqeval.metrics", "spearman"),
    ("metrics.calibration_error", "uqeval.metrics", "calibration_error"),
    ("metrics.nll", "uqeval.metrics", "nll"),
    ("experiments.guarded_report", "uqeval.experiments", "guarded_report"),
    ("experiments.bias_experiment", "uqeval.experiments", "bias_experiment"),
    ("experiments.sparsification_csv", "uqeval.experiments", "sparsification_csv"),
    ("experiments.make_manifest", "uqeval.experiments", "make_manifest"),
)


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _rows(args, kwargs, result):
    return int(getattr(_arg(args, kwargs, 1, "x"), "size", 1))


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


def _nan_fields(args, kwargs, result):
    return sum(
        1 for f in dataclasses.fields(result)
        if isinstance(getattr(result, f.name), float) and math.isnan(getattr(result, f.name))
    )


# Quantities recorded on a span after the call returns, keyed by span name.
MEASURES = {
    "network.forward": _rows,
    "network.loss_and_grads": _rows,
    "predictors.save_ensemble": _file_bytes,
    "experiments.guarded_report": _nan_fields,
}


class Trace:
    def __init__(self):
        # span: [name, start, end, parent index or -1, measured quantity or None]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.absent: list[str] = []

    def wrap(self, name, fn):
        spans, stack, measure = self.spans, self._stack, MEASURES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure is not None:
                try:
                    span[4] = measure(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError):
                    pass
            return result

        return wrapper

    def dump(self, path, import_s: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "absent": self.absent, "spans": self.spans}, fh)


def _uqeval_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "uqeval" or name.startswith("uqeval."))]


def install() -> Trace:
    """Wrap every target; call after `import uqeval.cli`."""
    trace = Trace()
    modules = _uqeval_modules()
    for name, module_name, attr in TARGETS:
        owner = sys.modules.get(module_name)
        *outer, leaf = attr.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        fn = vars(owner).get(leaf) if owner is not None else None
        if not callable(fn):
            trace.absent.append(name)
            continue
        wrapper = trace.wrap(name, fn)
        if outer:
            setattr(owner, leaf, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
    return trace


# ----------------------------------------------------------------- summary

def _span_stats(dumps):
    """Per span name: calls, busy seconds, self seconds, sum of measured quantities."""
    stats: dict[str, dict] = {}
    for dump in dumps:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, measured) in enumerate(spans):
            s = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "measured": 0})
            s["calls"] += 1
            s["s"] += end - start
            s["self_s"] += end - start - child[i]
            s["measured"] += measured or 0
    return stats


def summarize(dumps, layer_sizes, artifact_bytes: int) -> tuple[dict, list]:
    """Per-layer metrics of one traced repetition, and the absent targets."""
    stats = _span_stats(dumps)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0, "measured": 0}

    def get(name):
        return stats.get(name, zero)

    macs = sum(i * o for i, o in zip(layer_sizes[:-1], layer_sizes[1:]))

    def gflop_per_s(name, flops_per_row):
        s = get(name)
        return flops_per_row * s["measured"] / s["s"] / 1e9 if s["s"] > 0 else 0.0

    # Artifact I/O: the CLI's own time outside every traced call (text
    # formatting, file writes, model hashing), plus manifest hashing,
    # the sparsification CSV formatting and the model save.
    emit_s = (get("cli.run")["self_s"] + get("experiments.make_manifest")["s"]
              + get("experiments.sparsification_csv")["self_s"]
              + get("predictors.save_ensemble")["s"])

    out = {"cli.import_s": sum(d["import_s"] for d in dumps)}
    for name, _, _ in TARGETS:
        for key in ("calls", "s", "self_s"):
            out[f"{name}.{key}"] = get(name)[key]
    # computed operation counts: 2 flops per multiply-add of each layer's
    # matmul; forward plus backward counted as 3 forwards
    out["network.forward.rows"] = get("network.forward")["measured"]
    out["network.forward.gflop_per_s"] = gflop_per_s("network.forward", 2 * macs)
    out["network.loss_and_grads.gflop_per_s"] = gflop_per_s("network.loss_and_grads", 3 * 2 * macs)
    out["predictors.save_ensemble.bytes"] = get("predictors.save_ensemble")["measured"]
    out["experiments.undefined_metrics"] = get("experiments.guarded_report")["measured"]
    out["artifact.bytes"] = artifact_bytes
    out["artifact.mb_per_s"] = artifact_bytes / 1e6 / emit_s if emit_s > 0 else 0.0
    absent = sorted({name for d in dumps for name in d["absent"]})
    return out, absent
