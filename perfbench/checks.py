"""Artifact checks: every file a timed command writes must parse and be well-formed.

Each check returns a list of problems; an empty list means the artifact
passed.  A repetition with any problem counts as a failed run.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _check_csv(path: Path, art) -> list[str]:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return [f"{art.path}: not UTF-8 text"]
    header, _, body = text.partition("\n")
    width = art.header.count(",") + 1
    if header != art.header:
        return [f"{art.path}: header {header!r}, expected {art.header!r}"]
    if body.count("\n") != art.rows or not body.endswith("\n"):
        return [f"{art.path}: expected {art.rows} newline-terminated rows"]
    if body.count(",") != art.rows * (width - 1) or ",," in body or "\n," in body:
        return [f"{art.path}: rows do not all have {width} non-empty cells"]
    try:
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2,
                            usecols=range(art.text_columns, width))
    except ValueError as exc:
        return [f"{art.path}: non-numeric cell: {exc}"]
    if not np.all(np.isfinite(values)):
        return [f"{art.path}: non-finite value"]
    return []


def _check_npz(path: Path, art) -> list[str]:
    from uqeval.predictors import load_ensemble  # importable once run.py put src/ on sys.path

    try:
        model = load_ensemble(path)
    except Exception as exc:  # any way a damaged archive fails to load is a failed check
        return [f"{art.path}: load_ensemble failed: {exc!r}"]
    arrays = [a for m in model.members for a in (*m.weights, *m.biases)]
    history = np.asarray(model.history, dtype=np.float64)
    problems = []
    if len(model.members) != model.config.ensemble_size:
        problems.append(f"{art.path}: {len(model.members)} members")
    if history.shape != (model.config.ensemble_size, model.config.epochs):
        problems.append(f"{art.path}: history shape {history.shape}")
    if not all(np.all(np.isfinite(a)) for a in arrays) or not np.all(np.isfinite(history)):
        problems.append(f"{art.path}: non-finite parameters or history")
    return problems


def _check_manifest(path: Path, art, argv) -> list[str]:
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"{art.path}: not JSON: {exc}"]
    target = path.parent / art.of
    expected = [{"path": art.of, "sha256": sha256(target) if target.exists() else None}]
    problems = []
    if manifest.get("command") != argv[0] or manifest.get("argv") != list(argv):
        problems.append(f"{art.path}: command or argv differ from the run")
    if manifest.get("outputs") != expected:
        problems.append(f"{art.path}: outputs {manifest.get('outputs')} != {expected}")
    return problems


def check(art, cwd: Path, argv) -> list[str]:
    """Problems with the existing artifact `art` written by the command `argv` in `cwd`."""
    path = cwd / art.path
    if art.kind == "csv":
        return _check_csv(path, art)
    if art.kind == "npz":
        return _check_npz(path, art)
    return _check_manifest(path, art, argv)
