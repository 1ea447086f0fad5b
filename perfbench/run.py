"""Benchmark of the uqeval CLI, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --check-threads [--workload NAME] [--seed N]
    python3 perfbench/run.py --write-reference

Run from the repository root.  Each CLI command runs in a fresh worker
process (perfbench/worker.py) that imports `uqeval` from `src/`, one
worker at a time, with the BLAS thread count set explicitly.  Every
artifact is checked after every repetition; a repetition fails on a
non-zero exit or any failed check.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are BENCHMARK.json's end_to_end metrics, with
--trace 1 its per_layer metrics.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKER = Path(__file__).resolve().parent / "worker.py"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORK = ROOT / ".bench_work"

SETUP_REPS = 3  # set-up is repeated and its median reported
MIN_REPS = 2  # timed repetitions per untraced run, whatever --seconds says
RUN_LIMIT_S = 170.0  # a run stops starting workers after this and kills one still running
REFERENCE_SEEDS = (0, 1009)  # the default seed and one held-out seed
WARM_UP = ("--help",)  # interpreter start and `import uqeval.cli`, run before every set-up


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ----------------------------------------------------------------- workers

@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    cpu_s: float
    code: int


class Runner:
    """Starts one worker at a time and stops every run at RUN_LIMIT_S."""

    def __init__(self, threads: int, limit_s: float = RUN_LIMIT_S):
        self.deadline = time.monotonic() + limit_s
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "LC_ALL": "C.UTF-8",
            "OPENBLAS_NUM_THREADS": str(threads),
            "OMP_NUM_THREADS": str(threads),
            "MKL_NUM_THREADS": str(threads),
        }

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline

    def run(self, argv, cwd: Path, spans: Path | None = None) -> Proc:
        """One CLI command; wall time includes interpreter start."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return Proc(0.0, 0.0, 0.0, -signal.SIGKILL)
        with open(cwd / "worker.log", "ab") as log:
            t0 = time.perf_counter()
            spawn = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, "-E", "-s", str(WORKER), repr(spawn),
                 str(spans) if spans else "-", *argv],
                cwd=cwd, env=self.env, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
            )
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                if proc.returncode is None and proc.poll() is None:
                    proc.kill()
                    proc.wait()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime,
                    proc.returncode)


# ----------------------------------------------------------------- repetitions

class HashBook:
    """Each artifact's hash must match the reference and every earlier repetition."""

    def __init__(self, reference: dict):
        self.expected = dict(reference)
        self.verified: set[str] = set()

    def check(self, key: str, digest: str) -> list[str]:
        expected = self.expected.setdefault(key, digest)
        if expected != digest:
            return [f"{key}: sha256 {digest[:12]}, expected {expected[:12]}"]
        return []


@dataclass
class Rep:
    wall_s: float = 0.0
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    artifact_bytes: int = 0
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


def run_rep(runner: Runner, commands, cwd: Path, book: HashBook, spans_dir: Path | None = None) -> Rep:
    """Runs the commands in a fresh `cwd`, then checks and hashes every artifact."""
    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    rep = Rep()
    for i, command in enumerate(commands):
        spans = spans_dir / f"spans-{i}.json" if spans_dir else None
        proc = runner.run(command.argv, cwd, spans)
        rep.wall_s += proc.wall_s
        rep.rss_mb = max(rep.rss_mb, proc.rss_mb)
        rep.cpu_s += proc.cpu_s
        if proc.code != 0:
            rep.problems.append(f"{command.argv[0]}: exit code {proc.code}")
            return rep
        rep.problems += verify(command, cwd, book)
    rep.artifact_bytes = sum(
        (cwd / a.path).stat().st_size for c in commands for a in c.artifacts
        if (cwd / a.path).is_file())
    return rep


def verify(command, cwd: Path, book: HashBook) -> list[str]:
    problems = []
    for art in command.artifacts:
        path = cwd / art.path
        if not path.is_file():
            problems.append(f"{art.path}: missing")
            continue
        digest = checks.sha256(path)
        # identical bytes already passed the content check
        if digest not in book.verified:
            found = checks.check(art, cwd, command.argv)
            if not found:
                book.verified.add(digest)
            problems += found
        problems += book.check(f"{command.argv[0]}:{art.path}", digest)
    return problems


def setup(runner: Runner, wl, book: HashBook) -> Rep:
    """Warm-up worker, then the workload's own set-up commands, in WORK/setup."""
    commands = (workloads.Command(WARM_UP, ()),) + wl.setup
    return run_rep(runner, commands, WORK / "setup", book)


def reference_for(name: str, seed: int) -> dict:
    table = json.loads(REFERENCE.read_text(encoding="utf-8"))
    return table.get(str(seed), {}).get(name, {})


# ----------------------------------------------------------------- environment

def _read(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def _git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit:
        return commit
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(threads: int, seed: int, wl) -> dict:
    import numpy
    import scipy

    model = next((line.split(":", 1)[1].strip()
                  for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}{'d' if kind == 'Data' else ''}"] = _read(index / "size")
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc(),
        "cpu_model": model,
        "cache_per_cpu0": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads_given_to_workers": threads},
        "git_commit": _git_commit(),
        "workload": wl.name,
        "workload_seed": seed,
        "item": wl.item,
        "items_per_run": wl.items,
        "largest_arrays_bytes": wl.largest_arrays_bytes,
    }


# ----------------------------------------------------------------- a benchmark run

def _median(values):
    return statistics.median(values) if values else 0.0


def _timed_loop(runner: Runner, seconds: float, minimum: int, body) -> None:
    """Repeats body() while the next repetition fits in `seconds`, at least `minimum` times."""
    start, durations = time.monotonic(), []
    while not runner.expired():
        elapsed = time.monotonic() - start
        if len(durations) >= minimum and elapsed + _median(durations) > seconds:
            break
        t = time.monotonic()
        if not body():
            break
        durations.append(time.monotonic() - t)


def benchmark(name: str, seed: int, seconds: float, trace: bool, threads: int) -> tuple[dict, dict]:
    """One run: set-up, then timed (or paired untraced/traced) repetitions."""
    from uqeval.network import LAYER_SIZES

    wl = workloads.build(name, seed, LAYER_SIZES)
    runner = Runner(threads)
    book = HashBook(reference_for(name, seed))
    reps: list[Rep] = []

    setups = [setup(runner, wl, book) for _ in range(SETUP_REPS)]
    reps += setups

    untraced, traced, layers = [], [], []

    def untraced_rep() -> bool:
        rep = run_rep(runner, wl.timed, WORK / "rep", book)
        untraced.append(rep)
        return rep.ok

    def pair() -> bool:
        if not untraced_rep():
            return False
        spans_dir = WORK / "spans"
        shutil.rmtree(spans_dir, ignore_errors=True)
        spans_dir.mkdir()
        rep = run_rep(runner, wl.timed, WORK / "rep", book, spans_dir)
        traced.append(rep)
        if rep.ok:
            dumps = [json.loads(p.read_text(encoding="utf-8"))
                     for p in sorted(spans_dir.glob("spans-*.json"))]
            layers.append(tracer.summarize(dumps, LAYER_SIZES, rep.artifact_bytes))
        return rep.ok

    if all(r.ok for r in setups):
        _timed_loop(runner, seconds, 1 if trace else MIN_REPS, pair if trace else untraced_rep)
    reps += untraced + traced

    wall = _median([r.wall_s for r in untraced])
    if trace:
        metrics = {key: _median([m[key] for m, _ in layers]) for key in (layers[0][0] if layers else {})}
        metrics["proc.cpu_s"] = _median([r.cpu_s for r in untraced])
        metrics["trace_overhead_s"] = _median([r.wall_s for r in traced]) - wall
        absent = sorted({a for _, found in layers for a in found})
    else:
        metrics = {
            "wall_s": wall,
            "items_per_s": wl.items / wall if wall > 0 else 0.0,
            "peak_rss_mb": _median([r.rss_mb for r in untraced]),
            "setup_s": _median([r.wall_s for r in setups]),
        }
        absent = []
    failed = [r for r in reps if not r.ok]
    detail = {
        "environment": environment(threads, seed, wl),
        "attempted": len(reps),
        "failed": len(failed),
        "error_rate": len(failed) / len(reps),
        "problems": [p for r in failed for p in r.problems][:20],
        "setup_s": [r.wall_s for r in setups],
        "untraced_wall_s": [r.wall_s for r in untraced],
        "traced_wall_s": [r.wall_s for r in traced],
        "peak_rss_mb": [r.rss_mb for r in untraced],
        "cpu_s": [r.cpu_s for r in untraced],
        "absent_hooks": absent,
        "sha256": book.expected,
        "all_metrics": metrics,
    }
    return metrics, detail


def result_line(spec_metrics, metrics: dict, detail: dict) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"error: the benchmark computes no {missing}")
    return {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in spec_metrics},
    }


# ----------------------------------------------------------------- self-checks

def hashes_once(name: str, seed: int, threads: int) -> tuple[dict, list]:
    """Artifact hashes of one set-up and one timed repetition, and any problems."""
    from uqeval.network import LAYER_SIZES

    wl = workloads.build(name, seed, LAYER_SIZES)
    runner = Runner(threads)
    book = HashBook({})
    problems = setup(runner, wl, book).problems
    if not problems:
        problems += run_rep(runner, wl.timed, WORK / "rep", book).problems
    return book.expected, problems


def check_threads(names, seed: int) -> bool:
    """Every artifact must hash the same with 1 BLAS thread and with nproc."""
    ok = True
    for name in names:
        one, p1 = hashes_once(name, seed, 1)
        many, p2 = hashes_once(name, seed, nproc())
        expected = reference_for(name, seed) or one
        same = not p1 and not p2 and one == many == expected
        ok &= same
        print(f"{name}: seed {seed}, threads 1 vs {nproc()}: "
              f"{'identical' if same else 'DIFFERENT'} ({len(one)} artifacts)"
              + "".join(f"\n  {p}" for p in p1 + p2))
    return ok


def write_reference() -> None:
    table = {}
    for seed in REFERENCE_SEEDS:
        for name in workloads.NAMES:
            hashes, problems = hashes_once(name, seed, nproc())
            if problems:
                raise SystemExit(f"error: {name} seed {seed}: {problems}")
            table.setdefault(str(seed), {})[name] = hashes
            print(f"{name} seed {seed}: {len(hashes)} artifacts")
    REFERENCE.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def self_test() -> bool:
    """A corrupted artifact and a non-zero exit must each count as a failed run."""
    runner, book = Runner(nproc()), HashBook({})
    cwd = WORK / "self-test"
    good = workloads.Command(
        ("eval", "--dataset", "heteroscedastic", "--n", "1024", "--out", "eval.csv"),
        (workloads.EVAL_CSV, workloads.Artifact("eval.csv.manifest.json", "manifest", of="eval.csv")))
    model = workloads.Command(
        ("train", "--dataset", "homoscedastic", "--n", "128", "--out", "model.npz"),
        (workloads.Artifact("model.npz", "npz"),))
    bad_exit = workloads.Command(("eval", "--dataset", "no-such-dataset"), ())

    outcomes = {}
    outcomes["valid eval passes"] = run_rep(runner, (good,), cwd, book).ok
    csv = cwd / "eval.csv"
    csv.write_text(csv.read_text(encoding="utf-8").replace(",", ",nan,", 1), encoding="utf-8")
    outcomes["malformed csv fails"] = bool(verify(good, cwd, HashBook({})))
    rep = run_rep(runner, (good,), cwd, book)
    text = csv.read_text(encoding="utf-8")
    csv.write_text(text[:-2] + ("0" if text[-2] != "0" else "1") + "\n", encoding="utf-8")
    outcomes["changed digit fails (hash)"] = rep.ok and bool(verify(good, cwd, book))
    outcomes["valid model passes"] = run_rep(runner, (model,), cwd, book).ok
    npz = cwd / "model.npz"
    npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
    outcomes["truncated model fails"] = bool(verify(model, cwd, HashBook({})))
    outcomes["non-zero exit fails"] = not run_rep(runner, (bad_exit,), cwd, book).ok
    shutil.rmtree(cwd, ignore_errors=True)
    for what, passed in outcomes.items():
        print(f"{'ok  ' if passed else 'FAIL'} {what}")
    return all(outcomes.values())


# ----------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--self-test", action="store_true")
    mode.add_argument("--check-threads", action="store_true")
    mode.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "uqeval" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: no uqeval source under {SRC} or no {spec_path.name}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)
    if args.self_test:
        return 0 if self_test() else 1
    if args.check_threads:
        return 0 if check_threads([args.workload] if args.workload else workloads.NAMES, args.seed) else 1
    if args.write_reference:
        write_reference()
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    threads = nproc()
    try:
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        metrics, detail = benchmark(args.workload, args.seed, seconds, bool(args.trace), threads)
    finally:
        for sub in ("setup", "rep", "spans"):
            shutil.rmtree(WORK / sub, ignore_errors=True)
    result = result_line(spec["per_layer" if args.trace else "end_to_end"], metrics, detail)
    for name, m in result["metrics"].items():
        print(f"{name:44s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
