"""One CLI command in a fresh process, the way a user runs `uqeval ...`.

    python3 worker.py SPAWN_MONOTONIC SPANS_PATH ARGV...

Imports `uqeval` from the `src/` directory next to this benchmark, then
calls `uqeval.cli.run(ARGV)` and exits with its code.  With SPANS_PATH
"-" nothing else happens.  Otherwise the tracer's hooks are installed
after the import and the spans, with the time from SPAWN_MONOTONIC (the
parent's clock just before it started this process) to `uqeval.cli`
being imported, are written to SPANS_PATH.
"""
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    spawn_t, spans_path, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
    sys.path.insert(0, str(SRC))
    import uqeval.cli

    import_s = time.monotonic() - spawn_t
    if not Path(uqeval.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported uqeval from {uqeval.cli.__file__}, not {SRC}", file=sys.stderr)
        return 3
    if spans_path == "-":
        return uqeval.cli.run(argv)
    import tracer

    trace = tracer.install()
    code = uqeval.cli.run(argv)
    trace.dump(spans_path, import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
