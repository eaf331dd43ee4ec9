"""One round of a workload in a fresh interpreter.

Usage: python3 worker.py SPEC OUT

SPEC is a JSON file written by run.py: {"src", "deadline_s", "trace",
"setup_only", "ops": [{"id", "command", "source", "n_bound", "path"}]}.
The worker times its own set-up (importing qforge.cli, then resolving
and loading the round's lattices), runs every op through
`qforge.cli.main` in this process one after another under a per-op
deadline, and writes raw results to OUT. Reports are checked by run.py,
outside the timed region.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback


class OpDeadline(BaseException):
    """Raised by the deadline alarm. A BaseException so that no handler in
    the program under test can swallow it."""


def _alarm(signum, frame):
    raise OpDeadline()


def run_op(cli, argv: list[str], deadline_s: float) -> dict:
    out = io.StringIO()
    error = None
    rc = None
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        status = "returned"
    except OpDeadline:
        status = "timeout"
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
        status = "returned"
    except Exception:  # cli.main lets everything but QforgeError escape
        status = "traceback"
        error = traceback.format_exc(limit=-8)
    latency = time.perf_counter() - start
    if status == "returned" and rc != 0:
        status = f"exit_{rc}" if rc in (2, 3, 4) else "traceback"
        if status == "traceback":
            error = f"unexpected exit code {rc!r}"
    return {"rc": rc, "status": status, "latency_s": latency,
            "stdout": out.getvalue(), "error": error}


def main(spec_path: str, out_path: str) -> None:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])

    start = time.perf_counter()
    import qforge.cli as cli
    from qforge import catalog, jsonio

    import_s = time.perf_counter() - start
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.begin_op("setup")
    start = time.perf_counter()
    for name in sorted({op["source"] for op in spec["ops"]}):
        catalog.resolve(name)
    for op in spec["ops"]:
        jsonio.load_lattice_file(op["path"])
    setup_s = import_s + time.perf_counter() - start
    if tracer:
        tracer.end_op()
    if not cli.__file__.startswith(spec["src"] + os.sep):
        raise SystemExit(f"qforge was imported from {cli.__file__}, not {spec['src']}")

    result: dict = {"setup_s": setup_s, "ops": []}
    if not spec["setup_only"]:
        signal.signal(signal.SIGALRM, _alarm)
        for op in spec["ops"]:
            argv = [op["command"], "--lattice", op["path"],
                    "--n-bound", str(op["n_bound"]), "--verify"]
            if tracer:
                tracer.begin_op(op["id"])
            record = run_op(cli, argv, spec["deadline_s"])
            if tracer:
                tracer.end_op()
            record["id"] = op["id"]
            result["ops"].append(record)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        result["trace"] = {
            "layers": tracer.layer_stats(),
            "counters": tracer.counters,
            "caches": tracer.cache_ratios(),
            "ops": tracer.op_attribution(),
            "spans": len(tracer.spans),
            "missing": tracer.missing,
        }
        tracer.write(os.path.join(os.path.dirname(out_path), "spans.json"))
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
