"""Measured process: runs a plan of CLI commands through `magtun.cli.main`.

Started by run.py in a fresh interpreter with the BLAS thread caps already
in its environment.  Reads the plan (JSON) on stdin and prints one JSON
object on stdout: per-command exit code, captured output and times, peak
RSS, CPU time, and with --trace the per-layer span metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _os_threads():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _versions():
    import numpy
    import scipy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas}


def _run(argv, main):
    buf = io.StringIO()
    error = None
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = main(list(argv))
        except SystemExit as exc:      # argparse rejects the command line
            rc = exc.code
        except Exception as exc:       # a failed case, never a crashed run
            rc = None
            error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
    t1 = time.perf_counter()
    return {"rc": rc, "error": error, "stdout": buf.getvalue(),
            "t0": t0, "t1": t1}


def main():
    trace = "--trace" in sys.argv[1:]
    plan = json.load(sys.stdin)
    import magtun.cli
    src = os.environ["PERFBENCH_SRC"]
    if not os.path.abspath(magtun.cli.__file__).startswith(src + os.sep):
        sys.exit(f"magtun imported from {magtun.cli.__file__}, not {src}")
    tracer = None
    if trace:
        from spans import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)
    threads = _os_threads()
    cpu0 = _cpu_s()
    rounds = [[_run(argv, magtun.cli.main) for argv in r] for r in plan]
    cpu_s = _cpu_s() - cpu0
    out = {
        "rounds": rounds,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "os_threads": threads,
        "versions": _versions(),
    }
    if tracer is not None:
        out["layers"] = tracer.metrics()
        out["top_level_s"] = tracer.top_level_s
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
